"""Finite-volume Gibbs machinery on the torus.

A potential is a weighted list of forbidden rectangular patterns, matched by
the shape-hashed kernel `tiles.PatternIndex`.  The local energy of a site
counts every occurrence covering it, so one occurrence of a size-s pattern
contributes s times to the total.  Energies are kept as integers in units of
1/D (D the lcm of the weight denominators) and read out as exact rationals.

Weights are formed per integer level n (energy n/D).  With
y = Fraction(exp(-beta/D)) a level weighs y^n: exact Boltzmann enumeration on
tiny tori forms one weight per level, and a Metropolis chain forms the exact
acceptance y^n of a rise n once.  Acceptance probabilities are thus exact
rationals and detailed balance is an identity; beta = 0 is simply y = 1.

The enumeration scores configurations in blocks of numpy digit rows: the
kernel counts each block's occurrences per distinct pattern value, and each
distinct count vector's level is summed once in Python ints, so levels stay
exact for weights of any size.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .markers import MarkerSet
from .tiles import BudgetExceeded, InputError, PatternIndex, Tileset

_Q = Union[int, Fraction]

ENUMERATION_BUDGET = 1 << 20
ENUMERATION_BLOCK = 4096  # configurations per numpy batch: bounds its arrays


@dataclass(frozen=True)
class Potential:
    """Weighted forbidden patterns; rows are indexed like the torus array,
    rows[j][i] matching the cell (y + j, x + i) for an anchor at (y, x)."""

    forbidden: Tuple[Tuple[Tuple[Tuple[str, ...], ...], Fraction], ...]

    def __post_init__(self):
        clean = []
        for rows, weight in self.forbidden:
            rows = tuple(map(tuple, rows))
            if not rows or not rows[0]:
                raise InputError("empty forbidden pattern")
            if len(set(map(len, rows))) != 1:
                raise InputError("ragged forbidden pattern")
            if type(weight) is not Fraction:
                weight = Fraction(weight)
            if weight.numerator < 0:
                raise InputError("pattern weights must be >= 0")
            clean.append((rows, weight))
        object.__setattr__(self, "forbidden", tuple(clean))

    @property
    def range(self) -> int:
        """Largest anchor-to-cell offset any pattern can reach."""
        return max((max(len(rows) - 1, len(rows[0]) - 1)
                    for rows, _ in self.forbidden), default=0)

    def to_json(self) -> str:
        doc = {"patterns": [
            {"rows": [list(r) for r in rows],
             "weight": [w.numerator, w.denominator]}
            for rows, w in self.forbidden]}
        return json.dumps(doc, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Potential":
        try:
            doc = json.loads(text)
            pairs = tuple(
                (tuple(tuple(r) for r in entry["rows"]),
                 Fraction(entry["weight"][0], entry["weight"][1]))
                for entry in doc["patterns"])
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
            raise InputError(f"malformed potential json: {exc}") from exc
        if not all(isinstance(c, str) for rows, _ in pairs for r in rows for c in r):
            raise InputError("malformed potential json: pattern cells must be tile ids")
        return cls(pairs)


def pattern_potential(pairs: Iterable[Tuple[Sequence[Sequence[str]], _Q]]) -> Potential:
    return Potential(tuple(pairs))


def adjacency_potential(tileset: Tileset, weight: _Q = 1) -> Potential:
    """One forbidden domino per incompatible adjacent pair of the tileset."""
    ids = [t.id for t in tileset.tiles]
    weight = Fraction(weight)
    pairs = []
    for a, h_row, v_row in zip(ids, tileset.h_compat.tolist(), tileset.v_compat.tolist()):
        for b, h_ok, v_ok in zip(ids, h_row, v_row):
            if not h_ok:
                pairs.append((((a, b),), weight))
            if not v_ok:
                # b sits on the row above a: rows are (lower, upper)
                pairs.append((((a,), (b,)), weight))
    return Potential(tuple(pairs))


class TorusConfig:
    """Tile assignment on an N x N torus with a maintained exact energy."""

    def __init__(self, tileset: Tileset, potential: Potential, cells):
        cells = np.array(cells, dtype=np.int64)
        if cells.ndim != 2 or cells.shape[0] != cells.shape[1]:
            raise InputError("torus cells must form a square array")
        self.side = int(cells.shape[0])
        if self.side < 1:
            raise InputError("torus side must be >= 1")
        # offsets up to side/2 keep every pattern within one wrap of the torus
        if 2 * potential.range > self.side:
            raise InputError("potential range must stay within half the side")
        if cells.min(initial=0) < 0 or cells.max(initial=0) >= len(tileset.tiles):
            raise InputError("cell values must index the tileset")
        self.tileset = tileset
        self.potential = potential
        self.cells = cells
        # each pattern is worth weight * support, in units of 1/D
        self._denominator = d = _energy_denominator(potential)
        patterns = [[(j, i, tileset.index.get(tid)) for j, row in enumerate(rows)
                     for i, tid in enumerate(row)] for rows, _ in potential.forbidden]
        self._index = PatternIndex(patterns, [
            w.numerator * (d // w.denominator) * len(pattern)
            for (_, w), pattern in zip(potential.forbidden, patterns)])
        self._units = int(self.recompute_energy() * d)

    @property
    def energy(self) -> Fraction:
        return Fraction(self._units, self._denominator)

    def recompute_energy(self) -> Fraction:
        """Full from-scratch scan of the current cells."""
        return Fraction(self._index.total(self.cells, wrap=True), self._denominator)

    def _local_units(self, x: int, y: int) -> int:
        """Energy, in units of 1/D, of the occurrences covering cell (x, y)."""
        return sum(self._index.covering(self.cells, y % self.side, x % self.side, wrap=True))

    def update(self, x: int, y: int, tile_index: int) -> Fraction:
        """Set one cell, returning the exact energy change."""
        if not 0 <= tile_index < len(self.tileset.tiles):
            raise InputError("tile index out of range")
        before = self._local_units(x, y)
        self.cells[y % self.side, x % self.side] = tile_index
        delta = self._local_units(x, y) - before
        self._units += delta
        return Fraction(delta, self._denominator)


def _energy_denominator(potential: Potential) -> int:
    d = 1
    for rows, w in potential.forbidden:
        d = d * w.denominator // math.gcd(d, w.denominator)
    return d


def boltzmann_base(beta: float, denominator: int) -> Fraction:
    """y with probabilities proportional to y^(energy * denominator)."""
    beta = float(beta)
    if not math.isfinite(beta) or beta < 0:
        raise InputError(f"beta must be finite and >= 0, got {beta}")
    # the exact quotient rounded once: a denominator past the float range
    # cannot overflow
    return Fraction(math.exp(-float(Fraction(beta) / denominator)))


@dataclass
class BoltzmannTable:
    side: int
    beta: float
    denominator: int
    base: Fraction
    energies: Dict[tuple, Fraction]
    probabilities: Dict[tuple, Fraction]

    def probability(self, cells) -> Fraction:
        key = tuple(int(v) for v in np.asarray(cells).ravel())
        return self.probabilities[key]


def boltzmann_exact(tileset: Tileset, potential: Potential, side: int,
                    beta: float, budget: int = ENUMERATION_BUDGET) -> BoltzmannTable:
    """Exact Boltzmann distribution over every tile assignment of the torus;
    weight, probability and energy are formed once per integer level."""
    ntiles = len(tileset.tiles)
    count = ntiles ** (side * side)
    if count > budget:
        raise BudgetExceeded(
            f"{count} configurations exceed the enumeration budget {budget}")
    scratch = TorusConfig(tileset, potential, np.zeros((side, side), np.int64))
    d, index = scratch._denominator, scratch._index
    y = boltzmann_base(beta, d)
    # configuration i is the base-ntiles digit row of i, most significant
    # digit first: the iter_product order of the table's keys
    radix = ntiles ** np.arange(side * side - 1, -1, -1, dtype=np.int64)
    level_ids = np.empty(count, dtype=np.int32)
    position: Dict[int, int] = {}  # distinct level n -> its id
    for start in range(0, count, ENUMERATION_BLOCK):
        digits = np.arange(start, min(start + ENUMERATION_BLOCK, count))[:, None] // radix % ntiles
        values, counts = index.value_counts(digits.reshape(-1, side, side), ntiles)
        # group the configurations by count vector, one column at a time
        group = np.zeros(len(counts), dtype=np.int64)
        for column in counts.T:
            group = np.unique(group * (int(column.max()) + 1) + column, return_inverse=True)[1]
        rows = np.empty((int(group.max()) + 1, counts.shape[1]), dtype=np.int32)
        rows[group] = counts
        # each group's level, summed in Python ints
        ids = [position.setdefault(sum(c * v for c, v in zip(row, values)), len(position))
               for row in rows.tolist()]
        level_ids[start:start + len(digits)] = np.array(ids)[group]
    tally = np.bincount(level_ids, minlength=len(position)).tolist()
    weights = [y ** n for n in position]
    z = sum(c * w for c, w in zip(tally, weights))
    energy = [Fraction(n, d) for n in position]
    probability = [w / z for w in weights]
    per_config = level_ids.tolist()
    energies = dict(zip(iter_product(range(ntiles), repeat=side * side),
                        map(energy.__getitem__, per_config)))
    return BoltzmannTable(side=side, beta=beta, denominator=d, base=y, energies=energies,
                          probabilities=dict(zip(energies, map(probability.__getitem__,
                                                               per_config))))


def acceptance_probability(base: Fraction, denominator: int,
                           delta: Fraction) -> Fraction:
    """Metropolis acceptance min(1, y^(delta * D)), exact."""
    exponent = Fraction(delta) * denominator
    if exponent.denominator != 1:
        raise InputError("energy change is not a multiple of 1/denominator")
    if exponent <= 0:
        return Fraction(1)
    return base ** exponent.numerator


def torus_coverage(config: TorusConfig,
                   markers: Union[MarkerSet, PatternIndex]) -> Fraction:
    """Fraction of torus cells inside some marker occurrence (wrap-aware).

    `markers` is a marker set or its kernel over the config's tile codes,
    `markers.index(config.tileset.index)`, which a chain builds once.
    """
    if isinstance(markers, MarkerSet):
        markers = markers.index(config.tileset.index)
    covered = markers.covered(config.cells, wrap=True)
    return Fraction(int(covered.sum()), config.side ** 2)


@dataclass
class MetropolisResult:
    seed: int
    beta: float
    steps: int
    accepted: int
    trace: List[tuple]  # (step, energy, coverage or None)
    samples: List[tuple]  # flattened cell tuples, when sample_cadence was set
    config: TorusConfig


def metropolis(tileset: Tileset, potential: Potential, side: int, beta: float,
               steps: int, rng_seed: int, markers: Optional[MarkerSet] = None,
               cadence: int = 0, sample_cadence: int = 0,
               initial: Optional[np.ndarray] = None) -> MetropolisResult:
    """Single-site Metropolis chain with uniform site/tile proposals.

    Fully deterministic given rng_seed (counter-based Philox stream); the
    trace records (step, exact energy, coverage) every `cadence` steps, plus
    the initial and final states.
    """
    if steps < 1:
        raise InputError("steps must be >= 1")
    if side < 1:
        raise InputError("torus side must be >= 1")
    if rng_seed < 0:
        raise InputError(f"rng_seed must be >= 0, got {rng_seed}")
    if cadence < 0 or sample_cadence < 0:
        raise InputError("cadence and sample_cadence must be >= 0")
    rng = np.random.Generator(np.random.Philox(rng_seed))
    ntiles = len(tileset.tiles)
    if initial is None:
        cells = rng.integers(0, ntiles, size=(side, side))
    else:
        cells = np.array(initial, np.int64)
    config = TorusConfig(tileset, potential, cells)
    d = config._denominator
    y = boltzmann_base(beta, d)
    accept: Dict[int, float] = {}  # rise n > 0 -> float(y^n)
    cover = markers.index(tileset.index) if markers is not None else None

    def observe(step):
        cov = float(torus_coverage(config, cover)) if cover is not None else None
        trace.append((step, config.energy, cov))

    trace: List[tuple] = []
    samples: List[tuple] = []
    observe(0)
    accepted = 0
    done = 0
    while done < steps:
        block = min(steps - done, 1 << 14)
        xs = rng.integers(0, side, size=block)
        ys = rng.integers(0, side, size=block)
        ts = rng.integers(0, ntiles, size=block)
        us = rng.random(size=block)
        for x, yy, t, u in zip(xs, ys, ts, us):
            done += 1
            delta = config._local_units(int(x), int(yy))
            old = int(config.cells[yy, x])
            config.cells[yy, x] = t
            delta = config._local_units(int(x), int(yy)) - delta
            if delta > 0 and delta not in accept:
                accept[delta] = float(acceptance_probability(y, d, Fraction(delta, d)))
            if delta <= 0 or u < accept[delta]:
                config._units += delta
                accepted += 1
            else:
                config.cells[yy, x] = old
            if cadence and done % cadence == 0:
                observe(done)
            if sample_cadence and done % sample_cadence == 0:
                samples.append(tuple(int(v) for v in config.cells.ravel()))
    if not cadence or steps % cadence != 0:
        observe(steps)
    return MetropolisResult(seed=rng_seed, beta=beta, steps=steps,
                            accepted=accepted, trace=trace, samples=samples,
                            config=config)


def _sweep_cell(args):
    tileset, potential, markers, side, beta, steps, seed, cadence = args
    res = metropolis(tileset, potential, side, beta, steps, seed,
                     markers=markers, cadence=cadence)
    samples = [cov for step, _, cov in res.trace if step > steps // 2]
    return sum(samples) / len(samples)


def worker_count() -> int:
    """Worker processes for the sweep helpers: GROUNDLAB_WORKERS, default 1."""
    text = os.environ.get("GROUNDLAB_WORKERS", "1")
    if not text.strip().isdecimal() or int(text) < 1:
        raise InputError(f"GROUNDLAB_WORKERS must be a positive integer, got {text!r}")
    return int(text)


def coverage_sweep(tileset: Tileset, potential: Potential, markers: MarkerSet,
                   side: int, beta_list: Sequence[float], steps: int,
                   seeds: Sequence[int],
                   cadence: Optional[int] = None) -> List[dict]:
    """Mean marker coverage (with standard error) per beta over replica chains."""
    if not beta_list or not seeds:
        raise InputError("coverage sweep needs at least one beta and one seed")
    cadence = cadence or max(1, steps // 10)
    jobs = [(tileset, potential, markers, side, float(beta), steps, int(seed), cadence)
            for beta in beta_list for seed in seeds]
    workers = worker_count()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(_sweep_cell, jobs))
    else:
        values = [_sweep_cell(job) for job in jobs]
    rows = []
    n = len(seeds)
    for bi, beta in enumerate(beta_list):
        vals = values[bi * n:(bi + 1) * n]
        mean = sum(vals) / n
        var = sum((v - mean) ** 2 for v in vals) / n
        rows.append({"beta": float(beta), "mean_coverage": mean,
                     "stderr": math.sqrt(var / n)})
    return rows


def coverage_csv(rows: List[dict]) -> str:
    lines = ["beta,mean_coverage,stderr"]
    for row in rows:
        lines.append(f"{row['beta']!r},{row['mean_coverage']!r},{row['stderr']!r}")
    return "\n".join(lines) + "\n"


def trace_csv(result: MetropolisResult) -> str:
    lines = ["step,energy,coverage"]
    for step, energy, cov in result.trace:
        cov_text = "" if cov is None else repr(cov)
        lines.append(f"{step},{float(energy)!r},{cov_text}")
    return "\n".join(lines) + "\n"


def spearman_rank(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks on ties."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise InputError("need two sequences of equal length >= 2")

    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        out = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for t in range(i, j + 1):
                out[order[t]] = avg
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        raise InputError("constant sequence has no rank correlation")
    return cov / math.sqrt(vx * vy)
