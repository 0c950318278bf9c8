"""Finite-volume Gibbs machinery on the torus.

A potential is a weighted list of forbidden rectangular patterns, matched by
the shape-hashed kernel `tiles.PatternIndex`.  The local energy of a site
counts every occurrence covering it, so one occurrence of a size-s pattern
contributes s times to the total.  Energies are kept as integers in units of
1/D (D the lcm of the weight denominators) and read out as exact rationals.

Exact Boltzmann enumeration works on tiny tori; Metropolis sampling covers
moderate ones.  The acceptance rule is built from y = Fraction(exp(-beta/D))
with D the energy denominator lcm, so acceptance probabilities are exact
rationals of integer powers of y and detailed balance is an identity, not an
approximation.
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


@dataclass(frozen=True)
class Potential:
    """Weighted forbidden patterns; rows are indexed like the torus array,
    rows[j][i] matching the cell (y + j, x + i) for an anchor at (y, x)."""

    forbidden: Tuple[Tuple[Tuple[Tuple[str, ...], ...], Fraction], ...]

    def __post_init__(self):
        clean = []
        for rows, weight in self.forbidden:
            rows = tuple(tuple(r) for r in rows)
            if not rows or not rows[0]:
                raise InputError("empty forbidden pattern")
            if any(len(r) != len(rows[0]) for r in rows):
                raise InputError("ragged forbidden pattern")
            weight = Fraction(weight)
            if weight < 0:
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
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise InputError(f"malformed potential json: {exc}") from exc
        return cls(pairs)


def pattern_potential(pairs: Iterable[Tuple[Sequence[Sequence[str]], _Q]]) -> Potential:
    return Potential(tuple((tuple(tuple(r) for r in rows), Fraction(w))
                           for rows, w in pairs))


def adjacency_potential(tileset: Tileset, weight: _Q = 1) -> Potential:
    """One forbidden domino per incompatible adjacent pair of the tileset."""
    ids = [t.id for t in tileset.tiles]
    pairs = []
    for i, a in enumerate(ids):
        for j, b in enumerate(ids):
            if not tileset.h_compat[i, j]:
                pairs.append(((a, b),))
            if not tileset.v_compat[i, j]:
                # b sits on the row above a: rows are (lower, upper)
                pairs.append(((a,), (b,)))
    return pattern_potential([(rows, weight) for rows in pairs])


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


def total_energy(config: TorusConfig, potential: Optional[Potential] = None) -> Fraction:
    """Exact total energy; defaults to the config's own potential."""
    if potential is None or potential is config.potential:
        return config.recompute_energy()
    probe = TorusConfig(config.tileset, potential, config.cells)
    return probe.energy


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
    return Fraction(math.exp(-beta / denominator))


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
    """Exact Boltzmann distribution over every tile assignment of the torus."""
    ntiles = len(tileset.tiles)
    count = ntiles ** (side * side)
    if count > budget:
        raise BudgetExceeded(
            f"{count} configurations exceed the enumeration budget {budget}")
    d = _energy_denominator(potential)
    y = boltzmann_base(beta, d)
    energies: Dict[tuple, Fraction] = {}
    weights: Dict[tuple, Fraction] = {}
    scratch = TorusConfig(tileset, potential, np.zeros((side, side), np.int64))
    for assignment in iter_product(range(ntiles), repeat=side * side):
        scratch.cells = np.array(assignment, np.int64).reshape(side, side)
        energies[assignment] = e = scratch.recompute_energy()
        weights[assignment] = y ** int(e * d)  # e is a whole number of 1/D
    z = sum(weights.values())
    probabilities = {k: v / z for k, v in weights.items()}
    return BoltzmannTable(side=side, beta=beta, denominator=d, base=y,
                          energies=energies, probabilities=probabilities)


def acceptance_probability(base: Fraction, denominator: int,
                           delta: Fraction) -> Fraction:
    """Metropolis acceptance min(1, y^(delta * D)), exact."""
    exponent = Fraction(delta) * denominator
    if exponent.denominator != 1:
        raise InputError("energy change is not a multiple of 1/denominator")
    if exponent <= 0:
        return Fraction(1)
    return base ** exponent.numerator


def torus_coverage(config: TorusConfig, markers: MarkerSet) -> Fraction:
    """Fraction of torus cells inside some marker occurrence (wrap-aware)."""
    covered = markers.index(config.tileset.index).covered(config.cells, wrap=True)
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
    rng = np.random.Generator(np.random.Philox(rng_seed))
    ntiles = len(tileset.tiles)
    if initial is None:
        cells = rng.integers(0, ntiles, size=(side, side))
    else:
        cells = np.array(initial, np.int64)
    config = TorusConfig(tileset, potential, cells)
    d = _energy_denominator(potential)
    y = boltzmann_base(beta, d)
    free_run = beta == 0

    def observe(step):
        cov = float(torus_coverage(config, markers)) if markers is not None else None
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
            if free_run:
                config.cells[yy, x] = t
                accepted += 1
            else:
                delta = config._local_units(int(x), int(yy))
                old = int(config.cells[yy, x])
                config.cells[yy, x] = t
                delta = config._local_units(int(x), int(yy)) - delta
                if delta <= 0 or u < float(acceptance_probability(y, d, Fraction(delta, d))):
                    config._units += delta
                    accepted += 1
                else:
                    config.cells[yy, x] = old
            if cadence and done % cadence == 0:
                if free_run:
                    config._units = int(config.recompute_energy() * d)
                observe(done)
            if sample_cadence and done % sample_cadence == 0:
                samples.append(tuple(int(v) for v in config.cells.ravel()))
    if free_run:
        config._units = int(config.recompute_energy() * d)
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
    try:
        return max(1, int(os.environ.get("GROUNDLAB_WORKERS", "1")))
    except ValueError:
        return 1


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
