"""Finite-volume Gibbs machinery on the torus.

A potential is integer code rows over one legend of tile ids: per (h, w)
rectangle, one int32 row of legend codes per forbidden pattern, in row-major
order, and its weight in units of 1/D (D the lcm of the weight
denominators), summed over duplicates.  `Potential.from_patterns` codes
(rows, weight) pairs over the ids in first-seen order; the adjacency
potential takes its rows straight from a tileset's compatibility matrices,
over the tileset's ids.  A torus maps the legend to tile codes with one
numpy take per shape, drops the rows naming an id the tileset lacks and
those of zero weight, and scales the units by the support h * w: these are
the tables of the shape-hashed kernel `tiles.PatternIndex`.  The local
energy of a site counts every occurrence covering it, so one occurrence of a
size-s pattern contributes s times to the total.  Energies are kept as
integers in units of 1/D and read out as exact rationals.

A Metropolis proposal (site p, tile t) is scored in one pass over a flat
Python list of codes: the kernel's plan for p holds one (table lookup, key
getter) pair per pattern cell landing on p, and the rise n is the sum of the
lookups after the change minus the sum before it (`TorusConfig._rise`).  A
proposal that keeps the tile is a zero rise.

Weights are formed per integer level n (energy n/D).  With
y = Fraction(exp(-beta/D)) a level weighs y^n: exact Boltzmann enumeration on
tiny tori forms one weight per level, and a Metropolis chain compares its
uniform draw with float(y^n), the correctly rounded acceptance of a rise n,
computed once per n by `power_float` without forming y^n.  Acceptance
probabilities are exact rationals and detailed balance is an identity;
beta = 0 is simply y = 1.

The enumeration scores rows, not cells: shapes are anchored at their top-left
cell, so a configuration's level is the sum over its rows y of the level of
the window of rows y .. y + H - 1 (mod side), H the tallest shape, read from
a table the kernel fills once (`PatternIndex.row_counts`) as int64 sums of
limbs of the pattern values.  Each block's distinct limb sums are summed once
in Python ints, so levels stay exact for weights of any size.
The table it returns is one int32 level id per configuration plus one energy
and one probability per level: `energies` and `probabilities` are read-only
`LevelView`s over them, where a lookup reads one level and a walk over every
entry reads the ids once.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from itertools import product as iter_product
from operator import mul
from types import MappingProxyType
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .markers import MarkerSet
from .tiles import BudgetExceeded, InputError, PatternIndex, Tileset, id_rows

_Q = Union[int, Fraction]

ENUMERATION_BUDGET = 1 << 20
ENUMERATION_BLOCK = 4096  # configurations per numpy batch: bounds its arrays


class Potential:
    """Weighted forbidden patterns, held as integer code rows over one legend.

    `ids` is the legend, a tuple of distinct tile ids.  `rows` maps each
    (h, w) rectangle to (codes, units): row r of the read-only int32 array
    `codes`, of shape (m, h * w), is a pattern's legend codes in row-major
    order, rows[j][i] at j * w + i, where rows are indexed like the torus
    array (rows[j][i] matches the cell (y + j, x + i) for an anchor at
    (y, x)); `units` holds the m weights as ints in units of 1/`denominator`,
    duplicate patterns summed, so no row repeats.  The constructor checks
    each shape's rows; a potential is read-only.

    `from_patterns` lists the legend in first-seen order and sets the
    denominator to the lcm of the weight denominators as given, duplicates
    and unknown ids included.
    """

    __slots__ = ("ids", "rows", "denominator")

    def __init__(self, ids: Sequence[str],
                 rows: Mapping[Tuple[int, int], Tuple[np.ndarray, Sequence[int]]],
                 denominator: int):
        ids = tuple(ids)
        if type(denominator) is not int or denominator < 1:
            raise InputError("potential denominator must be an int >= 1")
        if set(map(type, ids)) - {str} or len(set(ids)) != len(ids):
            raise InputError("a potential legend must hold distinct tile ids")
        kept = {}
        for shape, (codes, units) in rows.items():
            if (type(shape) is not tuple or len(shape) != 2
                    or {type(n) for n in shape} != {int} or min(shape) < 1):
                raise InputError(f"pattern shape must be (h, w) with h, w >= 1, got {shape!r}")
            codes, units = np.asarray(codes), tuple(units)
            if codes.shape != (len(units), shape[0] * shape[1]):
                raise InputError(f"{shape} code rows must hold h * w codes, one row per unit")
            if not units:
                continue
            if codes.dtype.kind not in "iu" or codes.min() < 0 or codes.max() >= len(ids):
                raise InputError("pattern codes must index the legend")
            if set(map(type, units)) != {int} or min(units) < 0:
                raise InputError("pattern weights must be integer units >= 0")
            codes, n, width = codes.astype(np.int32), len(ids), codes.shape[1]
            if n ** width < 1 << 63:  # each row one base-n int64 key
                keys = np.sort(np.ravel_multi_index(tuple(codes.T), (n,) * width))
                repeats = (keys[1:] == keys[:-1]).any()
            else:
                repeats = len(set(map(tuple, codes.tolist()))) < len(codes)
            if repeats:
                raise InputError(f"a {shape} pattern repeats")
            codes.flags.writeable = False
            kept[shape] = (codes, units)
        for name, value in (("ids", ids), ("rows", MappingProxyType(kept)),
                            ("denominator", denominator)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("a Potential is read-only")

    @classmethod
    def from_patterns(cls, pairs: Iterable[Tuple[Sequence[Sequence[str]], _Q]]) -> "Potential":
        """The potential of (rows, weight) pairs, rows indexed like the torus."""
        code: Dict[str, int] = {}
        patterns = []
        for rows, weight in pairs:
            try:
                rows = id_rows(rows)
                if type(weight) is not Fraction:
                    weight = Fraction(weight)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"bad forbidden pattern: {exc}") from exc
            if not rows or not rows[0]:
                raise InputError("empty forbidden pattern")
            if len(set(map(len, rows))) != 1:
                raise InputError("ragged forbidden pattern")
            if weight.numerator < 0:
                raise InputError("pattern weights must be >= 0")
            ids = tuple(chain.from_iterable(rows))
            if set(map(type, ids)) != {str}:
                raise InputError("pattern cells must be tile ids")
            patterns.append(((len(rows), len(rows[0])),
                             tuple(code.setdefault(i, len(code)) for i in ids),
                             weight.numerator, weight.denominator))
        d = math.lcm(*{den for *_, den in patterns})
        tables: Dict[Tuple[int, int], Dict[tuple, int]] = {}
        for shape, codes, num, den in patterns:
            table = tables.setdefault(shape, {})
            table[codes] = table.get(codes, 0) + num * (d // den)
        return cls(tuple(code), {
            (h, w): (np.array(list(table), np.int32).reshape(-1, h * w), table.values())
            for (h, w), table in tables.items()}, d)

    @property
    def range(self) -> int:
        """Largest anchor-to-cell offset any pattern can reach."""
        return max((max(h, w) - 1 for h, w in self.rows), default=0)

    @classmethod
    def from_json(cls, text: str) -> "Potential":
        try:  # InputError is a ValueError
            doc = json.loads(text)
            return cls.from_patterns(
                [(entry["rows"], Fraction(entry["weight"][0], entry["weight"][1]))
                 for entry in doc["patterns"]])
        except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
            raise InputError(f"malformed potential json: {exc}") from exc


def adjacency_potential(tileset: Tileset) -> Potential:
    """One forbidden domino of weight 1 per incompatible adjacent pair of the
    tileset, read straight off the compatibility matrices as code rows over
    the tileset's ids."""
    rows = {}
    # h_compat[a, b]: a sits west of b; v_compat[a, b]: a sits south of b,
    # so its domino's rows are (a,), (b,): row-major codes (a, b) either way
    for shape, compat in (((1, 2), tileset.h_compat), ((2, 1), tileset.v_compat)):
        codes = np.argwhere(~compat)
        rows[shape] = (codes, (1,) * len(codes))
    return Potential([t.id for t in tileset.tiles], rows, 1)


class TorusConfig:
    """Tile assignment on an N x N torus with a maintained exact energy."""

    def __init__(self, tileset: Tileset, potential: Potential, cells):
        # a potential holds only weighted rectangles, so a chain would ignore
        # the tileset's hard forbidden patterns
        if tileset.extra_forbidden:
            raise InputError("a torus potential cannot carry the tileset's "
                             "forbidden patterns")
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
        self.cells = cells
        self._denominator = potential.denominator
        # one take maps each shape's legend codes to tile codes (-1: an id
        # the tileset lacks); rows holding such an id, and zero units, are
        # dropped, and the units are scaled by the support h * w
        code = np.array([tileset.index.get(i, -1) for i in potential.ids], dtype=np.int64)
        lacks = code.min(initial=0) < 0
        tables = {}
        for (h, w), (rows, units) in potential.rows.items():
            rows = code[rows]
            if lacks or 0 in units:
                keep = (rows >= 0).all(axis=1) & np.array(list(map(bool, units)))
                rows, units = rows[keep], list(compress(units, keep.tolist()))
            if not units:
                continue
            cols = rows.T.tolist()
            keys = cols[0] if h * w == 1 else zip(*cols)
            if units.count(units[0]) == len(units):  # one weight, scaled once
                table = dict.fromkeys(keys, units[0] * h * w)
            else:
                table = dict(zip(keys, map(mul, units, repeat(h * w))))
            tables[tuple(iter_product(range(h), range(w)))] = table
        self._index = PatternIndex(tables)
        self._plan = self._index.cell_plan(cells.shape, wrap=True)
        self._units = int(self.recompute_energy() * self._denominator)

    @property
    def energy(self) -> Fraction:
        return Fraction(self._units, self._denominator)

    def recompute_energy(self) -> Fraction:
        """Full from-scratch scan of the current cells."""
        return Fraction(self._index.total(self.cells, wrap=True), self._denominator)

    def _rise(self, codes, p: int, t: int) -> int:
        """Units of 1/D the energy rises by when flat cell p of `codes` (a
        flat list of the cells, or a flat view of them) takes tile t: the
        plan's lookups at p after the change minus before it, in one pass.
        Leaves codes[p] = t."""
        terms = self._plan[p]
        delta = 0
        for get, key in terms:
            delta -= get(key(codes), 0)
        codes[p] = t
        for get, key in terms:
            delta += get(key(codes), 0)
        return delta


def boltzmann_base(beta: float, denominator: int) -> Fraction:
    """y with probabilities proportional to y^(energy * denominator)."""
    beta = float(beta)
    if not math.isfinite(beta) or beta < 0:
        raise InputError(f"beta must be finite and >= 0, got {beta}")
    # the exact quotient rounded once: a denominator past the float range
    # cannot overflow
    return Fraction(math.exp(-float(Fraction(beta) / denominator)))


class LevelView(Mapping):
    """Read-only map from each configuration of an enumerated torus to the
    value of its level.

    A configuration is a tuple of side * side codes in range(ntiles),
    row-major.  Configuration i spells i in base ntiles, most significant
    code first, so iteration follows `iter_product` and `level_ids[i]` names
    its level in `levels`.  A key is found exactly when a dict over the
    configurations would find it: a tuple of side * side entries, each
    hashing and comparing like a code (numpy ints do); any other key raises
    KeyError.  One lookup reads one level; `items()` and `values()` walk the
    level ids once; the level law is `levels` against the bincount of
    `level_ids`, read without a walk.
    """

    def __init__(self, level_ids: np.ndarray, levels: Sequence, ntiles: int, ncells: int):
        self.level_ids = level_ids
        self.levels = levels
        self._codes = {c: c for c in range(ntiles)}
        self._place = [ntiles ** k for k in range(ncells - 1, -1, -1)]

    def __getitem__(self, key):
        if not isinstance(key, tuple) or len(key) != len(self._place):
            raise KeyError(key)
        try:
            i = sum(map(mul, map(self._codes.__getitem__, key), self._place))
        except (KeyError, TypeError):  # an entry that is no code, or unhashable
            raise KeyError(key) from None
        return self.levels[self.level_ids[i]]

    def __iter__(self):
        return iter_product(self._codes, repeat=len(self._place))

    def __len__(self):
        return len(self.level_ids)

    def values(self):
        return _LevelValues(self)

    def items(self):
        return _LevelItems(self)


class _LevelValues(ValuesView):
    def __iter__(self):
        return map(self._mapping.levels.__getitem__, self._mapping.level_ids.tolist())


class _LevelItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, _LevelValues(self._mapping))


@dataclass
class BoltzmannTable:
    """Exact energy and probability of every configuration of a side x side
    torus, keyed by its tuple of codes.  `boltzmann_exact` fills both maps
    with `LevelView`s over one level-id array; any two mappings with the
    same items compare equal, so a table of dicts equals it too."""
    side: int
    beta: float
    denominator: int
    base: Fraction
    energies: Mapping[tuple, Fraction]
    probabilities: Mapping[tuple, Fraction]


def boltzmann_exact(tileset: Tileset, potential: Potential, side: int,
                    beta: float, budget: int = ENUMERATION_BUDGET) -> BoltzmannTable:
    """Exact Boltzmann distribution over every tile assignment of the torus;
    weight, probability and energy are formed once per integer level."""
    ntiles = len(tileset.tiles)
    ncells = side * side
    count = ntiles ** ncells
    if count > budget:
        raise BudgetExceeded(
            f"{count} configurations exceed the enumeration budget {budget}")
    scratch = TorusConfig(tileset, potential, np.zeros((side, side), np.int64))
    d, index = scratch._denominator, scratch._index
    y = boltzmann_base(beta, d)
    # no torus holds more than ncells * len(shapes) occurrences, so its limb sums stay int64
    height, rowcodes = max((h for h, _ in potential.rows), default=1), ntiles ** side
    bits = 63 - (ncells * len(potential.rows)).bit_length()
    top = max((max(u) * h * w for (h, w), (_, u) in potential.rows.items()), default=0)
    limbs = range(max(1, -(-top.bit_length() // bits)))
    stacks = (cells.reshape(-1, height, side) for _, cells in _row_blocks(ntiles, height * side))
    values, counts = index.row_counts(stacks, ntiles)
    split = np.array([[(v >> bits * k) & ((1 << bits) - 1) for k in limbs] for v in values],
                     dtype=np.int64).reshape(len(values), len(limbs))
    table = np.concatenate([window_counts @ split for window_counts in counts])
    # configuration i spells i in base ntiles, so its row codes are the
    # base-rowcodes digits of i; window y codes rows y .. y + height - 1, wrapping
    level_ids = np.empty(count, dtype=np.int32)
    position: Dict[int, int] = {}  # distinct level n -> its id
    for start, rows in _row_blocks(rowcodes, side):
        windows = sum(np.roll(rows, -j, axis=1) * rowcodes ** (height - 1 - j)
                      for j in range(height))
        sums = table[windows].sum(axis=1)
        group = np.unique(sums[:, 0], return_inverse=True)[1]
        for column in sums.T[1:]:
            group = np.unique(group * len(sums) + np.unique(column, return_inverse=True)[1],
                              return_inverse=True)[1]
        first = np.empty(int(group.max()) + 1, dtype=np.int64)
        first[group] = np.arange(len(group))
        ids = [position.setdefault(sum(s << bits * k for k, s in enumerate(row)), len(position))
               for row in sums[first].tolist()]
        level_ids[start:start + len(group)] = np.array(ids)[group]
    tally = np.bincount(level_ids, minlength=len(position)).tolist()
    weights = [y ** n for n in position]
    z = sum(c * w for c, w in zip(tally, weights))
    level_ids.flags.writeable = False  # shared by both views
    energies = LevelView(level_ids, tuple(Fraction(n, d) for n in position), ntiles, ncells)
    probabilities = LevelView(level_ids, tuple(w / z for w in weights), ntiles, ncells)
    return BoltzmannTable(side=side, beta=beta, denominator=d, base=y,
                          energies=energies, probabilities=probabilities)


def _row_blocks(base: int, n: int):
    """(start, rows) per block of at most ENUMERATION_BLOCK consecutive codes
    from 0 to base**n - 1: rows[b] is code start + b as n base-`base` digits,
    most significant first, the low ones read from one fixed table."""
    low = 0
    while base > 1 and low < n and base ** (low + 1) <= ENUMERATION_BLOCK:
        low += 1
    unit, runs, top = base ** low, ENUMERATION_BLOCK // base ** low, base ** (n - low)
    rows = np.empty((runs, unit, n), dtype=np.int64)
    rows[:, :, n - low:] = np.indices((base,) * low).reshape(low, unit).T
    place = base ** np.arange(n - low - 1, -1, -1)
    for run in range(0, top, runs):
        high = np.arange(run, min(run + runs, top))[:, None] // place % base
        rows[:len(high), :, :n - low] = high[:, None]
        yield run * unit, rows[:len(high)].reshape(-1, n)


def acceptance_probability(base: Fraction, denominator: int,
                           delta: Fraction) -> Fraction:
    """Metropolis acceptance min(1, y^(delta * D)), exact."""
    exponent = Fraction(delta) * denominator
    if exponent.denominator != 1:
        raise InputError("energy change is not a multiple of 1/denominator")
    if exponent <= 0:
        return Fraction(1)
    return base ** exponent.numerator


def power_float(y: Fraction, n: int) -> float:
    """float(y ** n), correctly rounded, for 0 <= y <= 1 and n >= 1, without
    forming y ** n, whose numerator has ~53 n bits for a y read from a float.

    Ziv's strategy: square and multiply on a dyadic interval [lo, hi] holding
    y^n, each end kept to p bits and rounded down or up in integers.  Rounding
    is monotone, so float(lo) == float(hi) is the answer; otherwise p doubles
    (at p past the exact size the interval is a point).  The partial powers
    never grow, so once hi falls below 2^-1075, half the least subnormal, the
    answer is 0.0."""
    num, den = y.numerator, y.denominator
    if not 0 <= num <= den or n < 1:
        raise InputError("power_float needs 0 <= y <= 1 and n >= 1")
    if num == 0:
        return 0.0
    p = 64 + 2 * n.bit_length()
    while True:
        # (m, e) is m * 2^e: y's floor and ceiling to p bits
        s = p - num.bit_length() + den.bit_length()
        q, r = divmod(num << s, den)  # s >= p, as y <= 1
        ylo, yhi = (q, -s), (q + (r > 0), -s)
        lo, hi = ylo, yhi
        for bit in bin(n)[3:]:
            lo, hi = _mul(lo, lo, p, 0), _mul(hi, hi, p, 1)
            if bit == "1":
                lo, hi = _mul(lo, ylo, p, 0), _mul(hi, yhi, p, 1)
            if hi[0].bit_length() + hi[1] <= -1075:
                return 0.0
        if _to_float(lo) == _to_float(hi):
            return _to_float(lo)
        p *= 2


def _mul(a: Tuple[int, int], b: Tuple[int, int], p: int, up: int) -> Tuple[int, int]:
    """a * b kept to p bits, rounded down (up = 0) or up (up = 1)."""
    m, e = a[0] * b[0], a[1] + b[1]
    extra = m.bit_length() - p
    if extra <= 0:
        return m, e
    return -(-m >> extra) if up else m >> extra, e + extra


def _to_float(v: Tuple[int, int]) -> float:
    m, e = v
    # e < 0, as v <= 1 has p bits; int / int is correctly rounded, subnormals included
    return m / (1 << -e)


def torus_coverage(config: TorusConfig, markers: PatternIndex) -> Fraction:
    """Fraction of torus cells inside some marker occurrence (wrap-aware).

    `markers` is a marker set's kernel over the config's tile codes,
    `MarkerSet.index(tileset.index)`, which a chain builds once.
    """
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
               cadence: int = 0, sample_cadence: int = 0) -> MetropolisResult:
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
    ntiles = len(tileset.tiles)
    if ntiles == 0:
        raise InputError("tileset has no tiles")
    rng = np.random.Generator(np.random.Philox(rng_seed))
    try:
        cells = rng.integers(0, ntiles, size=(side, side))
    except ValueError as exc:  # numpy's refusal of a size past its index range
        raise MemoryError(str(exc)) from None
    config = TorusConfig(tileset, potential, cells)
    y = boltzmann_base(beta, config._denominator)
    accept: Dict[int, float] = {}  # rise n > 0 -> float(y^n)
    cover = markers.index(tileset.index) if markers is not None else None

    def observe(step):
        cov = float(torus_coverage(config, cover)) if cover is not None else None
        trace.append((step, config.energy, cov))

    trace: List[tuple] = []
    samples: List[tuple] = []
    observe(0)
    # the chain scores over a flat code list; config.cells follows each accepted move
    rise = config._rise
    codes = config.cells.ravel().tolist()
    flat = config.cells.reshape(-1)
    accepted = 0
    done = 0
    while done < steps:
        block = min(steps - done, 1 << 14)
        xs = rng.integers(0, side, size=block).tolist()
        ys = rng.integers(0, side, size=block).tolist()
        ts = rng.integers(0, ntiles, size=block).tolist()
        us = rng.random(size=block).tolist()
        for x, yy, t, u in zip(xs, ys, ts, us):
            done += 1
            p = yy * side + x
            old = codes[p]
            if t == old:  # nothing moves: a zero rise, always accepted
                accepted += 1
            else:
                delta = rise(codes, p, t)
                if delta > 0 and delta not in accept:
                    accept[delta] = power_float(y, delta)
                if delta <= 0 or u < accept[delta]:
                    flat[p] = t
                    config._units += delta
                    accepted += 1
                else:
                    codes[p] = old
            if cadence and done % cadence == 0:
                observe(done)
            if sample_cadence and done % sample_cadence == 0:
                samples.append(tuple(int(v) for v in config.cells.ravel()))
    if not cadence or steps % cadence != 0:
        observe(steps)
    return MetropolisResult(seed=rng_seed, beta=beta, steps=steps,
                            accepted=accepted, trace=trace, samples=samples,
                            config=config)


def coverage_sweep(tileset: Tileset, potential: Potential, markers: MarkerSet,
                   side: int, beta_list: Sequence[float], steps: int,
                   seeds: Sequence[int]) -> List[dict]:
    """Mean marker coverage (with standard error) per beta over replica
    chains, each observed every tenth of its steps."""
    if not beta_list or not seeds:
        raise InputError("coverage sweep needs at least one beta and one seed")
    cadence = max(1, steps // 10)
    rows = []
    n = len(seeds)
    for beta in beta_list:
        vals = []
        for seed in seeds:
            res = metropolis(tileset, potential, side, float(beta), steps, int(seed),
                             markers=markers, cadence=cadence)
            samples = [cov for step, _, cov in res.trace if step > steps // 2]
            vals.append(sum(samples) / len(samples))
        mean = sum(vals) / n
        var = sum((v - mean) ** 2 for v in vals) / n
        rows.append({"beta": float(beta), "mean_coverage": mean,
                     "stderr": math.sqrt(var / n)})
    return rows


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
    centred = []
    for vals in (xs, ys):
        # a value's rank is the middle of its run among the sorted values
        ranks = [(bisect_left(run, v) + bisect_right(run, v) + 1) / 2
                 for run in [sorted(vals)] for v in vals]
        mean = sum(ranks) / len(ranks)
        centred.append([r - mean for r in ranks])
    (rx, ry), (vx, vy) = centred, (sum(r ** 2 for r in c) for c in centred)
    if vx == 0 or vy == 0:
        raise InputError("constant sequence has no rank correlation")
    return sum(a * b for a, b in zip(rx, ry)) / math.sqrt(vx * vy)
