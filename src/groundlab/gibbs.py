"""Finite-volume Gibbs machinery on the torus.

A potential is integer code rows over one legend of tile ids: per (h, w)
rectangle, one int32 row of legend codes per forbidden pattern, in row-major
order, and its weight in units of 1/D (D the lcm of the weight
denominators), summed over duplicates.  `Potential.from_patterns` codes
(rows, weight) pairs over the ids in first-seen order; the adjacency
potential takes its rows straight from a tileset's compatibility matrices,
over the tileset's ids.  A torus maps the legend to tile codes with one
numpy take per shape, drops the rows naming an id the tileset lacks and
those of zero weight, and scales the units by the support h * w.  The local
energy of a site counts every occurrence covering it, so one occurrence of a
size-s pattern contributes s times to the total.  Energies are kept as
integers in units of 1/D and read out as exact rationals.

A torus keys each occurrence of a k-cell shape by one integer, the base-ntiles
number sum code_i * ntiles^(k - 1 - i) of the codes at its cells: one numpy
product with these place values keys a shape's pattern rows, and the torus's
cells into every occurrence's current key (Python ints once ntiles^k passes
int64).  A shape's value at a key is its baseline plus the key's entry in an
int-keyed dict, 0 when absent.  The baseline is 0 unless the patterns cover
more than half of the ntiles^k keys; then it is the value most keys carry,
and the dict holds only the keys whose value differs from it, so Robinson's
adjacency potential keeps its 228 allowed dominoes per axis, not its 7 516
forbidden ones.  The full scan adds baseline times occurrences to the dict
lookups; a Metropolis proposal (site p, tile t) reads only the occurrences
covering p, each through one (occurrence, place value m, lookup) term, and
its rise n is the sum of lookup(key + (t - a) * m) - lookup(key), a the tile
at p, in which the baseline cancels.  An accepted move adds (t - a) * m to
each covering key, so no key is read off the cells again.  A proposal that
keeps the tile is a zero rise.

Weights are formed per integer level n (energy n/D).  With
y = Fraction(exp(-beta/D)) a level weighs y^n: exact Boltzmann enumeration on
tiny tori forms one weight per level, and a Metropolis chain compares its
uniform draw with float(y^n), the correctly rounded acceptance of a rise n,
computed once per n by `power_float` without forming y^n.  Acceptance
probabilities are exact rationals and detailed balance is an identity;
beta = 0 is simply y = 1.

Exact enumeration holds every configuration in one array with an axis of
length ntiles per cell, so configuration i, which spells i in base ntiles,
sits at index i.  Each occurrence adds its shape's dense value table (the
baseline at every key, plus the dict's entries) along its cells' axes, in
the smallest unsigned type that holds the largest possible level, or in
Python ints once that passes 64 bits, so levels stay exact for weights of
any size.  The distinct levels are sorted ascending,
the ground level first.  The table it returns is one int32 level id per
configuration plus one energy and one probability per level: `energies` and
`probabilities` are read-only `LevelView`s over them, where a lookup reads
one level and a walk over every entry reads the ids once.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, islice, repeat
from itertools import product as iter_product
from operator import mul
from types import MappingProxyType
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .markers import MarkerSet
from .tiles import (BudgetExceeded, InputError, Tileset, _json_field, _json_fraction, _read_json,
                    anchor_cells, id_rows)

_Q = Union[int, Fraction]

ENUMERATION_BUDGET = 1 << 20


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
        # from_patterns checks inside the read: its refusals name the file
        return _read_json("potential", text, lambda doc: cls.from_patterns(
            [(_json_field(entry, "rows", list, of=list), _json_fraction(entry, "weight"))
             for entry in _json_field(doc, "patterns", list)]))


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
    """Tile assignment on an N x N torus with a maintained exact energy.

    An occurrence, one shape at one anchor, is keyed by one integer: the
    base-ntiles number of the codes at its cells in row-major order,
    sum code_i * ntiles^(k - 1 - i) over its k cells.  `_shapes` maps each
    (h, w) shape to (table, place, cells, base): the int-keyed dict of its
    values in units of 1/D less the baseline `base`, a key it lacks worth
    the baseline; its place values ntiles^(k - 1 - i) (int64, or Python ints
    once ntiles^k passes int64) and the flat cell indices of each anchor,
    row-major.  The baseline is the value most of the ntiles^k keys carry
    (the least such on a tie), so it is 0 unless the patterns cover more than
    half of the keys; the dict then holds only the keys that differ from it.
    `_keys` holds every occurrence's current key, shape by
    shape, and `_terms[p]` one (occurrence, place value, lookup) per
    occurrence covering flat cell p: when p changes from tile a to tile t,
    that occurrence's key moves by (t - a) * place value.
    """

    def __init__(self, tileset: Tileset, potential: Potential, cells):
        # a potential holds only weighted rectangles, so a chain would ignore
        # the tileset's hard forbidden patterns
        if tileset.extra_forbidden:
            raise InputError("a torus potential cannot carry the tileset's "
                             "forbidden patterns")
        cells = np.array(cells, dtype=np.int64)
        if cells.ndim != 2 or cells.shape[0] != cells.shape[1]:
            raise InputError("torus cells must form a square array")
        self.side = side = int(cells.shape[0])
        if side < 1:
            raise InputError("torus side must be >= 1")
        # offsets up to side/2 keep every pattern within one wrap of the
        # torus, so no occurrence covers a cell twice
        if 2 * potential.range > side:
            raise InputError("potential range must stay within half the side")
        ntiles = len(tileset.tiles)
        if cells.min(initial=0) < 0 or cells.max(initial=0) >= ntiles:
            raise InputError("cell values must index the tileset")
        self.cells = cells
        self._denominator = potential.denominator
        # one take maps each shape's legend codes to tile codes (-1: an id
        # the tileset lacks); rows holding such an id, and zero units, are
        # dropped, the units are scaled by the support h * w, and one product
        # with the place values keys each row.  A shape whose rows cover most
        # of its keys is spread over all of them to find its baseline
        code = np.array([tileset.index.get(i, -1) for i in potential.ids], dtype=np.int64)
        lacks = code.min(initial=0) < 0
        self._shapes = {}
        for (h, w), (rows, units) in potential.rows.items():
            rows = code[rows]
            if lacks or 0 in units:
                keep = (rows >= 0).all(axis=1) & np.array(list(map(bool, units)))
                rows, units = rows[keep], list(compress(units, keep.tolist()))
            if not units:
                continue
            k, size = h * w, ntiles ** (h * w)
            place = np.array([ntiles ** e for e in range(k - 1, -1, -1)],
                             dtype=np.int64 if size <= 1 << 63 else object)
            keys = rows @ place
            same = units.count(units[0]) == len(units)  # one weight, scaled once
            values = units[0] * k if same else list(map(mul, units, repeat(k)))
            base = 0
            if 2 * len(units) > size:
                top = values if same else max(values)
                dense = np.zeros(size, np.int64 if top < 1 << 63 else object)
                dense[keys] = values
                levels, counts = np.unique(dense, return_counts=True)
                base = int(levels[counts.argmax()])  # the least on a tie
                keys = np.flatnonzero(dense != base)
                values, same = (dense[keys] - base).tolist(), False
            keys = keys.tolist()
            table = dict.fromkeys(keys, values) if same else dict(zip(keys, values))
            offsets = tuple(iter_product(range(h), range(w)))
            self._shapes[h, w] = (table, place, anchor_cells(offsets, cells.shape, True)[2],
                                  base)
        flat = cells.ravel()
        self._keys = list(chain.from_iterable(
            (flat[at] @ place).tolist() for _, place, at, _ in self._shapes.values()))
        terms = [[] for _ in range(side * side)]
        first = 0  # the shape's first occurrence
        for table, place, at, _ in self._shapes.values():
            get = table.get
            for m, column in zip(place.tolist(), at.T.tolist()):
                for o, p in enumerate(column, first):
                    terms[p].append((o, m, get))
            first += len(at)
        self._terms = list(map(tuple, terms))
        self._units = int(self.recompute_energy() * self._denominator)

    @property
    def energy(self) -> Fraction:
        return Fraction(self._units, self._denominator)

    def recompute_energy(self) -> Fraction:
        """Full from-scratch scan of the current cells."""
        flat = self.cells.ravel()
        return Fraction(sum(base * len(at) + sum(map(table.get, (flat[at] @ place).tolist(),
                                                     repeat(0)))
                            for table, place, at, base in self._shapes.values()),
                        self._denominator)


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
    its level in `levels`.  Level ids follow the energies in ascending
    order, so id 0 is the ground level.  A key is found exactly when a dict
    over the configurations would find it: a tuple of side * side entries,
    each hashing and comparing like a code (numpy ints do); any other key
    raises KeyError.  One lookup reads one level; `items()` and `values()`
    walk the level ids once; the level law is `levels` against the bincount
    of `level_ids`, read without a walk.
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
    with `LevelView`s over one level-id array, levels ascending from the
    ground level; any two mappings with the same items compare equal, so a
    table of dicts equals it too."""
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
    d = scratch._denominator
    y = boltzmann_base(beta, d)
    # configuration i spells i in base ntiles, so it sits at index i of an
    # array with one axis of length ntiles per cell; each occurrence adds its
    # shape's dense value table along its cells' axes, ascending.  The
    # smallest unsigned type that holds the largest possible level can never
    # overflow (Python ints past 64 bits)
    top = sum((base + max(0, max(table.values(), default=0))) * len(at)
              for table, _, at, base in scratch._shapes.values())
    dtype = np.min_scalar_type(top)
    if count == 1:  # numpy allows at most 64 axes; the one configuration is the scratch torus
        total = np.array([scratch._units], dtype)
    else:
        total = np.zeros((ntiles,) * ncells, dtype)
        for table, place, at, base in scratch._shapes.values():
            lut = np.full(ntiles ** len(place), base, dtype)
            lut[list(table)] = [base + v for v in table.values()]
            lut = lut.reshape((ntiles,) * len(place))
            for cells in at:
                shape = np.ones(ncells, np.intp)
                shape[cells] = ntiles
                total += lut.transpose(np.argsort(cells)).reshape(shape)
    total = total.reshape(-1)
    # return_counts keeps np.unique off its hash path, which imports numpy.ma
    levels, tally = np.unique(total, return_counts=True)
    level_ids = np.searchsorted(levels, total).astype(np.int32)
    levels = levels.tolist()
    weights = [y ** n for n in levels]
    z = sum(c * w for c, w in zip(tally.tolist(), weights))
    level_ids.flags.writeable = False  # shared by both views
    energies = LevelView(level_ids, tuple(Fraction(n, d) for n in levels), ntiles, ncells)
    probabilities = LevelView(level_ids, tuple(w / z for w in weights), ntiles, ncells)
    return BoltzmannTable(denominator=d, base=y, energies=energies,
                          probabilities=probabilities)


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
    """a * b kept to p bits, rounded down (up = 0) or up (up = 1).

    Each operand holds at least p bits (y's ends are cut to p or more, every
    product back to p), so m has at least 2p - 1 > p bits and extra > 0."""
    m, e = a[0] * b[0], a[1] + b[1]
    extra = m.bit_length() - p
    return -(-m >> extra) if up else m >> extra, e + extra


def _to_float(v: Tuple[int, int]) -> float:
    m, e = v
    # e < 0, as v <= 1 has p bits; int / int is correctly rounded, subnormals included
    return m / (1 << -e)


def torus_coverage(config: TorusConfig, markers: MarkerSet, code) -> Fraction:
    """Fraction of torus cells inside some marker occurrence (wrap-aware),
    the markers read in the config's tile codes `code`, `tileset.index`."""
    covered = markers.covered(config.cells, code, wrap=True)
    return Fraction(int(covered.sum()), config.side ** 2)


@dataclass
class MetropolisResult:
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

    def observe(step):
        cov = (float(torus_coverage(config, markers, tileset.index))
               if markers is not None else None)
        trace.append((step, config.energy, cov))

    trace: List[tuple] = []
    samples: List[tuple] = []
    observe(0)
    # the chain runs on a flat code list, the occurrence keys and its energy
    # units; config.cells and config._units catch up at each observation
    codes = config.cells.ravel().tolist()
    flat = config.cells.reshape(-1)
    keys, terms, units = config._keys, config._terms, config._units
    accepted = 0
    done = 0
    while done < steps:
        block = min(steps - done, 1 << 14)
        xs = rng.integers(0, side, size=block)
        sites = (rng.integers(0, side, size=block) * side + xs).tolist()
        ts = rng.integers(0, ntiles, size=block).tolist()
        us = rng.random(size=block).tolist()
        moves = zip(sites, ts, us)
        end = done + block
        while done < end:
            # one segment runs up to the next observation or sample step
            stop = end
            for every in (cadence, sample_cadence):
                if every:
                    stop = min(stop, done - done % every + every)
            for p, t, u in islice(moves, stop - done):
                old = codes[p]
                if t == old:  # nothing moves: a zero rise, always accepted
                    accepted += 1
                    continue
                shift, delta, here = t - old, 0, terms[p]
                for o, m, get in here:
                    key = keys[o]
                    delta += get(key + shift * m, 0) - get(key, 0)
                if delta > 0:
                    if delta not in accept:
                        accept[delta] = power_float(y, delta)
                    if u >= accept[delta]:
                        continue
                codes[p] = t
                for o, m, _ in here:
                    keys[o] += shift * m
                units += delta
                accepted += 1
            done = stop
            if cadence and done % cadence == 0:
                flat[:], config._units = codes, units
                observe(done)
            if sample_cadence and done % sample_cadence == 0:
                samples.append(tuple(codes))
    flat[:], config._units = codes, units
    if not cadence or steps % cadence != 0:
        observe(steps)
    return MetropolisResult(steps=steps, accepted=accepted, trace=trace,
                            samples=samples, config=config)


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
        try:
            energy = float(energy)
        except OverflowError:
            raise InputError(f"the energy at step {step} is past the float "
                             "range of the trace CSV") from None
        cov_text = "" if cov is None else repr(cov)
        lines.append(f"{step},{energy!r},{cov_text}")
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
