"""Dyadic measure sequences, connectification, finite accumulation views.

Computability here means: a total deterministic program producing, for each
index, a measure whose weights are dyadic rationals.  Dyadic measures are
dense among word measures and closed under the convex interpolation used by
connectify, so everything stays exact.

A finite-horizon accumulation view is an epsilon-net of a tail segment; it
approximates the true accumulation set, which is a limit object no finite
computation pins down.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Sequence

from .measures import WordMeasure, _check_depth, greedy_net
from .tiles import InputError


def is_dyadic(q: Fraction) -> bool:
    d = Fraction(q).denominator
    return d & (d - 1) == 0


class DyadicMeasure(WordMeasure):
    """Word measure whose weights all have power-of-two denominators: its
    denominator, in lowest terms, is a power of two."""

    __slots__ = ()

    def _keep(self, depth, nums, den):
        super()._keep(depth, nums, den)
        if self.den & (self.den - 1):
            w = next(w for w in self.weights if not is_dyadic(w))
            raise InputError(f"non-dyadic weight {w}")


def bernoulli(p, depth: int = 1) -> DyadicMeasure:
    """Product measure with per-letter chance p of 'd'; p must be dyadic."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InputError("p must lie in [0, 1]")
    d, u = p.numerator, p.denominator - p.numerator
    nums = [d ** i.bit_count() * u ** (depth - i.bit_count())
            for i in range(2 ** _check_depth(depth))]
    return DyadicMeasure.from_nums(depth, nums, p.denominator ** depth)


@dataclass
class ComputableSequence:
    """Total deterministic index -> dyadic measure, fixed declared depth."""

    generator: Callable[[int], DyadicMeasure]
    depth: int
    _cache: dict = field(default_factory=dict, repr=False)

    def term(self, n: int) -> DyadicMeasure:
        if n < 0:
            raise InputError("sequence index must be >= 0")
        if n not in self._cache:
            m = self.generator(n)
            if m.depth != self.depth:
                raise InputError(f"term {n} has depth {m.depth}, "
                                 f"declared {self.depth}")
            self._cache[n] = m
        return self._cache[n]


def constant_sequence(m: DyadicMeasure) -> ComputableSequence:
    return ComputableSequence(lambda n: m, m.depth)


def alternating_sequence(a: DyadicMeasure, b: DyadicMeasure) -> ComputableSequence:
    if a.depth != b.depth:
        raise InputError("alternating terms need equal depth")
    return ComputableSequence(lambda n: a if n % 2 == 0 else b, a.depth)


def sweep_fraction(n: int) -> Fraction:
    """Breadth-first dyadic enumeration: 0, 1/2, 1/4, 3/4, 1/8, 3/8, ..."""
    if n == 0:
        return Fraction(0)
    v = n.bit_length()
    r = n - (1 << (v - 1))
    return Fraction(2 * r + 1, 1 << v)


def dyadic_sweep(depth: int = 1) -> ComputableSequence:
    """Sequence dense in the Bernoulli segment between the two point masses."""
    return ComputableSequence(lambda n: bernoulli(sweep_fraction(n), depth), depth)


# ---------------------------------------------------------- connectify ----

def _block_size(n: int) -> int:
    # power of two >= n + 1, so interpolation coefficients stay dyadic and
    # block n is wide enough for the 1/floor(sqrt(m)) envelope
    return 1 << (n + 1).bit_length()


def _locate(m: int) -> tuple:
    # walk blocks: output index m -> (original index n, step s within block)
    n = 0
    while m >= _block_size(n):
        m -= _block_size(n)
        n += 1
    return n, m


def connectify(seq: ComputableSequence) -> ComputableSequence:
    """Insert convex interpolation so consecutive distances vanish.

    Block n holds _block_size(n) steps from term n toward term n + 1; every
    original term appears verbatim at the block boundaries, so the original
    tail embeds in the output tail and the accumulation set gains only the
    connecting segments.
    """
    def gen(m: int) -> DyadicMeasure:
        n, s = _locate(m)
        if s == 0:
            return seq.term(n)
        a, b = seq.term(n), seq.term(n + 1)
        size, den = _block_size(n), math.lcm(a.den, b.den)
        fa, fb = (size - s) * (den // a.den), s * (den // b.den)
        return DyadicMeasure.from_nums(
            seq.depth, [fa * x + fb * y for x, y in zip(a.nums, b.nums)], size * den)

    return ComputableSequence(gen, seq.depth)


# ------------------------------------------------- finite accumulation ----

@dataclass
class AccumulationSet:
    start: int
    stop: int
    resolution: Fraction
    representatives: List[WordMeasure]
    indices: List[int]
    hausdorff: Fraction

    @property
    def verdict(self) -> str:
        """"stable" when one representative covers the tail, else "oscillating"."""
        return "stable" if len(self.representatives) == 1 else "oscillating"

    def to_json(self) -> str:
        doc = {
            "start": self.start,
            "stop": self.stop,
            "resolution": [self.resolution.numerator,
                           self.resolution.denominator],
            "hausdorff": [self.hausdorff.numerator,
                          self.hausdorff.denominator],
            "representatives": [
                {w: [v.numerator, v.denominator]
                 for w, v in sorted(r.as_dict().items())}
                for r in self.representatives],
            "indices": list(self.indices),
        }
        return json.dumps(doc, indent=1)


def finite_accumulation(seq: ComputableSequence, N: int,
                        resolution) -> AccumulationSet:
    """Epsilon-net of the tail {term(n) : ceil(N/2) <= n <= N}."""
    if N < 1:
        raise InputError("horizon N must be >= 1")
    return tail_net(seq.term, range((N + 1) // 2, N + 1), resolution)


def tail_net(term: Callable[[int], WordMeasure], indices: Sequence[int],
             resolution) -> AccumulationSet:
    """Greedy epsilon-net of the tail {term(n) : n in indices}."""
    resolution = Fraction(resolution)
    if resolution <= 0:
        raise InputError("resolution must be > 0")
    points = [term(n) for n in indices]
    reps, worst = greedy_net(points, resolution)
    return AccumulationSet(indices[0], indices[-1], resolution,
                           [points[i] for i in reps],
                           [indices[i] for i in reps], worst)


# ----------------------------------------------------------- built-ins ----

def named_sequence(name: str, depth: int = 1) -> ComputableSequence:
    """Built-in sequences addressable by name (for config files and tests)."""
    du = bernoulli(0, depth)
    dd = bernoulli(1, depth)
    table = {
        "constant-u": lambda: constant_sequence(du),
        "constant-d": lambda: constant_sequence(dd),
        "uniform": lambda: constant_sequence(bernoulli(Fraction(1, 2), depth)),
        "alternating": lambda: alternating_sequence(du, dd),
        "sweep": lambda: dyadic_sweep(depth),
    }
    if name not in table:
        raise InputError(f"unknown sequence {name!r}; "
                         f"choices: {sorted(table)}")
    return table[name]()

