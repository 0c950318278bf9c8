"""Exact measures on finite words over the two-letter grounding alphabet.

Words use letters 'u' and 'd'.  A WordMeasure of depth l assigns an exact
rational weight to each of the 2^l words, held as integer numerators over one
denominator; marginals, convex mixtures and the weak-* distance run on those
integers.  The conditional grid measure mixes a flow of word measures along
a blocking schedule: at scale j a fresh blocked computation appears with
probability 1/(4 t_j), otherwise the scale passes through, which yields a
forward one-pass recursion and an exact leftover (never-blocked) residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .tiles import InputError

DEPTH_CAP = 16


def word_index(word: str) -> int:
    i = 0
    for ch in word:
        if ch == "u":
            i = 2 * i
        elif ch == "d":
            i = 2 * i + 1
        else:
            raise InputError(f"bad letter {ch!r} in word")
    return i


def index_word(i: int, depth: int) -> str:
    if not (0 <= i < 2 ** depth):
        raise InputError("word index out of range")
    return "".join("d" if (i >> (depth - 1 - j)) & 1 else "u" for j in range(depth))


def _check_depth(depth: int) -> int:
    """depth itself, once it is in 1..DEPTH_CAP; checked before 2^depth
    weights are allocated."""
    if not (1 <= depth <= DEPTH_CAP):
        raise InputError(f"depth must be in 1..{DEPTH_CAP}")
    return depth


def _fold(ws: Sequence, times: int) -> Sequence:
    """Sum adjacent pairs `times` times.  Words 2i and 2i + 1 differ only in
    their last letter, so each fold is the marginal one letter shorter."""
    for _ in range(times):
        ws = [a + b for a, b in zip(ws[::2], ws[1::2])]
    return ws


class WordMeasure:
    """Probability vector over words of a fixed depth: one non-negative
    integer numerator per word in `nums`, over one positive denominator
    `den`, in lowest terms, so `==` and `hash` compare values.  `weights`
    and `as_dict` read them as exact Fractions."""

    __slots__ = ("depth", "den", "nums")

    def __init__(self, depth: int, weights: Sequence[Fraction]):
        _check_depth(depth)
        ws = [Fraction(w) for w in weights]
        if len(ws) != 2 ** depth:
            raise InputError("need one weight per word")
        if any(w < 0 for w in ws):
            raise InputError("negative weight")
        den = math.lcm(*(w.denominator for w in ws))
        self._keep(depth, [w.numerator * (den // w.denominator) for w in ws], den)

    @classmethod
    def from_nums(cls, depth: int, nums: Sequence[int], den: int) -> "WordMeasure":
        """Weight nums[i] / den on word i, from Python ints not necessarily in
        lowest terms."""
        _check_depth(depth)
        if len(nums) != 2 ** depth:
            raise InputError("need one weight per word")
        if min(nums) < 0:
            raise InputError("negative weight")
        m = cls.__new__(cls)
        m._keep(depth, nums, den)
        return m

    def _keep(self, depth: int, nums: Sequence[int], den: int):
        # zeros skipped: each one added to a big running total copies it
        if den < 1 or sum(filter(None, nums)) != den:
            raise InputError("weights must sum to 1 exactly")
        g = math.gcd(*nums)          # divides den too: den is their sum
        self.depth = depth
        self.den = den // g
        self.nums = tuple(nums) if g == 1 else tuple(n // g for n in nums)

    @property
    def weights(self) -> tuple:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @classmethod
    def uniform(cls, depth: int) -> "WordMeasure":
        _check_depth(depth)
        return cls.from_nums(depth, [1] * (2 ** depth), 2 ** depth)

    @classmethod
    def from_dict(cls, depth: int, table: dict) -> "WordMeasure":
        ws = [Fraction(0)] * (2 ** _check_depth(depth))
        for word, w in table.items():
            if len(word) != depth:
                raise InputError("word depth mismatch")
            ws[word_index(word)] += Fraction(w)
        return cls(depth, ws)

    def marginal(self, depth: int) -> "WordMeasure":
        """Project onto the first `depth` letters by pairwise folds."""
        if depth == self.depth:
            return self
        if not (1 <= depth < self.depth):
            raise InputError("marginal depth out of range")
        return WordMeasure.from_nums(depth, _fold(self.nums, self.depth - depth),
                                     self.den)

    def as_dict(self) -> dict:
        return {index_word(i, self.depth): Fraction(n, self.den)
                for i, n in enumerate(self.nums) if n}

    def __eq__(self, other) -> bool:
        return (isinstance(other, WordMeasure)
                and self.depth == other.depth
                and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.depth, self.den, self.nums))

    def __repr__(self):
        body = ", ".join(f"{w}:{v}" for w, v in sorted(self.as_dict().items()))
        return f"WordMeasure({self.depth}, {{{body}}})"


def mix(parts: Iterable[tuple]) -> WordMeasure:
    """Exact convex combination of (coefficient, measure) pairs, over the lcm
    of the parts' denominators."""
    parts = list(parts)
    if not parts:
        raise InputError("empty mixture")
    coeffs = [Fraction(c) for c, _ in parts]
    if any(c < 0 for c in coeffs):
        raise InputError("negative mixture coefficient")
    if sum(coeffs) != 1:
        raise InputError("mixture coefficients must sum to 1")
    depth = min(m.depth for _, m in parts)
    margins = [m.marginal(depth) for _, m in parts]
    den = math.lcm(*(c.denominator * m.den for c, m in zip(coeffs, margins)))
    nums = [0] * (2 ** depth)
    for c, m in zip(coeffs, margins):
        f = c.numerator * (den // (c.denominator * m.den))
        if f:
            nums = [a + f * b for a, b in zip(nums, m.nums)]
    return WordMeasure.from_nums(depth, nums, den)


def weak_star_distance(mu: WordMeasure, nu: WordMeasure) -> Fraction:
    """Sum over depths l of 2^-l times the sup difference of depth-l marginals.

    One integer difference vector, over the lcm of the two denominators, is
    formed at the common depth and folded one level at a time, so no marginal
    measure is built; the sum is one Fraction at the end.
    """
    L = min(mu.depth, nu.depth)
    if L < 1:
        raise InputError("no common depth")
    den = math.lcm(mu.den, nu.den)
    fa, fb = den // mu.den, den // nu.den
    diff = [fa * a - fb * b for a, b in zip(_fold(mu.nums, mu.depth - L),
                                            _fold(nu.nums, nu.depth - L))]
    total = 0
    for l in range(L, 0, -1):        # level l weighs 2^-l = 2^(L-l) / 2^L
        total += max(map(abs, diff)) << (L - l)
        diff = _fold(diff, 1)
    return Fraction(total, den << L)


@dataclass(frozen=True)
class ConditionalGridMeasure:
    """Sub-probability vector of blocked words, as numerators `nums` over one
    denominator `den` in lowest terms, plus the never-blocked residual
    (den - sum(nums)) / den.  `raw` and `residual` read them as Fractions."""
    depth: int
    nums: tuple
    den: int
    k: int

    @property
    def raw(self) -> tuple:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def residual(self) -> Fraction:
        return Fraction(self.den - sum(filter(None, self.nums)), self.den)

    def blocked_mass(self) -> Fraction:
        return Fraction(sum(filter(None, self.nums)), self.den)

    def renormalized(self) -> WordMeasure:
        mass = sum(filter(None, self.nums))
        if mass == 0:
            raise InputError("no blocked mass to renormalize")
        return WordMeasure.from_nums(self.depth, self.nums, mass)


def conditional_rows(flow: Callable[[int], WordMeasure], depth: int, schedule,
                     kmax: int, j_start: Optional[int] = None
                     ) -> Iterator[ConditionalGridMeasure]:
    """Yield the conditional measure of every k in j0..kmax in one forward pass.

    Row k mixes flow(j) over j0 = max(depth, j_start) <= j <= k: scale j carries weight
    (1/(4 t_j)) * prod_{i=j+1..k} (1 - 1/(4 t_i)), and the residual
    prod_{i=j0..k} (1 - 1/(4 t_i)) is the mass never blocked.  flow(j) is
    evaluated exactly once per scale.  Each step multiplies the row by
    (4 t_j - 1) / (4 t_j) and adds flow(j) / (4 t_j) on integer numerators
    over the lcm of the two denominators times 4 t_j.
    """
    j0 = max(depth, j_start if j_start is not None else depth)
    nums, den = [0] * (2 ** depth), 1
    for j in range(j0, kmax + 1):
        q = 4 * schedule.t(j)
        m = flow(j)
        if m.depth < depth:
            raise InputError(f"flow at scale {j} has depth {m.depth} < {depth}")
        m = m.marginal(depth)
        lcm = math.lcm(den, m.den)
        keep, fresh = (q - 1) * (lcm // den), lcm // m.den
        nums = [keep * r + fresh * w for r, w in zip(nums, m.nums)]
        den = q * lcm
        g = math.gcd(den, *nums)
        nums, den = [r // g for r in nums], den // g
        yield ConditionalGridMeasure(depth, tuple(nums), den, j)


def conditional_grid_measure(flow: Callable[[int], WordMeasure], depth: int,
                             k: int, schedule) -> ConditionalGridMeasure:
    """Row k of conditional_rows; the empty measure (residual 1) when k < depth."""
    row = ConditionalGridMeasure(depth, (0,) * (2 ** depth), 1, k)
    for row in conditional_rows(flow, depth, schedule, k):
        pass
    return row


def flow_horizon(flow, target: WordMeasure, depth: int, tol: Fraction,
                 schedule, kmax: int) -> Optional[int]:
    """First k <= kmax whose renormalized conditional is within tol of target."""
    for row in conditional_rows(flow, depth, schedule, kmax):
        if weak_star_distance(row.renormalized(), target) < tol:
            return row.k
    return None


def repetition_flow(base: Callable[[int], WordMeasure]) -> Callable[[int], WordMeasure]:
    """Slow a flow down: scale j >= 1 replays base(floor(log2 j))."""
    def slowed(j: int) -> WordMeasure:
        if j < 1:
            raise InputError("repetition flow needs j >= 1")
        return base(j.bit_length() - 1)
    return slowed


def constant_flow(m: WordMeasure) -> Callable[[int], WordMeasure]:
    return lambda j: m


def greedy_net(points: Sequence, radius: Fraction,
               metric=weak_star_distance) -> tuple:
    """First-wins epsilon-net: (representative indices, largest distance
    from another point to its nearest representative)."""
    reps = []
    worst = Fraction(0)
    for i, p in enumerate(points):
        d = min((metric(points[r], p) for r in reps), default=None)
        if d is None or d > radius:
            reps.append(i)
        else:
            worst = max(worst, d)
    return reps, worst
