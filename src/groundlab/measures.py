"""Exact measures on finite words over the two-letter grounding alphabet.

Words use letters 'u' and 'd'.  A WordMeasure of depth l assigns an exact
rational weight to each of the 2^l words; marginals, convex mixtures and the
weak-* distance are all computed in exact arithmetic.  The conditional grid
measure mixes a flow of word measures along a blocking schedule: at scale j a
fresh blocked computation appears with probability 1/(4 t_j), otherwise the
scale passes through, which yields a forward one-pass recursion and an exact
leftover (never-blocked) residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .tiles import InputError

ALPHABET = ("u", "d")
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


def all_words(depth: int):
    return (index_word(i, depth) for i in range(2 ** depth))


class WordMeasure:
    """Probability vector over words of a fixed depth, exact rationals."""

    def __init__(self, depth: int, weights: Sequence[Fraction]):
        _check_depth(depth)
        ws = tuple(Fraction(w) for w in weights)
        if len(ws) != 2 ** depth:
            raise InputError("need one weight per word")
        if any(w < 0 for w in ws):
            raise InputError("negative weight")
        if sum(ws) != 1:
            raise InputError("weights must sum to 1 exactly")
        self.depth = depth
        self.weights = ws

    @classmethod
    def point_mass(cls, word: str) -> "WordMeasure":
        depth = _check_depth(len(word))
        ws = [Fraction(0)] * (2 ** depth)
        ws[word_index(word)] = Fraction(1)
        return cls(depth, ws)

    @classmethod
    def uniform(cls, depth: int) -> "WordMeasure":
        _check_depth(depth)
        return cls(depth, [Fraction(1, 2 ** depth)] * (2 ** depth))

    @classmethod
    def from_dict(cls, depth: int, table: dict) -> "WordMeasure":
        ws = [Fraction(0)] * (2 ** _check_depth(depth))
        for word, w in table.items():
            if len(word) != depth:
                raise InputError("word depth mismatch")
            ws[word_index(word)] += Fraction(w)
        return cls(depth, ws)

    def weight(self, word: str) -> Fraction:
        if len(word) != self.depth:
            raise InputError("word depth mismatch")
        return self.weights[word_index(word)]

    def marginal(self, depth: int) -> "WordMeasure":
        """Project onto the first `depth` letters by exact block sums."""
        if depth == self.depth:
            return self
        if not (1 <= depth < self.depth):
            raise InputError("marginal depth out of range")
        block = 2 ** (self.depth - depth)
        ws = [sum(self.weights[i * block:(i + 1) * block], Fraction(0))
              for i in range(2 ** depth)]
        return WordMeasure(depth, ws)

    def as_dict(self) -> dict:
        return {index_word(i, self.depth): w
                for i, w in enumerate(self.weights) if w != 0}

    def __eq__(self, other) -> bool:
        return (isinstance(other, WordMeasure)
                and self.depth == other.depth
                and self.weights == other.weights)

    def __hash__(self):
        return hash((self.depth, self.weights))

    def __repr__(self):
        body = ", ".join(f"{w}:{v}" for w, v in sorted(self.as_dict().items()))
        return f"WordMeasure({self.depth}, {{{body}}})"


def mix(parts: Iterable[tuple]) -> WordMeasure:
    """Exact convex combination of (coefficient, measure) pairs."""
    parts = list(parts)
    if not parts:
        raise InputError("empty mixture")
    coeffs = [Fraction(c) for c, _ in parts]
    if any(c < 0 for c in coeffs):
        raise InputError("negative mixture coefficient")
    if sum(coeffs) != 1:
        raise InputError("mixture coefficients must sum to 1")
    depth = min(m.depth for _, m in parts)
    ws = [Fraction(0)] * (2 ** depth)
    for c, m in parts:
        mm = m.marginal(depth)
        for i, w in enumerate(mm.weights):
            ws[i] += c * w
    return WordMeasure(depth, ws)


def weak_star_distance(mu: WordMeasure, nu: WordMeasure,
                       max_depth: Optional[int] = None) -> Fraction:
    """Sum over depths l of 2^-l times the sup difference of depth-l marginals."""
    L = min(mu.depth, nu.depth)
    if max_depth is not None:
        L = min(L, max_depth)
    if L < 1:
        raise InputError("no common depth")
    total = Fraction(0)
    for l in range(1, L + 1):
        a = mu.marginal(l)
        b = nu.marginal(l)
        sup = max(abs(x - y) for x, y in zip(a.weights, b.weights))
        total += Fraction(1, 2 ** l) * sup
    return total


@dataclass
class ConditionalGridMeasure:
    """Sub-probability vector of blocked words plus the never-blocked residual."""
    depth: int
    raw: tuple              # 2^depth Fractions, sums to 1 - residual
    residual: Fraction
    k: int
    j_start: int

    def total(self) -> Fraction:
        return sum(self.raw, Fraction(0)) + self.residual

    def blocked_mass(self) -> Fraction:
        return sum(self.raw, Fraction(0))

    def renormalized(self) -> WordMeasure:
        mass = self.blocked_mass()
        if mass == 0:
            raise InputError("no blocked mass to renormalize")
        return WordMeasure(self.depth, [w / mass for w in self.raw])


def conditional_rows(flow: Callable[[int], WordMeasure], depth: int, schedule,
                     kmax: int, j_start: Optional[int] = None
                     ) -> Iterator[ConditionalGridMeasure]:
    """Yield the conditional measure of every k in j0..kmax in one forward pass.

    Row k mixes flow(j) over j0 <= j <= k: scale j carries weight
    (1/(4 t_j)) * prod_{i=j+1..k} (1 - 1/(4 t_i)), and the residual
    prod_{i=j0..k} (1 - 1/(4 t_i)) is the mass never blocked.  flow(j) is
    evaluated exactly once per scale.
    """
    j0 = max(depth, j_start if j_start is not None else depth)
    raw = [Fraction(0)] * (2 ** depth)
    residual = Fraction(1)
    for j in range(j0, kmax + 1):
        c = Fraction(1, 4 * schedule.t(j))
        m = flow(j)
        if m.depth < depth:
            raise InputError(f"flow at scale {j} has depth {m.depth} < {depth}")
        mw = m.marginal(depth).weights
        keep = 1 - c
        raw = [r * keep + c * w for r, w in zip(raw, mw)]
        residual *= keep
        yield ConditionalGridMeasure(depth, tuple(raw), residual, j, j0)


def conditional_grid_measure(flow: Callable[[int], WordMeasure], depth: int,
                             k: int, schedule,
                             j_start: Optional[int] = None) -> ConditionalGridMeasure:
    """Row k of conditional_rows; the empty measure (residual 1) when k < j0."""
    j0 = max(depth, j_start if j_start is not None else depth)
    row = ConditionalGridMeasure(depth, (Fraction(0),) * (2 ** depth),
                                 Fraction(1), k, j0)
    for row in conditional_rows(flow, depth, schedule, k, j_start):
        pass
    return row


def flow_horizon(flow, target: WordMeasure, depth: int, tol: Fraction,
                 schedule, kmax: int, j_start=None) -> Optional[int]:
    """First k <= kmax whose renormalized conditional is within tol of target."""
    for row in conditional_rows(flow, depth, schedule, kmax, j_start):
        if (row.blocked_mass() > 0
                and weak_star_distance(row.renormalized(), target) < tol):
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
    """First-wins epsilon-net: (representative indices, assignment, max distance)."""
    reps = []
    assignment = []
    worst = Fraction(0)
    for i, p in enumerate(points):
        best = None
        best_d = None
        for r in reps:
            d = metric(points[r], p)
            if best_d is None or d < best_d:
                best, best_d = r, d
        if best is None or best_d > radius:
            reps.append(i)
            assignment.append(i)
        else:
            assignment.append(best)
            worst = max(worst, best_d)
    return reps, assignment, worst
