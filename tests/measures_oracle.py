"""Fraction reference forms of the word-measure kernels.

`groundlab.measures` holds a measure as integer numerators over one
denominator and runs marginals, mixtures, the weak-* distance and the
conditional recursion on those integers.  The classes and functions here
are the forms they replaced, one `Fraction` per word; a marginal is a block
sum and the weak-* distance builds every marginal as a measure of its own.
tests/test_measures.py checks the integer kernels against them.
"""

from dataclasses import dataclass
from fractions import Fraction

from groundlab.measures import _check_depth, index_word, word_index
from groundlab.tiles import InputError


class WordMeasure:
    """Probability vector over words of a fixed depth, one Fraction each."""

    def __init__(self, depth, weights):
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

    def weight(self, word):
        if len(word) != self.depth:
            raise InputError("word depth mismatch")
        return self.weights[word_index(word)]

    def marginal(self, depth):
        return marginal(self, depth)

    def as_dict(self):
        return {index_word(i, self.depth): w
                for i, w in enumerate(self.weights) if w != 0}

    def __eq__(self, other):
        return (isinstance(other, WordMeasure)
                and self.depth == other.depth
                and self.weights == other.weights)

    def __hash__(self):
        return hash((self.depth, self.weights))


def is_dyadic(q):
    d = Fraction(q).denominator
    return d & (d - 1) == 0


class DyadicMeasure(WordMeasure):
    """Word measure whose weights all have power-of-two denominators."""

    def __init__(self, depth, weights):
        super().__init__(depth, weights)
        for w in self.weights:
            if not is_dyadic(w):
                raise InputError(f"non-dyadic weight {w}")


def marginal(measure, depth):
    """Project onto the first `depth` letters by exact block sums."""
    if depth == measure.depth:
        return measure
    if not (1 <= depth < measure.depth):
        raise InputError("marginal depth out of range")
    block, weights = 2 ** (measure.depth - depth), measure.weights
    ws = [sum(weights[i * block:(i + 1) * block], Fraction(0))
          for i in range(2 ** depth)]
    return WordMeasure(depth, ws)


def mix(parts):
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
    for c, (_, m) in zip(coeffs, parts):
        for i, w in enumerate(marginal(m, depth).weights):
            ws[i] += c * w
    return WordMeasure(depth, ws)


def weak_star_distance(mu, nu, max_depth=None):
    """Sum over depths l of 2^-l times the sup difference of depth-l marginals."""
    L = min(mu.depth, nu.depth)
    if max_depth is not None:
        L = min(L, max_depth)
    if L < 1:
        raise InputError("no common depth")
    total = Fraction(0)
    for l in range(1, L + 1):
        a = marginal(mu, l)
        b = marginal(nu, l)
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

    def blocked_mass(self):
        return sum(self.raw, Fraction(0))

    def renormalized(self):
        mass = self.blocked_mass()
        if mass == 0:
            raise InputError("no blocked mass to renormalize")
        return WordMeasure(self.depth, [w / mass for w in self.raw])


def conditional_rows(flow, depth, schedule, kmax, j_start=None):
    """Every row k in j0..kmax of the forward recursion, one Fraction per word."""
    j0 = max(depth, j_start if j_start is not None else depth)
    raw = [Fraction(0)] * (2 ** depth)
    residual = Fraction(1)
    for j in range(j0, kmax + 1):
        c = Fraction(1, 4 * schedule.t(j))
        m = flow(j)
        if m.depth < depth:
            raise InputError(f"flow at scale {j} has depth {m.depth} < {depth}")
        keep = 1 - c
        raw = [r * keep + c * w for r, w in zip(raw, marginal(m, depth).weights)]
        residual *= keep
        yield ConditionalGridMeasure(depth, tuple(raw), residual, j)
