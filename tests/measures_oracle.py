"""Block-sum word-measure marginals and the per-level weak-* distance.

`WordMeasure.marginal` folds adjacent pairs and `weak_star_distance` folds
one difference vector; these are the straight-line forms they replaced,
which build every marginal as a measure of its own.
"""

from fractions import Fraction

from groundlab.measures import WordMeasure
from groundlab.tiles import InputError


def marginal(measure, depth):
    """Project onto the first `depth` letters by exact block sums."""
    if depth == measure.depth:
        return measure
    if not (1 <= depth < measure.depth):
        raise InputError("marginal depth out of range")
    block = 2 ** (measure.depth - depth)
    ws = [sum(measure.weights[i * block:(i + 1) * block], Fraction(0))
          for i in range(2 ** depth)]
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
