"""Closed form of the conditional grid measure, the reference for its recursion.

Row k of a conditional flow that starts at scale j0 = max(depth, j_start) is

    raw(k)      = sum_{j=j0..k} (1/(4 t_j)) * prod_{i=j+1..k} (1 - 1/(4 t_i)) * flow(j)
    residual(k) = prod_{i=j0..k} (1 - 1/(4 t_i))

with flow(j) projected onto its first `depth` letters.  Every weight is
recomputed from scratch for every row, so nothing is shared with the
library's forward pass.
"""

from fractions import Fraction


def closed_form_row(flow, depth, k, schedule, j_start=None):
    """(raw, residual) of row k; (zeros, 1) when k < j0."""
    j0 = max(depth, j_start if j_start is not None else depth)

    def survival(lo):
        prod = Fraction(1)
        for i in range(lo, k + 1):
            prod *= 1 - Fraction(1, 4 * schedule.t(i))
        return prod

    raw = [Fraction(0)] * (2 ** depth)
    for j in range(j0, k + 1):
        weight = Fraction(1, 4 * schedule.t(j)) * survival(j + 1)
        for idx, w in enumerate(flow(j).marginal(depth).weights):
            raw[idx] += weight * w
    return tuple(raw), survival(j0)
