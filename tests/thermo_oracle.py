"""Materialised cardinality bounds: every log-count endpoint written out as an
exact Fraction, up to 2^(4*3^14).

`thermo.cardinality_bounds` holds each endpoint as a dyadic m * 2^e and
`thermo.entropy_criterion` reads its logarithm from the exponent; the tests
check their endpoints and verdicts against these straight-line versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from groundlab.logdomain import LogInterval, log2_of_fraction, log2_pow2_minus
from groundlab.thermo import pair_seed_shift, scale_index, window_area_log2
from groundlab.tiles import InputError

_Q = Union[int, Fraction]

# exponents 4*3^k are materialized as exact integers; past this scale the
# supporting bigints pass 20M bits and the caller must be told, not given
# saturated garbage
PRECISION_MAX_K = 14


@dataclass(frozen=True)
class CardinalityBound:
    """Bounds on log2 of the marker counts at one scale.

    log2_QH encloses log2 of the number of hot markers, log2_QB the blocking
    ones; log2_area is the log2 area of the scale-k window.  Bounds are exact
    Fractions, so the interval endpoints can be compared exactly.
    """

    k: int
    seed_mode: str
    log2_QH: LogInterval
    log2_QB: LogInterval
    log2_area: LogInterval


def cardinality_bounds(k: int, seed_mode: str = "single") -> CardinalityBound:
    """Enclose log2 of the scale-k marker counts.

    Hot markers: 4^(-k) * 16^(3^k) <= log2 count <= 16^(3^k), both ends exact.
    Blocking markers: 3/4 of the hot exponent; in pair-seed mode each blocking
    marker additionally carries one of k+1 selector words, adding log2(k+1).
    """
    if seed_mode not in ("single", "pair"):
        raise InputError(f"unknown seed mode {seed_mode!r}")
    if k < 0:
        raise InputError("cardinality bounds need k >= 0")
    if k > PRECISION_MAX_K:
        raise InputError(
            f"exponent 4*3^{k} exceeds the supported precision range "
            f"(k <= {PRECISION_MAX_K})")
    hi = Fraction(1 << (4 * 3 ** k))
    qh = LogInterval(hi / 4 ** k, hi)
    qb = qh.scale(Fraction(3, 4))
    if seed_mode == "pair":
        qb = qb + pair_seed_shift(k)
    return CardinalityBound(k=k, seed_mode=seed_mode, log2_QH=qh,
                            log2_QB=qb, log2_area=window_area_log2(k))


def entropy_criterion(k: int, bounds: Mapping[int, CardinalityBound],
                      kappa: _Q) -> str:
    """Check h(k+2) >= (1 - kappa) * h(k) for per-side entropies h.

    Returns "pass" or "fail" when the interval bounds decide the inequality,
    "indeterminate" when they straddle it.
    """
    kappa = Fraction(kappa)
    if not 0 <= kappa <= 1:
        raise InputError("kappa must lie in [0, 1]")
    try:
        b0, b2 = bounds[k], bounds[k + 2]
    except KeyError:
        raise InputError(f"entropy criterion needs bounds at {k} and {k + 2}")
    if kappa == 1:
        return "pass"
    q = 1 - kappa
    s0, s2 = scale_index(b0.k), scale_index(b2.k)
    side0, side2 = log2_pow2_minus(s0, 1), log2_pow2_minus(s2, 1)
    log_q = log2_of_fraction(q)
    t_lo = log2_of_fraction(b2.log2_QH.lo) - side2
    t_hi = log2_of_fraction(b2.log2_QH.hi) - side2
    f_lo = log2_of_fraction(b0.log2_QH.lo) - side0
    f_hi = log2_of_fraction(b0.log2_QH.hi) - side0
    if t_lo.lo >= (log_q + f_hi).hi:
        return "pass"
    if t_hi.hi < (log_q + f_lo).lo:
        return "fail"

    # log enclosures straddle the inequality: settle it exactly.  Cross
    # multiplication only (bigint division would be quadratic).
    def h_ge(a: Fraction, b: Fraction) -> bool:
        # a / (2^s2 - 1) >= q * b / (2^s0 - 1)
        lhs = a.numerator * ((1 << s0) - 1) * q.denominator * b.denominator
        rhs = q.numerator * b.numerator * a.denominator * ((1 << s2) - 1)
        return lhs >= rhs

    if h_ge(b2.log2_QH.lo, b0.log2_QH.hi):
        return "pass"
    if not h_ge(b2.log2_QH.hi, b0.log2_QH.lo):
        return "fail"
    return "indeterminate"
