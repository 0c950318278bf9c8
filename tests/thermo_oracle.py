"""Straight-line references for the thermo module.

Materialised cardinality bounds write every log-count endpoint out as an
exact Fraction, up to 2^(4*3^14).  `thermo.cardinality_bounds` holds each
endpoint as a dyadic m * 2^e and `thermo.entropy_criterion` compares those
dyadics exactly, by bit lengths and exponents, where the version here
prefilters with log enclosures; the tests check their endpoints and
verdicts against these versions.  `temperature_window` here builds one
window from scratch, every log formed anew, and the tests check the windows
and overlap ratios of `thermo.thermo_table`'s rows, built in one pass over
the ladder of scales, against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from groundlab.logdomain import (LogInterval, log2_of_fraction, log2_of_int,
                                 log2_pow2_minus)
from groundlab.thermo import scale_index, window_side_log2
from groundlab.tiles import InputError

_Q = Union[int, Fraction]

# exponents 4*3^k are materialized as exact integers; past this scale the
# supporting bigints pass 20M bits and the caller must be told, not given
# saturated garbage
PRECISION_MAX_K = 14


@dataclass(frozen=True)
class TemperatureWindow:
    """log2 beta_lo and log2 beta_hi of the scale-k window."""

    k: int
    log2_beta_lo: LogInterval
    log2_beta_hi: LogInterval


@dataclass(frozen=True)
class CardinalityBound:
    """Bounds on log2 of the number of hot markers at one scale.

    log2_QH encloses the log count.  Bounds are exact Fractions, so the
    interval endpoints can be compared exactly.
    """

    k: int
    log2_QH: LogInterval


def cardinality_bounds(k: int) -> CardinalityBound:
    """Enclose log2 of the scale-k hot-marker count.

    4^(-k) * 16^(3^k) <= log2 count <= 16^(3^k), both ends exact.
    """
    if k < 0:
        raise InputError("cardinality bounds need k >= 0")
    if k > PRECISION_MAX_K:
        raise InputError(
            f"exponent 4*3^{k} exceeds the supported precision range "
            f"(k <= {PRECISION_MAX_K})")
    hi = Fraction(1 << (4 * 3 ** k))
    return CardinalityBound(k, LogInterval(hi / 4 ** k, hi))


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


def temperature_window(k: int, C: _Q = 1, C_prime: _Q = 1,
                       r: int = 2) -> TemperatureWindow:
    """Inverse-temperature window for the scale-k marker set.

    With eps(k) = l(k)^(-1/2):
      beta_lo = (C / eps) * area(k)
      beta_hi = C' * eps * area(k+2) / boundary(k+2, r)
    where boundary(N, r) = |I_N| - |I_(N-2r)| = 4r(N - r) is the mass a range-r
    interaction can place near the rim of the side-N square.
    """
    C, Cp = Fraction(C), Fraction(C_prime)
    if C <= 0 or Cp <= 0:
        raise InputError("constants C, C' must be positive")
    if not isinstance(r, int) or r < 1:
        raise InputError("interaction range r must be an integer >= 1")
    log_eps = window_side_log2(k).scale(Fraction(-1, 2))
    beta_lo = log2_of_fraction(C) - log_eps + window_side_log2(k).scale(2)
    # side at scale k+2 is 2^n - 1, so side - r = 2^n - (1 + r), whose log
    # bound needs 1 + r < 2^(n - 1)
    n2 = scale_index(k + 2)
    if (1 + r).bit_length() > n2 - 1:
        raise InputError(f"interaction range r must be <= 2^{n2 - 1} - 2 "
                         f"at scale {k}")
    boundary = LogInterval.exact(2) + log2_of_int(r) \
        + log2_pow2_minus(n2, 1 + r)
    beta_hi = log2_of_fraction(Cp) + log_eps \
        + window_side_log2(k + 2).scale(2) - boundary
    return TemperatureWindow(k, beta_lo, beta_hi)
