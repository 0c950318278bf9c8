"""Marker cardinality growth, entropy criteria, and temperature windows.

The marker counts at scale k have exponents like 16^(3^k), so the numbers
themselves are untouchable.  Their base-2 logarithms are exact dyadics
m * 2^e, held by exponent, and each entropy verdict is an exact integer
comparison of those dyadics against the window sides 2^(n(k)) - 1, read off
bit lengths and exponents.  Temperature windows and overlaps live in the
log domain as LogInterval enclosures.  Every pass/fail verdict is thus a
rigorous statement about the exact values, never about floats.

Scale k uses squares of side l(k) = 2^(n(k)) - 1 with n(k) = 2*3^k + 1, the
hierarchy level at which a fresh macro-tile row appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Mapping, Optional, Tuple, Union

from .layers import OdometerSchedule, default_schedule
from .logdomain import (Dyadic, LogInterval, log2_of_fraction, log2_of_int,
                        log2_pow2_minus)
from .tiles import InputError

_Q = Union[int, Fraction]

# largest scale whose bounds are given.  Only exponents such as 4*3^k are
# formed (about 1 000 bits at this cap), never 2^(4*3^k).  The cap comes from
# thermo_csv: table row j reads these bounds at j + 2, and its log2 beta_hi,
# about 17*3^j, is a finite float up to j = 643 and overflows at j = 644.
PRECISION_MAX_K = 645


def scale_index(k: int) -> int:
    """Hierarchy level n(k) = 2*3^k + 1 whose side hosts the scale-k markers."""
    if k < 0:
        raise InputError("scale index needs k >= 0")
    return 2 * 3 ** k + 1


def window_side_log2(k: int) -> LogInterval:
    """log2 of the side l(k) = 2^(n(k)) - 1."""
    return log2_pow2_minus(scale_index(k), 1)


@dataclass(frozen=True)
class CardinalityBound:
    """Bounds on log2 of the number of hot markers at one scale.

    log2 of the count lies in [log2_QH[0], log2_QH[1]].  Endpoints are exact
    dyadics, so they compare exactly without ever being written out.
    """

    k: int
    log2_QH: Tuple[Dyadic, Dyadic]


def cardinality_bounds(k: int) -> CardinalityBound:
    """Enclose log2 of the scale-k hot-marker count by exact dyadics.

    4^(-k) * 16^(3^k) <= log2 count <= 16^(3^k), that is 2^(e - 2k) to 2^e
    with e = 4*3^k.  Only the exponents are formed, never the powers of two.
    """
    if k < 0:
        raise InputError("cardinality bounds need k >= 0")
    if k > PRECISION_MAX_K:
        raise InputError(
            f"exponent 4*3^{k} exceeds the supported precision range "
            f"(k <= {PRECISION_MAX_K})")
    e = 4 * 3 ** k
    return CardinalityBound(k, (Dyadic(1, e - 2 * k), Dyadic(1, e)))


def kappa_for(k: int, schedule: Optional[OdometerSchedule] = None,
              c: _Q = 1) -> Fraction:
    """Non-hot density budget c / t_k for the odometer schedule."""
    sched = schedule if schedule is not None else default_schedule()
    return Fraction(c) / sched.t(k)


def entropy_criterion(k: int, bounds: Mapping[int, CardinalityBound],
                      kappa: _Q) -> str:
    """Check h(k+2) >= (1 - kappa) * h(k) for per-side entropies h.

    Each side is compared exactly, from the bounds' dyadic endpoints and the
    window sides 2^(n(k)) - 1.  Returns "pass" or "fail" when the bounds
    decide the inequality, "indeterminate" when they straddle it.
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

    def h_ge(a: Dyadic, b: Dyadic) -> bool:
        # a / (2^s2 - 1) >= q * b / (2^s0 - 1), that is lhs >= rhs with
        # lhs = x * (2^s0 - 1) * 2^a.e and rhs = y * (2^s2 - 1) * 2^b.e
        x = a.m.numerator * b.m.denominator * q.denominator
        y = q.numerator * b.m.numerator * a.m.denominator
        # n * (2^s - 1) * 2^e lies in [2^(len(n) + s + e - 2), 2^(len(n) + s + e))
        gap = (x.bit_length() + s0 + a.e) - (y.bit_length() + s2 + b.e)
        if gap >= 2:
            return True
        if gap <= -2:
            return False
        # within two bits: cross multiplication (bigint division would be
        # quadratic)
        lhs = (x * ((1 << s0) - 1)) << max(a.e - b.e, 0)
        rhs = (y * ((1 << s2) - 1)) << max(b.e - a.e, 0)
        return lhs >= rhs

    # log2 counts at scale k + 2 (t) and at scale k (f)
    (t_lo, t_hi), (f_lo, f_hi) = b2.log2_QH, b0.log2_QH
    if h_ge(t_lo, f_hi):
        return "pass"
    if not h_ge(t_hi, f_lo):
        return "fail"
    return "indeterminate"


def thermo_table(k_min: int, k_max: int, C: _Q = 1, C_prime: _Q = 1,
                 r: int = 2, c: _Q = 1,
                 schedule: Optional[OdometerSchedule] = None) -> List[dict]:
    """Per-scale summary rows, the one view of the window ladder: row k holds
    the scale-k window as `log2_beta_lo` and `log2_beta_hi`, its overlap
    with the next window as `overlap_log_ratio` = log2(beta_hi(k)) -
    log2(beta_lo(k+1)) (positive means they overlap), and the entropy
    verdict.

    With eps(k) = l(k)^(-1/2):
      beta_lo = (C / eps) * area(k)
      beta_hi = C' * eps * area(k+2) / boundary(k+2, r)
    where boundary(N, r) = |I_N| - |I_(N-2r)| = 4r(N - r) is the mass a range-r
    interaction can place near the rim of the side-N square.  The logs of C,
    C' and 4r are formed once, the side log of each scale once."""
    # row k reads the cardinality bounds at k + 2, which stop at
    # PRECISION_MAX_K: past that row the CSV's log2 beta_hi would overflow
    if k_max > PRECISION_MAX_K - 2:
        raise InputError(f"kmax must be <= {PRECISION_MAX_K - 2}")
    if k_min < 0 or k_max < k_min:
        raise InputError("need 0 <= k_min <= k_max")
    C, Cp = Fraction(C), Fraction(C_prime)
    if C <= 0 or Cp <= 0:
        raise InputError("constants C, C' must be positive")
    if not isinstance(r, int) or r < 1:
        raise InputError("interaction range r must be an integer >= 1")
    # side at scale k+2 is 2^n - 1, so side - r = 2^n - (1 + r), whose log
    # bound needs 1 + r < 2^(n - 1); n grows with k, so k_min decides
    n2 = scale_index(k_min + 2)
    if (1 + r).bit_length() > n2 - 1:
        raise InputError(f"interaction range r must be <= 2^{n2 - 1} - 2 "
                         f"at scale {k_min}")
    log_C, log_Cp, log_4r = (log2_of_fraction(C), log2_of_fraction(Cp),
                             log2_of_int(4 * r))
    bounds = {k: cardinality_bounds(k) for k in range(k_min, k_max + 3)}
    sides = [window_side_log2(j) for j in range(k_min, k_max + 3)]
    # area(k) / eps = l(k)^(5/2), for scales k_min..k_max + 1
    beta_lo = [log_C + side.scale(Fraction(5, 2)) for side in sides[:-1]]
    rows = []
    for i, k in enumerate(range(k_min, k_max + 1)):
        # eps * area(k+2) = l(k)^(-1/2) l(k+2)^2
        boundary = log_4r + log2_pow2_minus(scale_index(k + 2), 1 + r)
        beta_hi = log_Cp + sides[i].scale(Fraction(-1, 2)) \
            + sides[i + 2].scale(2) - boundary
        kappa = kappa_for(k, schedule, c)
        if not 0 <= kappa <= 1:  # named by c, the value the caller set
            raise InputError(f"c = {Fraction(c)} gives kappa = c / t_k = {kappa} "
                             f"at k = {k}, outside [0, 1]")
        rows.append({
            "k": k,
            "log2_beta_lo": beta_lo[i],
            "log2_beta_hi": beta_hi,
            "overlap_log_ratio": beta_hi - beta_lo[i + 1],
            "entropy_pass": entropy_criterion(k, bounds, kappa),
        })
    return rows


def thermo_csv(rows: List[dict]) -> str:
    lines = ["k,log2_beta_lo,log2_beta_hi,overlap_log_ratio,entropy_pass"]
    for row in rows:
        lines.append(",".join([
            str(row["k"]),
            repr(row["log2_beta_lo"].midpoint_float()),
            repr(row["log2_beta_hi"].midpoint_float()),
            repr(row["overlap_log_ratio"].midpoint_float()),
            row["entropy_pass"],
        ]))
    return "\n".join(lines) + "\n"
