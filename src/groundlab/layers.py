"""Layered blocking bookkeeping: schedules, frozen mass, interval scans.

Blocking happens only at scales of the form 3^k.  At each such scale a
hierarchical marker either hosts a blocked computation (phase B, one chance in
t_k) or passes through (phase H).  Inside a B marker a quarter of the area is
frozen for good and three quarters keep recursing.  Iterating this gives the
frozen-fraction recursion 1 - f_{k+1} = (1 - 1/(4 t_k)) (1 - f_k), whose exact
and float evaluations both live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact,
                     InvalidOperation, Rounded)
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator, Optional

import numpy as np

from .tiles import InputError


class OdometerSchedule:
    """Per-scale inverse blocking rates t_k >= 2."""

    def __init__(self, t: Callable[[int], int]):
        self._t = t

    def t(self, k: int) -> int:
        v = self._t(k)
        if not isinstance(v, int) or v < 2:
            raise InputError(f"schedule value t({k}) = {v!r} must be an int >= 2")
        return v


_DEFAULT = OdometerSchedule(lambda k: max(2, (k + 1).bit_length()))


def default_schedule() -> OdometerSchedule:
    """t_k = max(2, ceil(log2(k + 2))): slowly growing, always >= 2.

    Always the same instance, so that the kernels below can recognise it and
    walk its runs without evaluating t."""
    return _DEFAULT


class _ConstantSchedule(OdometerSchedule):
    """t_k = c at every k: one run, whose t the kernels below read once."""

    def __init__(self, c: int):
        super().__init__(lambda k: c)


def constant_schedule(c: int) -> OdometerSchedule:
    if c < 2:
        raise InputError("constant schedule needs c >= 2")
    return _ConstantSchedule(c)


# Integer arithmetic on Decimals: at this precision every sum, product and
# integer quotient of the exact rows is exact, and any rounding would raise.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, Rounded, InvalidOperation])


def freq_rows_decimal(kmax: int, schedule: Optional[OdometerSchedule] = None
                      ) -> Iterator[tuple]:
    """Exact frozen fractions f_0 = 0, f_1, ..., f_kmax of the recursion
    1 - f_{j+1} = (1 - 1/(4 t_j)) (1 - f_j), as (numerator, denominator)
    pairs of `Decimal` integers in lowest terms, whose str() is linear in the
    digit count where str() of an int is quadratic.

    The residual 1 - f_j = N / D, gcd(N, D) = 1, steps to N (d - 1) / (D d)
    with d = 4 t_j.  As gcd(d - 1, d) = 1 too, the two products share exactly
    g = gcd(N mod d, d) * gcd(D mod (d - 1), d - 1), and the row is (D - N) / D.
    """
    ctx = _EXACT
    n = den = Decimal(1)
    yield Decimal(0), den
    for t, start, stop in schedule_runs(kmax, schedule):
        d = 4 * t
        dd, dm = Decimal(d), Decimal(d - 1)
        for _ in range(start, stop):
            g = (gcd(int(ctx.remainder(n, dd)), d)
                 * gcd(int(ctx.remainder(den, dm)), d - 1))
            n, den = ctx.multiply(n, dm), ctx.multiply(den, dd)
            if g > 1:
                n, den = ctx.divide_int(n, g), ctx.divide_int(den, g)
            yield ctx.subtract(den, n), den


def freq_frozen(k: int, schedule: OdometerSchedule) -> Fraction:
    """Exact frozen fraction after blocking scales 0..k-1."""
    for num, den in freq_rows_decimal(k, schedule):
        pass
    return Fraction(int(num), int(den))


def schedule_runs(kmax: int, schedule: Optional[OdometerSchedule] = None
                  ) -> Iterator[tuple]:
    """Runs (t, start, stop) of constant t_j covering j = 0..kmax-1 in order.

    The default schedule (None or `default_schedule()`) is walked by its
    bit-length blocks and a `constant_schedule` is one run, whose t(0) is
    checked as any t(j) is; any other schedule is evaluated at every j.
    """
    if isinstance(schedule, _ConstantSchedule):
        if kmax > 0:
            yield schedule.t(0), 0, kmax
        return
    if schedule is None or schedule is _DEFAULT:
        j = 0
        while j < kmax:
            b = (j + 1).bit_length()
            stop = min(kmax, 2 ** b - 1)  # j+1 < 2^b  <=>  j <= 2^b - 2
            yield max(2, b), j, stop
            j = stop
        return
    start, t = 0, None
    for j in range(kmax):
        v = schedule.t(j)
        if v != t:
            if j:
                yield t, start, j
            start, t = j, v
    if kmax > 0:
        yield t, start, kmax


# The float table's rows are summed in blocks of 2^12 rows doubling up to
# 2^16, so that the sum stops soon after an early cut and a table with none
# takes few numpy calls.
_LOG_ROWS = (1 << 12, 1 << 16)


def freq_table_float(kmax: int, schedule: Optional[OdometerSchedule] = None) -> np.ndarray:
    """freq_frozen(k) for k = 0..kmax as float64, worked in place on rows
    1..kmax.  First every row takes its t_j, so a t_j past the float range
    raises wherever it falls.  Then, a block at a time, the rows become the
    terms log1p(-1/(4 t_j)), summed by np.cumsum with the running sum carried
    into the block's first term, which adds in the order of one cumsum over
    all rows; each row then becomes 1 - exp(s).

    The sum stops at its first row with s <= -40 and every later row is 1.0,
    exactly: each term is <= 0, so the sequential float sum never rises; and
    e^-40 < 2^-54 / 13, so 1 - exp(s) rounds to 1.0 for any exp within a few
    ulps.
    """
    try:
        out = np.empty(kmax + 1, dtype=np.float64)
    except ValueError as exc:  # numpy's refusal of a size past its index range
        raise MemoryError(str(exc)) from None
    out[0] = 0.0
    x = out[1:]
    for t, start, stop in schedule_runs(kmax, schedule):
        try:
            x[start:stop] = float(t)
        except OverflowError:
            raise InputError(f"schedule value t({start}) is past the float "
                             "range: use --mode exact") from None
    a, rows, carry = 0, _LOG_ROWS[0], 0.0
    while a < kmax and carry > -40.0:
        s = x[a:a + rows]
        np.divide(-0.25, s, out=s)
        np.log1p(s, out=s)
        s[0] += carry
        np.cumsum(s, out=s)
        carry = s[-1]
        if carry <= -40.0:
            n = int(np.argmax(s <= -40.0)) + 1
            x[a + n:] = 1.0
            s = s[:n]
        np.exp(s, out=s)
        np.subtract(1.0, s, out=s)
        a, rows = a + rows, min(2 * rows, _LOG_ROWS[1])
    return out


def freq_crossing(threshold: Fraction, schedule: OdometerSchedule,
                  kmax: int = 100_000) -> Optional[int]:
    """Smallest k <= kmax with freq_frozen(k) >= threshold, by exact iteration:
    num / den >= p / q is num * q >= p * den in integers.  Every f_k is below
    1 (each residual factor 1 - 1/(4 t_j) is positive): a threshold >= 1 makes no row."""
    threshold = Fraction(threshold)
    if threshold >= 1:
        return None
    p, q = Decimal(threshold.numerator), Decimal(threshold.denominator)
    return next((k for k, (num, den) in enumerate(freq_rows_decimal(kmax, schedule))
                 if _EXACT.multiply(num, q) >= _EXACT.multiply(p, den)), None)


@dataclass
class FreqScan:
    """Rigorous enclosure of the frozen fraction over a whole range of k."""
    kmax: int
    monotone: bool           # lower bounds never decrease (exact integer check)
    bounded: bool            # upper bounds never exceed 1
    final_lo: Fraction
    final_hi: Fraction


_SCALE_BITS = 96  # B, the binary places of the interval scan below


def freq_bounds_scan(kmax: int, schedule: Optional[OdometerSchedule] = None) -> FreqScan:
    """Directed-rounding interval scan of freq_frozen for k = 0..kmax.

    The residual 1 - freq is tracked as an integer interval [lo, hi] / 2^B
    with floor/ceil rounding, so monotonicity and boundedness are exact
    integer comparisons at every step, at any kmax, with no float involved.
    A step is a function of (lo, hi) and d = 4 t alone, so once a step leaves
    (lo, hi) unchanged every later step of the same run of t does too, and
    the scan moves to the next run.
    """
    one = 1 << _SCALE_BITS
    lo = hi = one
    monotone = True
    bounded = True
    for t, start, stop in schedule_runs(kmax, schedule):
        d = 4 * t
        for _ in range(start, stop):
            new_lo = lo * (d - 1) // d
            new_hi = -((-hi * (d - 1)) // d)
            if new_hi > hi:
                monotone = False
            if new_lo < 0:
                bounded = False
            if new_lo == lo and new_hi == hi:
                break
            lo, hi = new_lo, new_hi
    return FreqScan(kmax, monotone, bounded,
                    Fraction(one - hi, one), Fraction(one - lo, one))

