"""Layered blocking bookkeeping: schedules, frozen mass, interval scans.

Blocking happens only at scales of the form 3^k.  At each such scale a
hierarchical marker either hosts a blocked computation (phase B, one chance in
t_k) or passes through (phase H).  Inside a B marker a quarter of the area is
frozen for good and three quarters keep recursing.  Iterating this gives the
frozen-fraction recursion 1 - f_{k+1} = (1 - 1/(4 t_k)) (1 - f_k), whose exact
and float evaluations both live here.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
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


def freq_rows(kmax: int, schedule: OdometerSchedule,
              freq0: Fraction = Fraction(0)) -> Iterator[Fraction]:
    """Exact frozen fractions f_0 = freq0, f_1, ..., f_kmax of the recursion
    1 - f_{j+1} = (1 - 1/(4 t_j)) (1 - f_j)."""
    f = Fraction(freq0)
    yield f
    r = 1 - f
    for j in range(kmax):
        d = 4 * schedule.t(j)
        r *= Fraction(d - 1, d)
        yield 1 - r


def freq_frozen(k: int, schedule: OdometerSchedule,
                freq0: Fraction = Fraction(0)) -> Fraction:
    """Exact frozen fraction after blocking scales 0..k-1."""
    for f in freq_rows(k, schedule, freq0):
        pass
    return f


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


def freq_table_float(kmax: int, schedule: Optional[OdometerSchedule] = None) -> np.ndarray:
    """freq_frozen(k) for k = 0..kmax as float64, one cumulative log sum
    worked in place on rows 1..kmax, which first hold t_j."""
    out = np.empty(kmax + 1, dtype=np.float64)
    out[0] = 0.0
    x = out[1:]
    for t, start, stop in schedule_runs(kmax, schedule):
        try:
            x[start:stop] = t
        except OverflowError:
            raise InputError(f"schedule value t({start}) is past the float "
                             "range: use --mode exact") from None
    np.divide(-0.25, x, out=x)
    np.log1p(x, out=x)
    np.cumsum(x, out=x)
    np.exp(x, out=x)
    np.subtract(1.0, x, out=x)
    return out


def freq_crossing(threshold: Fraction, schedule: OdometerSchedule,
                  kmax: int = 100_000) -> Optional[int]:
    """Smallest k <= kmax with freq_frozen(k) >= threshold, by exact iteration."""
    return next((k for k, f in enumerate(freq_rows(kmax, schedule)) if f >= threshold),
                None)


@dataclass
class FreqScan:
    """Rigorous enclosure of the frozen fraction over a whole range of k."""
    kmax: int
    monotone: bool           # lower bounds never decrease (exact integer check)
    bounded: bool            # upper bounds never exceed 1
    final_lo: Fraction
    final_hi: Fraction
    checkpoints: dict        # k -> (freq lower bound, freq upper bound)


def freq_bounds_scan(kmax: int, schedule: Optional[OdometerSchedule] = None,
                     scale_bits: int = 96, checkpoints=()) -> FreqScan:
    """Directed-rounding interval scan of freq_frozen for k = 0..kmax.

    The residual 1 - freq is tracked as an integer interval [lo, hi] / 2^B
    with floor/ceil rounding, so monotonicity and boundedness are exact
    integer comparisons at every step, at any kmax, with no float involved.
    A step is a function of (lo, hi) and d = 4 t alone, so once a step leaves
    (lo, hi) unchanged every later step of the same run of t does too: the
    scan records the checkpoints that run still holds and moves to the next.
    """
    one = 1 << scale_bits
    lo = hi = one
    monotone = True
    bounded = True
    marks = sorted(set(checkpoints))
    cps = set(marks)
    taken = {}

    def record(k):
        taken[k] = (Fraction(one - hi, one), Fraction(one - lo, one))

    if 0 in cps:
        record(0)
    for t, start, stop in schedule_runs(kmax, schedule):
        d = 4 * t
        for j in range(start, stop):
            new_lo = lo * (d - 1) // d
            new_hi = -((-hi * (d - 1)) // d)
            if new_hi > hi:
                monotone = False
            if new_lo < 0:
                bounded = False
            if new_lo == lo and new_hi == hi:
                for k in marks[bisect_right(marks, j):bisect_right(marks, stop)]:
                    record(k)
                break
            lo, hi = new_lo, new_hi
            if (j + 1) in cps:
                record(j + 1)
    return FreqScan(kmax, monotone, bounded,
                    Fraction(one - hi, one), Fraction(one - lo, one), taken)

