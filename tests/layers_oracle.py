"""Straight-line frozen-fraction references: the exact rows are `Fraction`s
stepped one j at a time, the runs of t and the float table evaluate t at
every j, the interval scan steps through every j, and the float CSV formats
every row on its own.

`layers.freq_rows_decimal` holds each exact row as a pair of `Decimal`
integers in lowest terms, `layers.schedule_runs` walks the default and
constant schedules without evaluating t per j, `layers.freq_bounds_scan`
stops each run of t at its first fixed point, `layers.freq_table_float`
reads t by runs and stops its sum where every later row is exactly 1.0, and
`freq --mode float` writes one string per run of equal values;
tests/test_layers.py and tests/test_cli.py check their results and bytes
against these loops.
"""

from fractions import Fraction

import numpy as np

from groundlab.layers import FreqScan, default_schedule


def freq_rows(kmax, schedule):
    """Exact frozen fractions f_0 = 0, f_1, ..., f_kmax of the recursion
    1 - f_{j+1} = (1 - 1/(4 t_j)) (1 - f_j)."""
    yield Fraction(0)
    r = Fraction(1)
    for j in range(kmax):
        d = 4 * schedule.t(j)
        r *= Fraction(d - 1, d)
        yield 1 - r


def schedule_runs(kmax, schedule=None):
    schedule = schedule or default_schedule()
    runs = []
    for j in range(kmax):
        t = schedule.t(j)
        if runs and runs[-1][0] == t:
            runs[-1][2] = j + 1
        else:
            runs.append([t, j, j + 1])
    return list(map(tuple, runs))


def freq_bounds_scan(kmax, schedule=None, scale_bits=96):
    one = 1 << scale_bits
    lo = hi = one
    monotone = True
    bounded = True
    for j in range(kmax):
        if schedule is None:
            t = max(2, (j + 1).bit_length())
        else:
            t = schedule.t(j)
        d = 4 * t
        new_lo = lo * (d - 1) // d
        new_hi = -((-hi * (d - 1)) // d)
        if new_hi > hi:
            monotone = False
        if new_lo < 0:
            bounded = False
        lo, hi = new_lo, new_hi
    return FreqScan(kmax, monotone, bounded,
                    Fraction(one - hi, one), Fraction(one - lo, one))


def freq_table_float(kmax, schedule=None):
    t = np.array([max(2, (j + 1).bit_length()) if schedule is None
                  else schedule.t(j) for j in range(kmax)], dtype=np.float64)
    out = np.empty(kmax + 1, dtype=np.float64)
    out[0] = 0.0
    if kmax:
        out[1:] = 1.0 - np.exp(np.cumsum(np.log1p(-0.25 / t)))
    return out


def freq_float_csv(table):
    lines = ["k,freq"]
    for k, v in enumerate(table):
        lines.append(f"{k},{v!r}")
    return "\n".join(lines) + "\n"
