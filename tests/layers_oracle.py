"""Straight-line frozen-fraction references: the interval scan steps through
every j, the float table evaluates t at every j, and the float CSV formats
every row on its own.

`layers.freq_bounds_scan` stops each run of t at its first fixed point,
`layers.freq_table_float` reads t by runs, and `freq --mode float` writes one
string per run of equal values; tests/test_layers.py checks their results and
bytes against these loops.
"""

from fractions import Fraction

import numpy as np

from groundlab.layers import FreqScan


def freq_bounds_scan(kmax, schedule=None, scale_bits=96, checkpoints=()):
    one = 1 << scale_bits
    lo = hi = one
    monotone = True
    bounded = True
    cps = set(checkpoints)
    taken = {}

    def record(k):
        taken[k] = (Fraction(one - hi, one), Fraction(one - lo, one))

    if 0 in cps:
        record(0)
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
        if (j + 1) in cps:
            record(j + 1)
    return FreqScan(kmax, monotone, bounded,
                    Fraction(one - hi, one), Fraction(one - lo, one), taken)


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
