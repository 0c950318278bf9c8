"""Rigorous base-2 logarithms as exact rational intervals.

Quantities like 16^(3^k) are far too large to hold as numbers, but their
logarithms are exact rationals, and logarithms of awkward integers can be
enclosed in rational intervals as tight as needed.  A LogInterval [lo, hi]
always satisfies lo <= log2(value) <= hi with lo, hi exact Fractions, so
every comparison made through it is a proof, not an approximation.  When
the logarithm is itself huge, like 2^(4*3^k), a Dyadic holds it exactly as
m * 2^e; such values are compared as integers, never through a LogInterval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .tiles import InputError

_Q = Union[int, Fraction]

# denominators in capped bounds never exceed 2^_CAP_BITS
_CAP_BITS = 120
_LOG2_BITS = 48  # binary digits of log2 that log2_of_int extracts


@dataclass(frozen=True)
class LogInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        # endpoints are mostly Fractions already; re-wrapping them is a
        # measurable share of a thermo row
        if type(self.lo) is not Fraction or type(self.hi) is not Fraction:
            object.__setattr__(self, "lo", Fraction(self.lo))
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise InputError(f"inverted interval [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, v: _Q) -> "LogInterval":
        v = Fraction(v)
        return cls(v, v)

    def __add__(self, other: "LogInterval") -> "LogInterval":
        return LogInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "LogInterval") -> "LogInterval":
        return LogInterval(self.lo - other.hi, self.hi - other.lo)

    def scale(self, c: _Q) -> "LogInterval":
        c = Fraction(c)
        if c >= 0:
            return LogInterval(c * self.lo, c * self.hi)
        return LogInterval(c * self.hi, c * self.lo)

    def definitely_less(self, other: "LogInterval") -> bool:
        return self.hi < other.lo

    def midpoint_float(self) -> float:
        return float((self.lo + self.hi) / 2)

    def __repr__(self):
        return f"LogInterval({float(self.lo):.6g}, {float(self.hi):.6g})"


@dataclass(frozen=True)
class Dyadic:
    """The exact positive rational m * 2^e, held as (m, e) so that a huge
    exponent e is never written out as 2^e."""

    m: _Q
    e: int


def log2_of_int(n: int) -> LogInterval:
    """Enclose log2(n), 2^-_LOG2_BITS wide, by extracting binary digits from
    a mantissa interval.

    The mantissa is tracked as a w-bit integer interval with floor/ceil
    rounding through repeated squaring.  When the interval straddles a digit
    boundary, the extraction starts over at twice the width w; log2(n) is
    irrational, so some width decides every digit.
    """
    if n <= 0:
        raise InputError("log2 of a non-positive integer")
    e = n.bit_length() - 1
    if n == 1 << e:
        return LogInterval.exact(e)
    w = _LOG2_BITS + 32
    while True:
        if e <= w:
            a = b = n << (w - e)
        else:
            a = n >> (e - w)
            b = a + 1
        two = 2 << w
        acc = 0
        for _ in range(_LOG2_BITS):
            a = (a * a) >> w
            b = ((b * b) + (1 << w) - 1) >> w
            bit = a >= two
            if bit != (b >= two):
                break
            acc = acc << 1 | bit
            if bit:
                a >>= 1
                b = (b + 1) >> 1
        else:
            return LogInterval(e + Fraction(acc, 1 << _LOG2_BITS),
                               e + Fraction(acc + 1, 1 << _LOG2_BITS))
        w *= 2


def log2_of_fraction(q: Fraction) -> LogInterval:
    q = Fraction(q)
    if q <= 0:
        raise InputError("log2 of a non-positive rational")
    return log2_of_int(q.numerator) - log2_of_int(q.denominator)


def log2_pow2_minus(n: int, c: int) -> LogInterval:
    """Enclose log2(2^n - c); requires c < 2^(n-1) so the bound is valid."""
    if n < 1 or c < 0:
        raise InputError("log2_pow2_minus needs n >= 1, c >= 0")
    if c == 0:
        return LogInterval.exact(n)
    if c.bit_length() > n - 1:
        raise InputError("c too large for the minus bound")
    if n <= 64:
        return log2_of_int((1 << n) - c)
    # for x = c 2^-n <= 1/2: log2(1 - x) >= -2x (chord bound on [0, 1/2])
    slack = Fraction(2 * c, 1 << min(n, _CAP_BITS))
    return LogInterval(n - slack, Fraction(n))
