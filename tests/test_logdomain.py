import decimal
import math
import random
from fractions import Fraction

import pytest

from groundlab.logdomain import (LogInterval, log2_of_fraction, log2_of_int,
                                 log2_pow2_minus)
from groundlab.tiles import InputError


def test_interval_validation_and_ops():
    with pytest.raises(InputError):
        LogInterval(Fraction(1), Fraction(0))
    a = LogInterval(Fraction(1), Fraction(2))
    b = LogInterval(Fraction(10), Fraction(11))
    assert (a + b) == LogInterval(Fraction(11), Fraction(13))
    # subtraction crosses the bounds
    assert (b - a) == LogInterval(Fraction(8), Fraction(10))
    assert a.scale(3) == LogInterval(Fraction(3), Fraction(6))
    assert a.scale(-1) == LogInterval(Fraction(-2), Fraction(-1))
    assert a.scale(Fraction(1, 2)) == LogInterval(Fraction(1, 2), Fraction(1))
    assert a.definitely_less(b) and not b.definitely_less(a)
    assert not a.definitely_less(LogInterval(Fraction(2), Fraction(5)))
    e = LogInterval.exact(Fraction(7, 3))
    assert e.lo == e.hi == Fraction(7, 3)


def test_log2_of_int_powers_of_two_exact():
    for t in [0, 1, 5, 64, 1000]:
        iv = log2_of_int(1 << t)
        assert iv.lo == iv.hi == t


def test_log2_of_int_contains_true_value():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2, 1 << rng.randrange(2, 200))
        iv = log2_of_int(n)
        v = math.log2(n)
        assert float(iv.lo) <= v + 1e-9
        assert float(iv.hi) >= v - 1e-9
        assert iv.hi - iv.lo <= Fraction(1, 1 << 40)
    # the squared mantissa interval straddles 2 at the first digit of the
    # first working width
    n = math.isqrt(2 << 400)
    iv = log2_of_int(n)
    assert float(iv.lo) <= math.log2(n) <= float(iv.hi)


@pytest.mark.parametrize("m", [2, 40, 100, 200, 300])
def test_log2_of_int_is_narrow_where_the_mantissa_squares_near_two(m):
    # n = isqrt(2^(2m + 1)) lies just below 2^(m + 1/2): each first digit is
    # undecided at the first working width, which has to grow
    n = math.isqrt(2 << 2 * m)
    iv = log2_of_int(n)
    assert iv.hi - iv.lo <= Fraction(1, 1 << 48)
    with decimal.localcontext(decimal.Context(prec=200)):
        true = decimal.Decimal(n).ln() / decimal.Decimal(2).ln()
        lo, hi = (decimal.Decimal(q.numerator) / q.denominator
                  for q in (iv.lo, iv.hi))
    assert lo <= true <= hi


def test_log2_of_int_orders_nearby_integers():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(2, 1 << 30)
        assert log2_of_int(n).hi < log2_of_int(n + 1).lo


def test_log2_of_int_rejects_nonpositive():
    for n in [0, -3]:
        with pytest.raises(InputError):
            log2_of_int(n)


def test_log2_of_fraction():
    iv = log2_of_fraction(Fraction(1, 3))
    assert float(iv.lo) <= -math.log2(3) <= float(iv.hi)
    assert log2_of_fraction(Fraction(8)) == LogInterval.exact(3)
    assert log2_of_fraction(Fraction(1, 4)) == LogInterval.exact(-2)
    with pytest.raises(InputError):
        log2_of_fraction(Fraction(0))


def test_pow2_minus_small_matches_direct():
    for n, c in [(3, 3), (10, 1), (64, 999)]:
        assert log2_pow2_minus(n, c) == log2_of_int((1 << n) - c)
    assert log2_pow2_minus(50, 0) == LogInterval.exact(50)


def test_pow2_minus_large_brackets_true_value():
    for n, c in [(65, 1), (70, 12345), (100, 7)]:
        capped = log2_pow2_minus(n, c)
        direct = log2_of_int((1 << n) - c)
        assert capped.lo <= direct.hi and direct.lo <= capped.hi
        assert capped.hi == n
    giant = log2_pow2_minus(10 ** 7, 1)
    assert giant.hi == 10 ** 7 and giant.hi - giant.lo == Fraction(2, 1 << 120)


def test_pow2_minus_rejects_large_subtrahend():
    with pytest.raises(InputError):
        log2_pow2_minus(5, 16)
    with pytest.raises(InputError):
        log2_pow2_minus(100, 1 << 99)
    # just inside the allowed range is fine
    assert log2_pow2_minus(5, 15) == log2_of_int(17)
