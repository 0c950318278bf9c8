import math
from fractions import Fraction

import pytest

from groundlab.layers import constant_schedule
from groundlab.logdomain import LogInterval, log2_of_fraction, log2_of_int
from groundlab.thermo import (CardinalityBound, cardinality_bounds,
                              entropy_criterion, first_overlap_scale,
                              kappa_for, overlap_check,
                              pair_seed_shift, scale_index,
                              temperature_window, thermo_csv, thermo_table,
                              window_area_log2, window_side_log2)
from groundlab.tiles import InputError


def test_scale_index_values():
    assert [scale_index(k) for k in range(4)] == [3, 7, 19, 55]
    with pytest.raises(InputError):
        scale_index(-1)


def test_window_side_and_area():
    assert window_side_log2(0) == log2_of_int(7)
    assert window_area_log2(0) == log2_of_int(7).scale(2)
    # side 2^7 - 1 = 127
    iv = window_side_log2(1)
    assert float(iv.lo) <= math.log2(127) <= float(iv.hi)


def test_cardinality_exponent_k1():
    b = cardinality_bounds(1)
    assert b.log2_QH.hi == 4096
    assert b.log2_QH.lo == 1024


def test_blocking_is_three_quarters():
    for k in range(4):
        b = cardinality_bounds(k)
        assert b.log2_QB.lo == b.log2_QH.lo * Fraction(3, 4)
        assert b.log2_QB.hi == b.log2_QH.hi * Fraction(3, 4)


def test_pair_seed_shift_is_additive():
    for k in [1, 3, 5]:
        single = cardinality_bounds(k, "single")
        pair = cardinality_bounds(k, "pair")
        shift = pair_seed_shift(k)
        assert pair.log2_QB.lo == single.log2_QB.lo + shift.lo
        assert pair.log2_QB.hi == single.log2_QB.hi + shift.hi
        # the hot count is untouched
        assert pair.log2_QH == single.log2_QH
        # additive term <= log2(k+1) + k, checked on exact endpoints
        assert shift.hi <= Fraction(k) + log2_of_int(k + 1).hi


def test_pair_seed_shift_negligible_at_k5():
    shift = pair_seed_shift(5)
    base = cardinality_bounds(5).log2_QH
    assert shift.hi / base.lo < Fraction(1, 10 ** 250)
    assert float(shift.lo) <= math.log2(6) <= float(shift.hi)


def test_cardinality_validation():
    with pytest.raises(InputError):
        cardinality_bounds(1, "triple")
    with pytest.raises(InputError):
        cardinality_bounds(-1)
    with pytest.raises(InputError):
        cardinality_bounds(15)


def test_entropy_criterion_kappa_one_trivially_passes():
    bounds = {1: cardinality_bounds(1), 3: cardinality_bounds(3)}
    assert entropy_criterion(1, bounds, 1) == "pass"


def _flat_bound(k, value):
    return CardinalityBound(k, "single", LogInterval.exact(value),
                            LogInterval.exact(value), window_area_log2(k))


def test_entropy_criterion_equality_passes_at_kappa_zero():
    x = Fraction(7, 3)
    s1 = (1 << scale_index(1)) - 1
    s3 = (1 << scale_index(3)) - 1
    bounds = {1: _flat_bound(1, s1 * x), 3: _flat_bound(3, s3 * x)}
    assert entropy_criterion(1, bounds, 0) == "pass"
    # any drop at the larger scale turns it into a definite fail
    bounds[3] = _flat_bound(3, s3 * x / 2)
    assert entropy_criterion(1, bounds, 0) == "fail"
    # but a kappa generous enough to cover the drop restores the pass
    assert entropy_criterion(1, bounds, Fraction(1, 2)) == "pass"


def test_entropy_criterion_indeterminate_on_straddling_intervals():
    x = Fraction(7, 3)
    s1 = (1 << scale_index(1)) - 1
    s3 = (1 << scale_index(3)) - 1
    wide = CardinalityBound(3, "single",
                            LogInterval(s3 * x / 2, s3 * x * 2),
                            LogInterval.exact(1), window_area_log2(3))
    bounds = {1: _flat_bound(1, s1 * x), 3: wide}
    assert entropy_criterion(1, bounds, 0) == "indeterminate"


def test_entropy_criterion_validation():
    bounds = {1: cardinality_bounds(1)}
    with pytest.raises(InputError):
        entropy_criterion(1, bounds, 0)
    bounds[3] = cardinality_bounds(3)
    with pytest.raises(InputError):
        entropy_criterion(1, bounds, 2)


def test_entropy_table_all_pass_default_schedule():
    bounds = {k: cardinality_bounds(k) for k in range(1, 15)}
    verdicts = [entropy_criterion(k, bounds, kappa_for(k)) for k in range(1, 13)]
    assert verdicts == ["pass"] * 12
    # same verdicts under a constant schedule
    sched = constant_schedule(2)
    assert all(entropy_criterion(k, bounds, kappa_for(k, sched)) == "pass"
               for k in range(1, 13))


def test_temperature_window_k1_values():
    w = temperature_window(1)
    # beta_lo = area * sqrt(side) at scale 1: 2.5 * log2(127)
    assert abs(w.log2_beta_lo.midpoint_float() - 2.5 * math.log2(127)) < 1e-9
    assert w.nonempty()
    assert w.log2_beta_lo.width() < Fraction(1, 1 << 40)


def test_temperature_window_positive_from_the_start():
    for k in range(0, 10):
        assert temperature_window(k).nonempty()


def test_temperature_window_validation():
    with pytest.raises(InputError):
        temperature_window(1, C=0)
    with pytest.raises(InputError):
        temperature_window(1, C_prime=-2)
    with pytest.raises(InputError):
        temperature_window(1, r=0)


def test_scaling_C_shifts_beta_lo_exactly():
    base = temperature_window(3)
    scaled = temperature_window(3, C=10)
    shift = log2_of_fraction(Fraction(10))
    assert scaled.log2_beta_lo.lo - base.log2_beta_lo.lo == shift.lo
    assert scaled.log2_beta_lo.hi - base.log2_beta_lo.hi == shift.hi
    # beta_hi does not move with C
    assert scaled.log2_beta_hi == base.log2_beta_hi


def test_doubling_r_rescales_beta_hi_by_at_most_two():
    for k in [1, 3, 6]:
        w2 = temperature_window(k, r=2)
        w4 = temperature_window(k, r=4)
        drop = w2.log2_beta_hi - w4.log2_beta_hi
        assert Fraction(9, 10) < drop.lo and drop.hi < Fraction(11, 10)
        # beta_lo ignores r entirely
        assert w2.log2_beta_lo == w4.log2_beta_lo


def test_overlap_first_holds_at_k1():
    rows = overlap_check(range(0, 13))
    assert first_overlap_scale(rows) == 1
    assert not rows[0].overlaps()
    assert all(row.overlaps() for row in rows[1:])
    assert abs(rows[1].log2_ratio.midpoint_float() - 1.0056645) < 1e-6


def test_overlap_ratios_strictly_increase():
    rows = overlap_check(range(0, 13))
    for a, b in zip(rows, rows[1:]):
        assert a.log2_ratio.hi < b.log2_ratio.lo
    # growth is geometric: the k-th gap is about 2 * 3^k
    mids = [row.log2_ratio.midpoint_float() for row in rows]
    for k in range(3, 12):
        assert abs((mids[k + 1] - mids[k]) / (4 * 3 ** k) - 1) < 0.01


def test_overlap_constants_shift_not_verdict():
    base = overlap_check(range(1, 8))
    moved = overlap_check(range(1, 8), C=5, C_prime=5)
    shift = log2_of_fraction(Fraction(5))
    for a, b in zip(base, moved):
        # C' raises beta_hi, C raises the next beta_lo: shifts cancel exactly
        assert b.log2_ratio.lo == a.log2_ratio.lo - shift.hi + shift.lo
        assert b.log2_ratio.hi == a.log2_ratio.hi - shift.lo + shift.hi
        assert b.overlaps() == a.overlaps()


def test_overlap_check_validation():
    with pytest.raises(InputError):
        overlap_check([])


def test_displayed_approximation_consistency():
    # beta_lo tracks C * 16^(3^k) / eps up to a small additive log2 constant,
    # beta_hi tracks C' * 4^(3^(k+2)) * eps likewise
    for k in range(1, 8):
        w = temperature_window(k, r=2)
        half_side = window_side_log2(k).scale(Fraction(1, 2))
        lo_simple = 4 * 3 ** k + half_side.midpoint_float()
        hi_simple = 2 * 3 ** (k + 2) - half_side.midpoint_float()
        assert abs(w.log2_beta_lo.midpoint_float() - lo_simple) <= 3
        assert abs(w.log2_beta_hi.midpoint_float() - hi_simple) <= 2 + math.log2(4 * w.r)


def test_thermo_table_and_csv():
    rows = thermo_table(1, 4)
    assert [row["k"] for row in rows] == [1, 2, 3, 4]
    assert all(row["entropy_pass"] == "pass" for row in rows)
    assert all(row["overlap_log_ratio"].lo > 0 for row in rows)
    text = thermo_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "k,log2_beta_lo,log2_beta_hi,overlap_log_ratio,entropy_pass"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1" and first[4] == "pass"
    assert abs(float(first[1]) - 2.5 * math.log2(127)) < 1e-9
    with pytest.raises(InputError):
        thermo_table(3, 1)
