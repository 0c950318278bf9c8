import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermo_oracle as oracle
import groundlab.thermo as thermo
from groundlab.layers import constant_schedule, default_schedule
from groundlab.logdomain import Dyadic, LogInterval, log2_of_fraction, log2_of_int
from groundlab.thermo import (PRECISION_MAX_K, CardinalityBound,
                              cardinality_bounds, entropy_criterion,
                              kappa_for, scale_index, thermo_csv, thermo_table,
                              window_side_log2)
from groundlab.tiles import InputError


def test_scale_index_values():
    assert [scale_index(k) for k in range(4)] == [3, 7, 19, 55]
    with pytest.raises(InputError):
        scale_index(-1)


def test_window_side_and_area():
    assert window_side_log2(0) == log2_of_int(7)
    # with C = 1, beta_lo = area / eps = l^2 * l^(1/2) for the side l = 7
    assert _window(0)["log2_beta_lo"] == log2_of_int(7).scale(Fraction(5, 2))
    # side 2^7 - 1 = 127
    iv = window_side_log2(1)
    assert float(iv.lo) <= math.log2(127) <= float(iv.hi)


def _window(k, **constants):
    """The scale-k row of the window ladder."""
    return thermo_table(k, k, **constants)[0]


def _ratios(k_min, k_max, **constants):
    """The overlap log-ratios of rows k_min..k_max."""
    return [row["overlap_log_ratio"]
            for row in thermo_table(k_min, k_max, **constants)]


def _value(d):
    """The Fraction m * 2^e a Dyadic stands for, written out."""
    return d.m * Fraction(2) ** d.e


def _log2_QH(b):
    """The hot log-count enclosure with its endpoints written out."""
    return LogInterval(_value(b.log2_QH[0]), _value(b.log2_QH[1]))


def test_cardinality_exponent_k1():
    b = cardinality_bounds(1)
    assert b.log2_QH == (Dyadic(1, 10), Dyadic(1, 12))
    assert _log2_QH(b) == LogInterval(1024, 4096)


def test_cardinality_validation():
    with pytest.raises(InputError):
        cardinality_bounds(-1)
    # the cap is set by the float columns of the thermo CSV, not by the
    # bounds: the exponent 4*3^645 has about 1 000 bits
    assert cardinality_bounds(645).log2_QH[1] == Dyadic(1, 4 * 3 ** 645)
    with pytest.raises(InputError):
        cardinality_bounds(646)


_oracle_bounds = lru_cache(maxsize=None)(oracle.cardinality_bounds)


def test_cardinality_endpoints_match_materialised_oracle():
    for k in range(15):
        want = _oracle_bounds(k)
        got = cardinality_bounds(k)
        assert (got.k, _log2_QH(got)) == (want.k, want.log2_QH)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_entropy_verdicts_match_oracle_on_real_bounds(data):
    # the oracle stops at scale 14, and row k reads scale k + 2
    k = data.draw(st.integers(0, 12), "k")
    sched = data.draw(st.sampled_from(
        [default_schedule()] + [constant_schedule(c) for c in (2, 3, 7)]),
        "schedule")
    # kappa = c / t_k anywhere in [0, 1]
    den = data.draw(st.integers(1, 10 ** 6), "den")
    c = Fraction(data.draw(st.integers(0, den * sched.t(k)), "num"), den)
    kappa = kappa_for(k, sched, c)
    bounds = {j: cardinality_bounds(j) for j in (k, k + 2)}
    want = {j: _oracle_bounds(j) for j in (k, k + 2)}
    assert entropy_criterion(k, bounds, kappa) == oracle.entropy_criterion(
        k, want, kappa)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_entropy_verdicts_match_oracle_on_synthetic_bounds(data):
    k = data.draw(st.integers(0, 3), "k")
    s0, s2 = scale_index(k), scale_index(k + 2)
    small = st.fractions(Fraction(1, 50), 50, max_denominator=50)
    m0, e0 = data.draw(small, "m0"), data.draw(st.integers(-60, 60), "e0")
    if data.draw(st.booleans(), "near"):
        # an entropy at scale k + 2 equal to the one at scale k up to a factor
        # near 1, so that ties and near misses reach the exact comparison
        factor = data.draw(st.sampled_from(
            [1, Fraction(1, 2), Fraction(999, 1000), Fraction(1001, 1000),
             1 - Fraction(1, 2 ** 30), 1 + Fraction(1, 2 ** 30),
             1 - Fraction(1, 2 ** 70), 1 + Fraction(1, 2 ** 70)]), "factor")
        m2, e2 = m0 * Fraction((1 << s2) - 1, (1 << s0) - 1) * factor, e0
    else:
        m2, e2 = data.draw(small, "m2"), data.draw(st.integers(-60, 60), "e2")
    new, old = {}, {}
    for j, m, e in ((k, m0, e0), (k + 2, m2, e2)):
        qh = (Dyadic(m, e), Dyadic(m, e + data.draw(st.integers(0, 3), "width")))
        new[j] = CardinalityBound(j, qh)
        old[j] = oracle.CardinalityBound(
            j, LogInterval(_value(qh[0]), _value(qh[1])))
    kappa = data.draw(st.one_of(
        st.sampled_from([Fraction(0), Fraction(1, 1000), Fraction(1, 2),
                         Fraction(1)]),
        st.fractions(0, 1, max_denominator=10 ** 6)), "kappa")
    assert entropy_criterion(k, new, kappa) == oracle.entropy_criterion(
        k, old, kappa)


def test_entropy_criterion_kappa_one_trivially_passes():
    bounds = {1: cardinality_bounds(1), 3: cardinality_bounds(3)}
    assert entropy_criterion(1, bounds, 1) == "pass"


def _flat_bound(k, value):
    d = Dyadic(value, 0)
    return CardinalityBound(k, (d, d))


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


@pytest.mark.parametrize("k", [0, 1])
def test_entropy_criterion_settles_near_ties_exactly(k):
    # entropies equal up to a factor 1 +- 2^-70: the log enclosures straddle,
    # and the exact comparison's two sides are within a bit of each other
    s0, s2 = scale_index(k), scale_index(k + 2)
    verdicts = []
    for m0 in {Fraction(i, j) for i in range(1, 11) for j in range(1, 11)}:
        for factor in (1 - Fraction(1, 2 ** 70), 1, 1 + Fraction(1, 2 ** 70)):
            m2 = m0 * Fraction((1 << s2) - 1, (1 << s0) - 1) * factor
            bounds = {k: _flat_bound(k, m0), k + 2: _flat_bound(k + 2, m2)}
            want = {j: oracle.CardinalityBound(j, LogInterval.exact(v))
                    for j, v in ((k, m0), (k + 2, m2))}
            verdicts.append(entropy_criterion(k, bounds, 0))
            assert verdicts[-1] == oracle.entropy_criterion(k, want, 0)
    assert set(verdicts) == {"pass", "fail"}


def test_entropy_verdicts_need_no_log_enclosure(monkeypatch):
    # real rows up to the float cap, and an exact near tie either side
    cases = [(k, {j: cardinality_bounds(j) for j in (k, k + 2)}, kappa_for(k),
              "pass") for k in (1, 300, 641)]
    s1, s3 = (1 << scale_index(1)) - 1, (1 << scale_index(3)) - 1
    for factor, want in ((1 - Fraction(1, 2 ** 70), "fail"),
                         (1 + Fraction(1, 2 ** 70), "pass")):
        cases.append((1, {1: _flat_bound(1, Fraction(7, 3)),
                          3: _flat_bound(3, Fraction(7, 3) * s3 / s1 * factor)},
                      0, want))

    def refuse(*args):
        raise AssertionError("entropy verdicts read no log enclosure")

    for name in ("window_side_log2", "log2_of_fraction", "log2_of_int",
                 "log2_pow2_minus"):
        monkeypatch.setattr(thermo, name, refuse)
    for k, bounds, kappa, want in cases:
        assert entropy_criterion(k, bounds, kappa) == want


def test_entropy_criterion_indeterminate_on_straddling_intervals():
    x = Fraction(7, 3)
    s1 = (1 << scale_index(1)) - 1
    s3 = (1 << scale_index(3)) - 1
    wide = CardinalityBound(3, (Dyadic(s3 * x, -1), Dyadic(s3 * x, 1)))
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
    row = _window(1)
    lo, hi = row["log2_beta_lo"], row["log2_beta_hi"]
    # beta_lo = area * sqrt(side) at scale 1: 2.5 * log2(127)
    assert abs(lo.midpoint_float() - 2.5 * math.log2(127)) < 1e-9
    assert lo.definitely_less(hi)
    assert lo.hi - lo.lo < Fraction(1, 1 << 40)


def test_temperature_window_positive_from_the_start():
    for row in thermo_table(0, 9):
        assert row["log2_beta_lo"].definitely_less(row["log2_beta_hi"])


def test_temperature_window_validation():
    with pytest.raises(InputError):
        thermo_table(1, 1, C=0)
    with pytest.raises(InputError):
        thermo_table(1, 1, C_prime=-2)
    with pytest.raises(InputError):
        thermo_table(1, 1, r=0)
    # the rim term log2(2^55 - 1 - r) of scale 3 is bounded for r < 2^54 - 1
    thermo_table(1, 1, r=2 ** 54 - 2)
    with pytest.raises(InputError, match=r"range r must be <= 2\^54 - 2 at scale 1"):
        thermo_table(1, 1, r=2 ** 54 - 1)


_KMAX, _KRANGE = r"^kmax must be <= 643$", r"^need 0 <= k_min <= k_max$"
_CONSTANTS, _RANGE = r"^constants C, C' must be positive$", r"integer >= 1$"


@pytest.mark.parametrize("args, kwargs, message", [
    ((1, 644), dict(C=0), _KMAX),
    ((-1, 644), dict(r=0), _KMAX),
    ((3, 1), dict(C=0), _KRANGE),
    ((-1, 1), dict(C_prime=-1, r=0), _KRANGE),
    ((1, 1), dict(C=0, r=0), _CONSTANTS),
    ((1, 1), dict(C_prime=-2, r=2 ** 54 - 1), _CONSTANTS),
    ((1, 1), dict(r=0), _RANGE),
    ((0, 1), dict(r=2 ** 54 - 1), r"<= 2\^18 - 2 at scale 0$"),
])
def test_thermo_table_validation_order(args, kwargs, message):
    # several inputs bad at once: the first check in the order kmax cap,
    # scale range, constants, range r, rim bound names the error
    with pytest.raises(InputError, match=message):
        thermo_table(*args, **kwargs)


def test_scaling_C_shifts_beta_lo_exactly():
    base = _window(3)
    scaled = _window(3, C=10)
    shift = log2_of_fraction(Fraction(10))
    assert scaled["log2_beta_lo"].lo - base["log2_beta_lo"].lo == shift.lo
    assert scaled["log2_beta_lo"].hi - base["log2_beta_lo"].hi == shift.hi
    # beta_hi does not move with C
    assert scaled["log2_beta_hi"] == base["log2_beta_hi"]


def test_doubling_r_rescales_beta_hi_by_at_most_two():
    for k in [1, 3, 6]:
        w2 = _window(k, r=2)
        w4 = _window(k, r=4)
        drop = w2["log2_beta_hi"] - w4["log2_beta_hi"]
        assert Fraction(9, 10) < drop.lo and drop.hi < Fraction(11, 10)
        # beta_lo ignores r entirely
        assert w2["log2_beta_lo"] == w4["log2_beta_lo"]


def test_overlap_first_holds_at_k1():
    ratios = _ratios(0, 12)
    assert ratios[0].lo <= 0
    assert all(ratio.lo > 0 for ratio in ratios[1:])
    assert abs(ratios[1].midpoint_float() - 1.0056645) < 1e-6


def test_overlap_ratios_strictly_increase():
    ratios = _ratios(0, 12)
    for a, b in zip(ratios, ratios[1:]):
        assert a.hi < b.lo
    # growth is geometric: the k-th gap is about 2 * 3^k
    mids = [ratio.midpoint_float() for ratio in ratios]
    for k in range(3, 12):
        assert abs((mids[k + 1] - mids[k]) / (4 * 3 ** k) - 1) < 0.01


def test_overlap_constants_shift_not_verdict():
    base = _ratios(1, 7)
    moved = _ratios(1, 7, C=5, C_prime=5)
    shift = log2_of_fraction(Fraction(5))
    for a, b in zip(base, moved):
        # C' raises beta_hi, C raises the next beta_lo: shifts cancel exactly
        assert b.lo == a.lo - shift.hi + shift.lo
        assert b.hi == a.hi - shift.lo + shift.hi
        assert (b.lo > 0) == (a.lo > 0)


def test_displayed_approximation_consistency():
    # beta_lo tracks C * 16^(3^k) / eps up to a small additive log2 constant,
    # beta_hi tracks C' * 4^(3^(k+2)) * eps likewise
    r = 2
    for row in thermo_table(1, 7, r=r):
        half_side = window_side_log2(row["k"]).scale(Fraction(1, 2))
        lo_simple = 4 * 3 ** row["k"] + half_side.midpoint_float()
        hi_simple = 2 * 3 ** (row["k"] + 2) - half_side.midpoint_float()
        assert abs(row["log2_beta_lo"].midpoint_float() - lo_simple) <= 3
        assert abs(row["log2_beta_hi"].midpoint_float() - hi_simple) <= 2 + math.log2(4 * r)


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


def test_thermo_rows_reach_the_float_cap():
    # row 643 reads the bounds at scale 645; its log2 beta_hi is ~1.05e308
    rows = thermo_table(643, 643)
    assert rows[0]["entropy_pass"] == "pass"
    cells = thermo_csv(rows).splitlines()[1].split(",")
    assert all(math.isfinite(float(v)) for v in cells[1:4])
    # refused in the terms the CLI prints, not with the bound's exponent
    with pytest.raises(InputError, match=r"^kmax must be <= 643$"):
        thermo_table(644, 644)


_POSITIVE = st.builds(Fraction, st.integers(1, 10 ** 30), st.integers(1, 10 ** 30))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_windows_and_ratios_match_the_per_scale_oracle(data):
    top = PRECISION_MAX_K - 2
    k = data.draw(st.one_of(st.integers(0, 30), st.integers(top - 7, top)), "k")
    span = data.draw(st.integers(0, min(3, top - k)), "span")
    C, Cp = data.draw(_POSITIVE, "C"), data.draw(_POSITIVE, "C'")
    # r reaches its limit 2^(n(k+2) - 1) - 2 only where that is writable
    n2 = scale_index(k + 2)
    limit = 2 ** (n2 - 1) - 2 if n2 < 200 else 2 ** 200
    r = data.draw(st.one_of(st.integers(1, 64), st.integers(1, limit),
                            st.just(limit)), "r")
    ks = range(k, k + span + 1)
    want = {j: oracle.temperature_window(j, C, Cp, r)
            for j in range(k, k + span + 2)}
    ratios = {j: want[j].log2_beta_hi - want[j + 1].log2_beta_lo for j in ks}
    rows = thermo_table(k, ks[-1], C, Cp, r)
    assert [(row["k"], row["log2_beta_lo"], row["log2_beta_hi"],
             row["overlap_log_ratio"]) for row in rows] == [
        (j, want[j].log2_beta_lo, want[j].log2_beta_hi, ratios[j])
        for j in ks]
