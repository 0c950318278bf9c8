import collections
import random
import sys
import tracemalloc
from decimal import Decimal, Inexact, InvalidOperation, Rounded
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import layers_oracle as oracle
import groundlab.layers as layers

from groundlab.cli import _BLOCK_ROWS, _float_chunks
from groundlab.layers import (
    _EXACT,
    OdometerSchedule,
    constant_schedule,
    default_schedule,
    freq_bounds_scan,
    freq_crossing,
    freq_frozen,
    freq_rows_decimal,
    freq_table_float,
    schedule_runs,
)
from groundlab.tiles import InputError


def test_default_schedule_values():
    sch = default_schedule()
    assert [sch.t(k) for k in range(10)] == [2, 2, 2, 3, 3, 3, 3, 4, 4, 4]
    assert sch.t(2 ** 20) == 21


def test_schedule_validation():
    with pytest.raises(InputError):
        constant_schedule(1)
    bad = OdometerSchedule(lambda k: 1)
    with pytest.raises(InputError):
        bad.t(0)
    frac = OdometerSchedule(lambda k: 2.5)
    with pytest.raises(InputError):
        frac.t(3)


def test_two_level_tree_expansion():
    # schedule t0=2, t1=3 unrolled by hand: blocked mass freezes a quarter
    sch = OdometerSchedule(lambda k: (2, 3)[k])
    frozen_scale0 = Fraction(1, 2) * Fraction(1, 4)
    unfrozen = 1 - frozen_scale0
    frozen_scale1 = unfrozen * Fraction(1, 3) * Fraction(1, 4)
    assert frozen_scale0 + frozen_scale1 == freq_frozen(2, sch)
    assert freq_frozen(2, sch) == Fraction(19, 96)


def test_freq_first_step_and_product_identity():
    sch = default_schedule()
    assert freq_frozen(0, sch) == 0
    assert freq_frozen(1, sch) == Fraction(1, 8)
    rng = random.Random(11)
    for _ in range(15):
        ts = [rng.randint(2, 7) for _ in range(12)]
        custom = OdometerSchedule(lambda k, ts=ts: ts[k])
        k = rng.randint(1, 12)
        prod = Fraction(1)
        for j in range(k):
            prod *= 1 - Fraction(1, 4 * ts[j])
        assert 1 - freq_frozen(k, custom) == prod


def test_freq_monotone_bounded_exact():
    sch = default_schedule()
    vals = [freq_frozen(k, sch) for k in range(60)]
    for a, b in zip(vals, vals[1:]):
        assert a < b
    assert all(v < 1 for v in vals)


def test_freq_float_table_matches_exact():
    sch = default_schedule()
    tab = freq_table_float(30)
    for k in range(31):
        assert abs(tab[k] - float(freq_frozen(k, sch))) < 1e-12
    custom = constant_schedule(5)
    tab2 = freq_table_float(10, custom)
    for k in range(11):
        assert abs(tab2[k] - float(freq_frozen(k, custom))) < 1e-12


def test_freq_table_float_past_the_float_range_is_input_error():
    # t_j = 10^400 has no float64; exact mode still takes it
    huge = 10 ** 400
    late = OdometerSchedule(lambda k: 3 if k < 7 else huge)
    for schedule, j in ((constant_schedule(huge), 0), (late, 7)):
        with pytest.raises(InputError, match=rf"t\({j}\) .*--mode exact"):
            freq_table_float(10, schedule)
    # rows before the first such j do not read it
    assert np.array_equal(freq_table_float(7, late),
                          oracle.freq_table_float(7, constant_schedule(3)))


def _cut_row(kmax, schedule):
    """The first row k whose log-sum s = sum_{j<k} log1p(-1/(4 t_j)), summed
    as one np.cumsum, is <= -40."""
    t = np.array([schedule.t(j) for j in range(kmax)], dtype=np.float64)
    return int(np.argmax(np.cumsum(np.log1p(-0.25 / t)) <= -40.0)) + 1


@pytest.mark.parametrize("schedule", [default_schedule(), constant_schedule(2)],
                         ids=["default", "const:2"])
def test_float_table_at_its_cut_matches_the_oracle(schedule):
    cut = _cut_row(5000, schedule)
    if schedule is default_schedule():
        assert cut == 1458
    for kmax in (cut - 1, cut, cut + 1, 3 * cut):
        got = freq_table_float(kmax, schedule)
        assert got.tobytes() == oracle.freq_table_float(kmax, schedule).tobytes()
    assert np.all(got[cut:] == 1.0)


@pytest.mark.parametrize("c", [1000, 10 ** 15])
def test_float_table_across_its_blocks_matches_the_oracle(c):
    # t = 1000 reaches the cut near row 160 000, many blocks in; t = 10^15
    # never does.  Blocks start at rows 4 096 * (2^i - 1), then every 2^16.
    schedule = constant_schedule(c)
    for kmax in (4095, 4096, 4097, 12288, 61441, 300_000):
        assert (freq_table_float(kmax, schedule).tobytes()
                == oracle.freq_table_float(kmax, schedule).tobytes())


def test_float_table_reads_every_t_after_its_cut():
    # t = 2 reaches the cut near row 300; the first t past the float range
    # comes far after it, and still names its j
    late = OdometerSchedule(lambda k: 2 if k < 5000 else 10 ** 400)
    assert _cut_row(5000, late) < 5000
    assert np.array_equal(freq_table_float(5000, late),
                          oracle.freq_table_float(5000, constant_schedule(2)))
    with pytest.raises(InputError, match=r"t\(5000\) .*--mode exact"):
        freq_table_float(5001, late)


# t = 9 and t = 10 give d - 1 = 35 and 39, which share factors 5 and 3 with
# the denominators that earlier steps built
CYCLE_2_10 = OdometerSchedule(lambda j: 2 + j % 9)


@pytest.mark.parametrize("schedule,kmax", [
    (default_schedule(), 300), (constant_schedule(2), 300),
    (constant_schedule(3), 300), (constant_schedule(10 ** 30), 300),
    (CYCLE_2_10, 300),
    # the Fraction text of this schedule takes ~55 s to kmax 300: str(int)
    # is quadratic, and row 300 has 240 000 digits
    (constant_schedule(10 ** 400), 40),
], ids=["default", "const:2", "const:3", "const:10**30", "cycle-2-10",
        "const:10**400"])
def test_decimal_rows_match_fraction_rows_at_every_kmax(schedule, kmax):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = [f"{f.numerator}/{f.denominator}"
                for f in oracle.freq_rows(kmax, schedule)]
    finally:
        sys.set_int_max_str_digits(limit)
    full = list(freq_rows_decimal(kmax, schedule))
    assert [f"{n}/{d}" for n, d in full] == want
    # every shorter kmax: the same values, and the same text in its last row
    for k in range(kmax):
        rows = list(freq_rows_decimal(k, schedule))
        assert rows == full[:k + 1]
        assert "%s/%s" % rows[-1] == want[k]


def test_decimal_rows_context_traps_rounding():
    assert all(_EXACT.traps[s] for s in (Inexact, Rounded, InvalidOperation))
    with pytest.raises(Inexact):
        _EXACT.to_integral_exact(Decimal("2.5"))


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_freq_table_float_peak_is_its_output():
    # numpy reports its buffers to tracemalloc; rows 1..kmax are the scratch
    kmax = 10 ** 6
    assert _traced_peak(lambda: freq_table_float(kmax)) <= 8 * (kmax + 1) + 2 ** 20


def test_float_writer_peak_is_one_block():
    # one block's buffer at a time: at most _BLOCK_ROWS lines of
    # "k,np.float64(1.0)" with keys below 10^7
    table = freq_table_float(10 ** 6)
    block = _BLOCK_ROWS * len(b"1234567,np.float64(1.0)\n")
    assert _traced_peak(lambda: collections.deque(_float_chunks(table), maxlen=0)
                        ) <= block + 2 ** 20


def test_freq_bounds_scan_contains_exact():
    for k in (1, 95, 500, 2000):
        scan = freq_bounds_scan(k)
        assert scan == oracle.freq_bounds_scan(k)
        assert scan.monotone and scan.bounded
        assert scan.final_lo <= freq_frozen(k, default_schedule()) <= scan.final_hi
        assert scan.final_hi - scan.final_lo < Fraction(1, 2 ** 64)


# A schedule that steps down: a state fixed under d = 160 moves again under
# d = 8, so a fixed point holds only to the end of its run of t.
STEP_DOWN = OdometerSchedule(lambda j: 40 if j < 700 else 2)
CYCLE = OdometerSchedule(lambda j: 2 + j % 3)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_freq_bounds_scan_matches_stepwise_oracle(data):
    kmax = data.draw(st.integers(0, 5000), "kmax")
    schedule = data.draw(st.one_of(
        st.sampled_from([None, default_schedule(), CYCLE, STEP_DOWN]),
        st.integers(2, 50).map(constant_schedule)), "schedule")
    # small widths reach their fixed point within a few dozen steps, so most
    # of the range is skipped and a random shorter scan ends inside it
    bits = data.draw(st.sampled_from([4, 8, 16, 64, 96]), "scale_bits")
    with mock.patch.object(layers, "_SCALE_BITS", bits):
        for k in [kmax, *data.draw(st.lists(st.integers(0, kmax), max_size=3), "shorter")]:
            assert freq_bounds_scan(k, schedule) == oracle.freq_bounds_scan(k, schedule, bits)


def test_custom_schedule_named_default_keeps_its_values():
    seven = OdometerSchedule(lambda k: 7)
    tab = freq_table_float(40, seven)
    assert np.array_equal(tab, oracle.freq_table_float(40, seven))
    assert abs(tab[1] - 1 / 28) < 1e-15
    for k in (1, 40):
        assert freq_bounds_scan(k, seven) == oracle.freq_bounds_scan(k, seven)
    assert default_schedule() is default_schedule()


@pytest.mark.parametrize("kmax", [0, 1, 2, 3, 7, 8, 100, 2000])
@pytest.mark.parametrize("schedule", [
    None, default_schedule(), constant_schedule(2), constant_schedule(3),
    constant_schedule(10 ** 400), OdometerSchedule(lambda k: 7), CYCLE, STEP_DOWN])
def test_schedule_runs_match_per_j_walk(kmax, schedule):
    runs = list(schedule_runs(kmax, schedule))
    want = oracle.schedule_runs(kmax, schedule)
    if schedule in (None, default_schedule()):
        # cut at bit-length blocks, so t = 2 comes in two runs: compare per j
        assert ([(j, t) for t, start, stop in runs for j in range(start, stop)]
                == [(j, t) for t, start, stop in want for j in range(start, stop)])
    else:
        assert runs == want


@pytest.mark.parametrize("c", [2.5, np.int64(3), Fraction(5, 2), 3.0])
def test_constant_schedule_checks_its_value_as_t_does(c):
    schedule = constant_schedule(c)
    assert list(schedule_runs(0, schedule)) == []
    with pytest.raises(InputError) as got:
        list(schedule_runs(5, schedule))
    with pytest.raises(InputError) as want:
        oracle.schedule_runs(5, schedule)
    assert str(got.value) == str(want.value) == f"schedule value t(0) = {c!r} must be an int >= 2"
    for low in (1, 0, -3, True):
        with pytest.raises(InputError):
            constant_schedule(low)


def test_constant_float_table_is_bit_identical_to_the_per_j_walk():
    kmax = 10 ** 6
    per_j = OdometerSchedule(lambda k: 3)  # evaluated at every j
    assert (freq_table_float(kmax, constant_schedule(3)).tobytes()
            == freq_table_float(kmax, per_j).tobytes())


def test_freq_crossing_golden():
    sch = default_schedule()
    assert freq_crossing(Fraction(99, 100), sch) == 95
    assert freq_crossing(Fraction(0), sch) == 0
    assert freq_crossing(Fraction(1), sch, kmax=50) is None


def test_freq_crossing_past_one_makes_no_row(monkeypatch):
    # every f_k is below 1, so a threshold >= 1 is answered without making
    # a row: the rows up to the default kmax take ~30 s
    def no_rows(*args):
        raise AssertionError("freq_rows_decimal was called")

    monkeypatch.setattr(layers, "freq_rows_decimal", no_rows)
    for threshold in (1, Fraction(3, 2)):
        assert freq_crossing(threshold, default_schedule()) is None
        assert freq_crossing(threshold, constant_schedule(3), kmax=10) is None


@pytest.mark.parametrize("schedule", [
    default_schedule(), constant_schedule(3), constant_schedule(10 ** 30),
    CYCLE_2_10,
], ids=["default", "const:3", "const:10**30", "cycle-2-10"])
def test_freq_crossing_matches_the_fraction_rows(schedule):
    kmax = 40
    rows = list(oracle.freq_rows(kmax, schedule))
    # each row itself (the >= edge), the points just below and above it,
    # and thresholds no row reaches: past the last row, at 1 and above
    thresholds = [Fraction(-1), Fraction(1), Fraction(3, 2)]
    for f in rows:
        eps = Fraction(1, 2 * f.denominator ** 2)
        thresholds += [f - eps, f, f + eps]
    for threshold in thresholds:
        want = next((k for k, f in enumerate(rows) if f >= threshold), None)
        assert freq_crossing(threshold, schedule, kmax) == want, threshold
    assert freq_crossing(rows[-1], schedule, kmax - 1) is None
