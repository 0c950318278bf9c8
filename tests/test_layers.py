import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import layers_oracle as oracle

from groundlab.layers import (
    FROZEN_SHARE,
    RECURSE_SHARE,
    OdometerSchedule,
    PhasedMarker,
    blockable,
    constant_schedule,
    decompose,
    default_schedule,
    freq_bounds_scan,
    freq_crossing,
    freq_frozen,
    freq_table_float,
    gamma_pullback,
    gamma_pushforward,
    gamma_word,
)
from groundlab.measures import WordMeasure
from groundlab.tiles import InputError


def test_blockable():
    assert blockable(1) == (True, 0)
    assert blockable(3) == (True, 1)
    assert blockable(9) == (True, 2)
    assert blockable(27) == (True, 3)
    for n in (2, 4, 6, 12, 18, 30):
        assert blockable(n) == (False, None)
    with pytest.raises(InputError):
        blockable(0)


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


def test_decompose_profile():
    sch = constant_schedule(2)
    marker = PhasedMarker(k=0, phase="H")
    prof = decompose(marker, sch)
    assert prof == {"B": Fraction(1, 2), "H": Fraction(1, 2)}
    assert sum(prof.values()) == 1
    with pytest.raises(InputError):
        decompose(PhasedMarker(k=0, phase="F"), sch)
    rng = random.Random(3)
    for _ in range(20):
        t = rng.randint(2, 9)
        prof = decompose(PhasedMarker(k=rng.randint(0, 5), phase="H"),
                         constant_schedule(t))
        assert sum(prof.values()) == 1
        assert prof["B"] == Fraction(1, t)
    assert FROZEN_SHARE + RECURSE_SHARE == 1


def test_two_level_tree_expansion():
    # schedule t0=2, t1=3 unrolled by hand: blocked mass freezes a quarter
    sch = OdometerSchedule(lambda k: (2, 3)[k])
    frozen_scale0 = Fraction(1, 2) * FROZEN_SHARE
    unfrozen = 1 - frozen_scale0
    frozen_scale1 = unfrozen * Fraction(1, 3) * FROZEN_SHARE
    assert frozen_scale0 + frozen_scale1 == freq_frozen(2, sch)
    assert freq_frozen(2, sch) == Fraction(19, 96)


def test_phased_marker_validation():
    PhasedMarker(k=4, phase="B", seed=("0110", "111"))
    PhasedMarker(k=4, phase="B", seed=("0110", "11##"))
    PhasedMarker(k=2, phase="F", frozen_bits=((1, "u"), (2, "d")))
    with pytest.raises(InputError):
        PhasedMarker(k=1, phase="X")
    with pytest.raises(InputError):
        PhasedMarker(k=1, phase="F", frozen_bits=((1, "x"),))
    with pytest.raises(InputError):
        PhasedMarker(k=1, phase="F", frozen_bits=((1, "u"), (1, "d")))
    with pytest.raises(InputError):
        PhasedMarker(k=2, phase="B")
    with pytest.raises(InputError):
        PhasedMarker(k=4, phase="B", seed=("01", "1"))
    with pytest.raises(InputError):
        PhasedMarker(k=4, phase="B", seed=("0110", "1#1"))
    with pytest.raises(InputError):
        PhasedMarker(k=2, phase="B", seed=("01", "111"))
    with pytest.raises(InputError):
        PhasedMarker(k=2, phase="H", seed=("01", "1"))


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
        f0 = Fraction(rng.randint(0, 3), 4)
        assert 1 - freq_frozen(k, custom, freq0=f0) == prod * (1 - f0)


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


def test_freq_bounds_scan_contains_exact():
    sch = default_schedule()
    scan = freq_bounds_scan(2000, checkpoints=(1, 95, 500, 2000))
    assert scan.monotone and scan.bounded
    for k, (lo, hi) in scan.checkpoints.items():
        exact = freq_frozen(k, sch)
        assert lo <= exact <= hi
        assert hi - lo < Fraction(1, 2 ** 64)


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
    # of the range is skipped and random checkpoints fall inside it
    bits = data.draw(st.sampled_from([4, 8, 16, 64, 96]), "scale_bits")
    marks = st.one_of(st.sampled_from([0, kmax, kmax + 1, kmax + 700, -1]),
                      st.integers(0, kmax))
    cps = data.draw(st.lists(marks, max_size=12), "checkpoints")
    assert (freq_bounds_scan(kmax, schedule, bits, cps)
            == oracle.freq_bounds_scan(kmax, schedule, bits, cps))


def test_custom_schedule_named_default_keeps_its_values():
    seven = OdometerSchedule(lambda k: 7, name="default")
    tab = freq_table_float(40, seven)
    assert np.array_equal(tab, oracle.freq_table_float(40, seven))
    assert abs(tab[1] - 1 / 28) < 1e-15
    assert freq_bounds_scan(40, seven, checkpoints=(1,)) == oracle.freq_bounds_scan(
        40, seven, checkpoints=(1,))
    assert default_schedule() is default_schedule()


def test_freq_crossing_golden():
    sch = default_schedule()
    assert freq_crossing(Fraction(99, 100), sch) == 95
    assert freq_crossing(Fraction(0), sch) == 0
    assert freq_crossing(Fraction(1), sch, kmax=50) is None


def test_gamma_word_readout():
    ch = [PhasedMarker(k=5, phase="F",
                       frozen_bits=tuple((j, "u") for j in range(1, 6)))]
    assert gamma_word(ch) == "uuuuu"
    alt = [PhasedMarker(k=4, phase="F",
                        frozen_bits=tuple((j, "ud"[j % 2]) for j in range(1, 5)))]
    assert gamma_word(alt) == "dudu"
    assert gamma_word([]) == ""
    split = [
        PhasedMarker(k=1, phase="F", frozen_bits=((1, "d"), (3, "u"))),
        PhasedMarker(k=2, phase="F", frozen_bits=((2, "u"), (3, "u"))),
    ]
    assert gamma_word(split) == "duu"


def test_gamma_word_conflict_and_gap():
    a = PhasedMarker(k=1, phase="F", frozen_bits=((1, "u"),))
    b = PhasedMarker(k=1, phase="F", frozen_bits=((1, "d"),))
    with pytest.raises(InputError):
        gamma_word([a, b])
    gap = PhasedMarker(k=1, phase="F", frozen_bits=((1, "u"), (3, "u")))
    with pytest.raises(InputError):
        gamma_word([gap])


def test_gamma_word_random_consistent_readout():
    rng = random.Random(5)
    for _ in range(20):
        l = rng.randint(1, 8)
        bits = {j: rng.choice("ud") for j in range(1, l + 1)}
        markers = []
        for j, bit in bits.items():
            markers.append(PhasedMarker(k=j, phase="F", frozen_bits=((j, bit),)))
        rng.shuffle(markers)
        assert gamma_word(markers) == "".join(bits[j] for j in range(1, l + 1))


def test_gamma_pushforward_bijection():
    point = {("u", "u", "u"): Fraction(1)}
    assert gamma_pushforward(point, 3) == WordMeasure.point_mass("uuu")
    uni = {}
    for i in range(8):
        bits = tuple("d" if (i >> (2 - j)) & 1 else "u" for j in range(3))
        uni[bits] = Fraction(1, 8)
    assert gamma_pushforward(uni, 3) == WordMeasure.uniform(3)

    rng = random.Random(17)
    for _ in range(10):
        l = rng.randint(1, 4)
        keys = [tuple(rng.choice("ud") for _ in range(l)) for _ in range(2 ** l)]
        raw = {k: rng.randint(0, 5) for k in set(keys)}
        tot = sum(raw.values()) or 1
        d1 = {k: Fraction(v, tot) for k, v in raw.items()}
        if sum(d1.values()) != 1:
            d1[next(iter(d1))] += 1 - sum(d1.values())
        mu = gamma_pushforward(d1, l)
        back = gamma_pullback(mu)
        assert gamma_pushforward(back, l) == mu

    with pytest.raises(InputError):
        gamma_pushforward({("u",): Fraction(1, 2)}, 1)
    with pytest.raises(InputError):
        gamma_pushforward({("u", "u"): Fraction(1)}, 3)


def test_gamma_pushforward_affine():
    rng = random.Random(23)
    for _ in range(10):
        l = 3
        def rand_dist():
            vals = [rng.randint(0, 6) for _ in range(2 ** l)]
            if sum(vals) == 0:
                vals[0] = 1
            tot = sum(vals)
            out = {}
            for i, v in enumerate(vals):
                bits = tuple("d" if (i >> (l - 1 - j)) & 1 else "u" for j in range(l))
                out[bits] = Fraction(v, tot)
            return out
        d1, d2 = rand_dist(), rand_dist()
        p = Fraction(rng.randint(0, 8), 8)
        mixed = {}
        for k in set(d1) | set(d2):
            mixed[k] = p * d1.get(k, 0) + (1 - p) * d2.get(k, 0)
        lhs = gamma_pushforward(mixed, l)
        a = gamma_pushforward(d1, l)
        b = gamma_pushforward(d2, l)
        rhs = [p * x + (1 - p) * y for x, y in zip(a.weights, b.weights)]
        assert list(lhs.weights) == rhs
