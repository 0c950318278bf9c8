import json
import math
import random
from fractions import Fraction

import pytest

from groundlab.measures import WordMeasure, weak_star_distance
from groundlab.sequences import (AccumulationSet, ComputableSequence,
                                 DyadicMeasure, alternating_sequence,
                                 bernoulli, connectify, constant_sequence,
                                 dyadic_sweep, finite_accumulation, is_dyadic,
                                 named_sequence, sweep_fraction)
from groundlab.tiles import InputError


def test_dyadic_validation():
    DyadicMeasure(1, [Fraction(3, 8), Fraction(5, 8)])
    with pytest.raises(InputError):
        DyadicMeasure(1, [Fraction(1, 3), Fraction(2, 3)])
    assert is_dyadic(Fraction(7, 16)) and not is_dyadic(Fraction(1, 6))


def test_dyadic_from_word_measure():
    m = WordMeasure(1, [Fraction(1, 4), Fraction(3, 4)])
    d = DyadicMeasure.from_nums(m.depth, m.nums, m.den)
    assert d == m and isinstance(d, DyadicMeasure)


def test_bernoulli_product_structure():
    m = bernoulli(Fraction(1, 4), depth=2)
    assert m.as_dict() == {"uu": Fraction(9, 16), "ud": Fraction(3, 16),
                           "du": Fraction(3, 16), "dd": Fraction(1, 16)}
    with pytest.raises(InputError):
        bernoulli(Fraction(3, 2))


def test_sequence_depth_contract():
    seq = ComputableSequence(lambda n: bernoulli(0, depth=2), depth=1)
    with pytest.raises(InputError):
        seq.term(0)
    with pytest.raises(InputError):
        named_sequence("sweep").term(-1)


def test_sequence_terms_are_deterministic():
    seq = dyadic_sweep()
    assert seq.term(5) == seq.term(5)
    assert [sweep_fraction(n) for n in range(8)] == [
        Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
        Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8)]


def test_sweep_is_dense_in_dyadics():
    seen = {sweep_fraction(n) for n in range(256)}
    assert {Fraction(k, 16) for k in range(1, 16)} <= seen


def test_connectify_constant_unchanged():
    seq = connectify(named_sequence("constant-u"))
    first = seq.term(0)
    assert all(seq.term(m) == first for m in range(50))


def test_connectify_embeds_original_terms():
    alt = named_sequence("alternating")
    con = connectify(alt)
    # block j holds 2^bit_length(j + 1) steps, so term n starts block n
    for n in range(8):
        start = sum(1 << (j + 1).bit_length() for j in range(n))
        assert con.term(start) == alt.term(n)


def test_connectify_envelope_holds_everywhere():
    # consecutive terms lie within the declared envelope 1/isqrt(m)
    con = connectify(named_sequence("alternating"))
    for m in range(1, 300):
        d = weak_star_distance(con.term(m), con.term(m + 1))
        assert d <= Fraction(1, math.isqrt(m))


def test_connectify_distances_vanish():
    con = connectify(named_sequence("alternating"))
    early = weak_star_distance(con.term(4), con.term(5))
    late = weak_star_distance(con.term(2000), con.term(2001))
    assert late < early and late < Fraction(1, 40)


def test_connectify_steps_are_convex_interpolants():
    alt = named_sequence("alternating")
    con = connectify(alt)
    # inside the first block (size 2) the midpoint is the even mixture
    mid = con.term(1)
    assert mid.weights[0] == Fraction(1, 2)
    # interpolants stay dyadic
    assert isinstance(con.term(13), DyadicMeasure)


def test_accumulation_constant_single_rep():
    acc = finite_accumulation(named_sequence("constant-u"), 40, Fraction(1, 256))
    assert len(acc.representatives) == 1
    assert acc.hausdorff == 0
    assert acc.start == 20 and acc.stop == 40


def test_accumulation_two_point_periodic():
    acc = finite_accumulation(named_sequence("alternating"), 41, Fraction(1, 256))
    assert len(acc.representatives) == 2
    d = weak_star_distance(*acc.representatives)
    assert d == Fraction(1, 2)


def test_accumulation_sweep_covers_segment():
    acc = finite_accumulation(dyadic_sweep(), 64, Fraction(1, 16))
    for j in range(9):
        point = bernoulli(Fraction(j, 8))
        assert any(weak_star_distance(point, r) <= acc.resolution + Fraction(1, 64)
                   for r in acc.representatives)


def test_accumulation_resolution_monotone():
    fine = finite_accumulation(dyadic_sweep(), 64, Fraction(1, 32))
    coarse = finite_accumulation(dyadic_sweep(), 64, Fraction(1, 8))
    assert len(fine.representatives) >= len(coarse.representatives)
    for c in coarse.representatives:
        near = min(weak_star_distance(c, f) for f in fine.representatives)
        assert near <= Fraction(1, 32)


def test_accumulation_tail_points_within_radius():
    rng = random.Random(7)
    seq = dyadic_sweep()
    acc = finite_accumulation(seq, 100, Fraction(1, 8))
    assert acc.hausdorff <= Fraction(1, 8)
    for _ in range(20):
        n = rng.randint(acc.start, acc.stop)
        assert any(weak_star_distance(seq.term(n), r) <= acc.resolution
                   for r in acc.representatives)


def test_accumulation_validation():
    with pytest.raises(InputError):
        finite_accumulation(dyadic_sweep(), 0, Fraction(1, 8))
    with pytest.raises(InputError):
        finite_accumulation(dyadic_sweep(), 10, 0)


def test_accumulation_json():
    acc = finite_accumulation(named_sequence("alternating"), 21, Fraction(1, 4))
    doc = json.loads(acc.to_json())
    assert doc["start"] == 11 and doc["stop"] == 21
    assert len(doc["representatives"]) == 2
    assert doc["resolution"] == [1, 4]


def test_named_sequence_and_descriptors():
    assert named_sequence("uniform").term(3) == bernoulli(Fraction(1, 2))
    with pytest.raises(InputError):
        named_sequence("nope")
