import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flow_oracle import closed_form_row
from groundlab.layers import OdometerSchedule, constant_schedule, default_schedule
from groundlab.measures import (
    DEPTH_CAP,
    WordMeasure,
    all_words,
    conditional_grid_measure,
    conditional_rows,
    constant_flow,
    flow_horizon,
    greedy_net,
    index_word,
    mix,
    repetition_flow,
    weak_star_distance,
    word_index,
)
from groundlab.tiles import InputError


def rand_measure(rng, depth):
    vals = [rng.randint(0, 9) for _ in range(2 ** depth)]
    if sum(vals) == 0:
        vals[0] = 1
    tot = sum(vals)
    return WordMeasure(depth, [Fraction(v, tot) for v in vals])


def test_word_indexing_roundtrip():
    rng = random.Random(1)
    for _ in range(100):
        depth = rng.randint(1, 10)
        i = rng.randrange(2 ** depth)
        assert word_index(index_word(i, depth)) == i
    assert word_index("u") == 0
    assert word_index("d") == 1
    assert index_word(0, 3) == "uuu"
    assert index_word(5, 3) == "dud"
    with pytest.raises(InputError):
        word_index("ux")
    with pytest.raises(InputError):
        index_word(8, 3)
    assert list(all_words(2)) == ["uu", "ud", "du", "dd"]


def test_measure_validation():
    with pytest.raises(InputError):
        WordMeasure(1, [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(InputError):
        WordMeasure(1, [Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(InputError):
        WordMeasure(0, [Fraction(1)])
    with pytest.raises(InputError):
        WordMeasure(17, [Fraction(1)] + [Fraction(0)] * (2 ** 17 - 1))
    with pytest.raises(InputError):
        WordMeasure(2, [Fraction(1)])
    # the constructors refuse a depth outside 1..DEPTH_CAP before they
    # allocate 2^depth weights (a negative one raised TypeError)
    for depth in (-1, 0, DEPTH_CAP + 1, 10 ** 6):
        with pytest.raises(InputError, match="depth must be"):
            WordMeasure.from_dict(depth, {})
        with pytest.raises(InputError, match="depth must be"):
            WordMeasure.uniform(depth)
    with pytest.raises(InputError, match="depth must be"):
        WordMeasure.point_mass("u" * 10 ** 6)


def test_point_mass_and_uniform():
    pm = WordMeasure.point_mass("udu")
    assert pm.weight("udu") == 1
    assert pm.weight("uuu") == 0
    assert pm.as_dict() == {"udu": Fraction(1)}
    uni = WordMeasure.uniform(4)
    assert all(w == Fraction(1, 16) for w in uni.weights)


def test_marginal_block_sums():
    rng = random.Random(2)
    for _ in range(20):
        mu = rand_measure(rng, 5)
        m2 = mu.marginal(2)
        for i in range(4):
            assert m2.weights[i] == sum(mu.weights[i * 8:(i + 1) * 8], Fraction(0))
        assert mu.marginal(3).marginal(2) == m2
        assert mu.marginal(5) is mu
    with pytest.raises(InputError):
        mu.marginal(6)
    with pytest.raises(InputError):
        mu.marginal(0)


def test_mix_exact():
    a = WordMeasure.point_mass("uu")
    b = WordMeasure.uniform(2)
    m = mix([(Fraction(1, 4), a), (Fraction(3, 4), b)])
    assert m.weight("uu") == Fraction(1, 4) + Fraction(3, 16)
    assert m.weight("dd") == Fraction(3, 16)
    with pytest.raises(InputError):
        mix([(Fraction(1, 2), a), (Fraction(1, 3), b)])
    with pytest.raises(InputError):
        mix([])
    # mixed depths marginalize to the shallowest
    c = WordMeasure.point_mass("uuu")
    m2 = mix([(Fraction(1, 2), a), (Fraction(1, 2), c)])
    assert m2.depth == 2 and m2.weight("uu") == 1


def test_weak_star_point_masses():
    up = WordMeasure.point_mass("u" * 10)
    down = WordMeasure.point_mass("d" * 10)
    assert weak_star_distance(up, down) == Fraction(1023, 1024)
    assert weak_star_distance(up, down, max_depth=3) == Fraction(7, 8)
    assert weak_star_distance(up, up) == 0


def test_weak_star_metric_properties():
    rng = random.Random(3)
    for _ in range(25):
        depth = rng.randint(1, 4)
        a, b, c = (rand_measure(rng, depth) for _ in range(3))
        dab = weak_star_distance(a, b)
        assert dab == weak_star_distance(b, a)
        assert dab >= 0
        assert weak_star_distance(a, c) <= dab + weak_star_distance(b, c)
        if a != b:
            assert dab > 0


def test_conditional_constant_two_schedule():
    flow = constant_flow(WordMeasure.point_mass("u"))
    cond = conditional_grid_measure(flow, 1, 3, constant_schedule(2))
    assert cond.raw[0] == (Fraction(1, 8) * Fraction(49, 64)
                           + Fraction(1, 8) * Fraction(7, 8) + Fraction(1, 8))
    assert cond.raw[1] == 0
    assert cond.residual == Fraction(343, 512)
    assert cond.total() == 1
    assert cond.renormalized().weight("u") == 1


def test_conditional_total_is_one():
    rng = random.Random(4)
    for _ in range(15):
        depth = rng.randint(1, 3)
        k = rng.randint(depth, depth + 8)
        ts = [rng.randint(2, 6) for _ in range(k + 1)]
        sch = OdometerSchedule(lambda j, ts=ts: ts[j])
        measures = {j: rand_measure(rng, depth) for j in range(depth, k + 1)}
        cond = conditional_grid_measure(lambda j: measures[j], depth, k, sch)
        assert cond.total() == 1
        assert cond.blocked_mass() + cond.residual == 1


def test_conditional_j_start():
    flow = constant_flow(WordMeasure.point_mass("u"))
    sch = constant_schedule(2)
    cond = conditional_grid_measure(flow, 1, 5, sch, j_start=4)
    assert cond.residual == Fraction(49, 64)
    assert cond.j_start == 4
    empty = conditional_grid_measure(flow, 1, 3, sch, j_start=7)
    assert empty.residual == 1
    with pytest.raises(InputError):
        empty.renormalized()


def test_conditional_depth_check():
    shallow = constant_flow(WordMeasure.point_mass("u"))
    with pytest.raises(InputError):
        conditional_grid_measure(shallow, 2, 4, constant_schedule(2))


def test_flow_horizon_and_table():
    sch = default_schedule()
    target = WordMeasure.point_mass("u")
    # locked flow: distance zero from the first blocked scale onward
    assert flow_horizon(constant_flow(target), target, 1, Fraction(1, 1024),
                        sch, 50) == 1
    # flow that starts uniform and locks to the target at scale 6
    def delayed(j):
        return target if j >= 6 else WordMeasure.uniform(1)
    dists = {row.k: weak_star_distance(row.renormalized(), target)
             for row in conditional_rows(delayed, 1, sch, 39)}
    assert dists[5] > dists[10] > dists[20]
    h = flow_horizon(delayed, target, 1, Fraction(1, 128), sch, 200)
    assert h is not None
    assert dists.get(h, weak_star_distance(
        conditional_grid_measure(delayed, 1, h, sch).renormalized(), target)
    ) < Fraction(1, 128)
    before = weak_star_distance(
        conditional_grid_measure(delayed, 1, h - 1, sch).renormalized(), target)
    assert before >= Fraction(1, 128)


@st.composite
def flow_cases(draw):
    """Random schedule, flow of depth 1-2, conditional depth, j_start, k."""
    flow_depth = draw(st.integers(1, 2))
    depth = draw(st.integers(1, flow_depth))
    kmax = draw(st.integers(0, 9))
    ts = draw(st.lists(st.integers(2, 7), min_size=kmax + 1,
                       max_size=kmax + 1))
    counts = draw(st.lists(
        st.lists(st.integers(0, 5), min_size=2 ** flow_depth,
                 max_size=2 ** flow_depth).filter(any),
        min_size=kmax + 1, max_size=kmax + 1))
    measures = [WordMeasure(flow_depth, [Fraction(c, sum(cs)) for c in cs])
                for cs in counts]
    j_start = draw(st.none() | st.integers(0, kmax + 1))
    k = draw(st.integers(0, kmax))
    sch = OdometerSchedule(lambda j, ts=ts: ts[j])
    return measures.__getitem__, depth, sch, kmax, j_start, k


@settings(max_examples=40, deadline=None)
@given(flow_cases())
def test_rows_match_closed_form(case):
    flow, depth, sch, kmax, j_start, k = case
    j0 = max(depth, j_start if j_start is not None else depth)
    rows = list(conditional_rows(flow, depth, sch, kmax, j_start))
    assert [row.k for row in rows] == list(range(j0, kmax + 1))
    for row in rows:
        assert (row.raw, row.residual) == closed_form_row(flow, depth, row.k,
                                                          sch, j_start)
        assert row.j_start == j0
    cond = conditional_grid_measure(flow, depth, k, sch, j_start)
    assert (cond.raw, cond.residual) == closed_form_row(flow, depth, k, sch,
                                                        j_start)
    assert (cond.k, cond.j_start) == (k, j0)


def test_rows_evaluate_flow_once_per_scale():
    calls = []

    def counting(j):
        calls.append(j)
        return WordMeasure.uniform(2)

    rows = list(conditional_rows(counting, 2, default_schedule(), 30))
    assert len(rows) == 29
    assert calls == list(range(2, 31))


def test_repetition_flow_indices():
    seen = []
    def base(k):
        seen.append(k)
        return WordMeasure.uniform(1)
    slowed = repetition_flow(base)
    for j in range(1, 9):
        slowed(j)
    assert seen == [0, 1, 1, 2, 2, 2, 2, 3]
    with pytest.raises(InputError):
        slowed(0)


def test_greedy_net_clusters():
    up = WordMeasure.point_mass("uuu")
    down = WordMeasure.point_mass("ddd")
    near_up = mix([(Fraction(63, 64), up), (Fraction(1, 64), down)])
    pts = [up, near_up, down, up, down]
    reps, assignment, worst = greedy_net(pts, Fraction(1, 4))
    assert reps == [0, 2]
    assert assignment == [0, 0, 2, 0, 2]
    assert worst <= Fraction(1, 4)
    reps1, _, _ = greedy_net([up, up, up], Fraction(1, 4))
    assert reps1 == [0]
