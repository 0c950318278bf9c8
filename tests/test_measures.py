import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import measures_oracle as oracle
from flow_oracle import closed_form_row
from groundlab.layers import OdometerSchedule, constant_schedule, default_schedule
from groundlab.measures import (
    DEPTH_CAP,
    WordMeasure,
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
from groundlab.sequences import DyadicMeasure
from groundlab.tiles import InputError


def point(word):
    """The point mass on one word."""
    return WordMeasure.from_dict(len(word), {word: 1})


def weight(m, word):
    return m.weights[word_index(word)]


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


def test_point_mass_and_uniform():
    pm = point("udu")
    assert weight(pm, "udu") == 1
    assert weight(pm, "uuu") == 0
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
    a = point("uu")
    b = WordMeasure.uniform(2)
    m = mix([(Fraction(1, 4), a), (Fraction(3, 4), b)])
    assert weight(m, "uu") == Fraction(1, 4) + Fraction(3, 16)
    assert weight(m, "dd") == Fraction(3, 16)
    with pytest.raises(InputError):
        mix([(Fraction(1, 2), a), (Fraction(1, 3), b)])
    with pytest.raises(InputError):
        mix([])
    # mixed depths marginalize to the shallowest
    c = point("uuu")
    m2 = mix([(Fraction(1, 2), a), (Fraction(1, 2), c)])
    assert m2.depth == 2 and weight(m2, "uu") == 1


def test_weak_star_point_masses():
    up = point("u" * 10)
    down = point("d" * 10)
    assert weak_star_distance(up, down) == Fraction(1023, 1024)
    assert weak_star_distance(up.marginal(3), down.marginal(3)) == Fraction(7, 8)
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


@st.composite
def word_measures(draw, depth):
    """Measure of the given depth: dense, sparse or a point mass."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    shape = draw(st.sampled_from(["dense", "sparse", "point"]))
    n = 2 ** depth
    if shape == "point":
        counts = [0] * n
        counts[rng.randrange(n)] = 1
    else:
        hi = 1000 if shape == "dense" else 3
        counts = [rng.randint(0, hi) if shape == "dense" or rng.random() < 0.1
                  else 0 for _ in range(n)]
        counts[rng.randrange(n)] += 1
    total = sum(counts)
    return WordMeasure(depth, [Fraction(c, total) for c in counts])


def _same(got, want):
    """A measure equal, word by word, to a reference one."""
    return got.depth == want.depth and got.weights == want.weights


@st.composite
def measure_pairs(draw):
    """Two measures of depth 1-10, of equal depth or not."""
    d1 = draw(st.integers(1, 10))
    d2 = draw(st.one_of(st.just(d1), st.integers(1, 10)))
    return draw(word_measures(d1)), draw(word_measures(d2))


@settings(max_examples=60, deadline=None)
@given(measure_pairs())
def test_folded_marginal_and_distance_match_block_sums(pair):
    mu, nu = pair
    # the oracle reads `weights` once per marginal: its own measures store them
    refs = [oracle.WordMeasure(m.depth, m.weights) for m in pair]
    for m, ref in zip(pair, refs):
        for l in range(1, m.depth + 1):
            assert _same(m.marginal(l), oracle.marginal(ref, l))
        for bad in (0, m.depth + 1):
            with pytest.raises(InputError) as got:
                m.marginal(bad)
            with pytest.raises(InputError) as want:
                oracle.marginal(ref, bad)
            assert str(got.value) == str(want.value)
    L = min(mu.depth, nu.depth)
    assert weak_star_distance(mu, nu) == oracle.weak_star_distance(*refs)
    # the sum cut at depth l is the distance of the depth-l marginals
    for l in range(1, L + 1):
        assert (weak_star_distance(mu.marginal(l), nu.marginal(l))
                == oracle.weak_star_distance(*refs, l))


@st.composite
def measure_inputs(draw, depth=None):
    """(depth, nums, den) at depth 1-6: dyadic or not, point masses included,
    times a common factor, so that they are not in lowest terms."""
    if depth is None:
        depth = draw(st.integers(1, 6))
    n = 2 ** depth
    counts = draw(st.lists(st.just(0) | st.integers(1, 3) | st.integers(1, 1000),
                           min_size=n, max_size=n))
    if not any(counts):
        counts[draw(st.integers(0, n - 1))] = 1
    if draw(st.booleans()):          # top up to a power-of-two total
        total = sum(counts)
        counts[draw(st.integers(0, n - 1))] += (1 << (total - 1).bit_length()) - total
    factor = draw(st.integers(1, 12))
    return depth, [factor * c for c in counts], factor * sum(counts)


def _pair(case):
    """The integer measure of `case` and its Fraction reference."""
    depth, nums, den = case
    return (WordMeasure.from_nums(depth, nums, den),
            oracle.WordMeasure(depth, [Fraction(c, den) for c in nums]))


def _outcome(f, *args):
    try:
        return f(*args)
    except InputError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(measure_inputs())
def test_integer_measure_matches_fraction_oracle(case):
    m, ref = _pair(case)
    depth, nums, den = case
    assert _same(m, ref) and m.as_dict() == ref.as_dict()
    assert weight(m, index_word(0, depth)) == ref.weight(index_word(0, depth))
    assert math.gcd(m.den, *m.nums) == 1 and sum(m.nums) == m.den
    # every construction reaches the same lowest terms, so == and hash agree
    for twin in (WordMeasure(depth, ref.weights),
                 WordMeasure.from_dict(depth, ref.as_dict()),
                 WordMeasure.from_nums(depth, m.nums, m.den)):
        assert twin == m and hash(twin) == hash(m)
        assert (twin.den, twin.nums) == (m.den, m.nums)
    want = _outcome(oracle.DyadicMeasure, depth, ref.weights)
    for got in (_outcome(DyadicMeasure, depth, ref.weights),
                _outcome(DyadicMeasure.from_nums, depth, nums, den)):
        if isinstance(want, str):
            assert got == want
        else:
            assert isinstance(got, DyadicMeasure) and _same(got, want)
            assert got == m and m == got and hash(got) == hash(m)
    for l in range(1, depth + 1):
        assert _same(m.marginal(l), oracle.marginal(ref, l))


@settings(max_examples=60, deadline=None)
@given(st.lists(measure_inputs(), min_size=1, max_size=3), st.data())
def test_integer_mix_and_distance_match_fraction_oracle(cases, data):
    pairs = [_pair(case) for case in cases]
    weights = data.draw(st.lists(st.integers(0, 5), min_size=len(pairs),
                                 max_size=len(pairs)).filter(any), "weights")
    coeffs = [Fraction(w, sum(weights)) for w in weights]
    got = mix([(c, m) for c, (m, _) in zip(coeffs, pairs)])
    assert _same(got, oracle.mix([(c, ref) for c, (_, ref) in zip(coeffs, pairs)]))
    (mu, mu_ref), (nu, nu_ref) = pairs[0], pairs[-1]
    assert weak_star_distance(mu, nu) == oracle.weak_star_distance(mu_ref, nu_ref)
    for l in range(1, min(mu.depth, nu.depth) + 1):
        assert (weak_star_distance(mu.marginal(l), nu.marginal(l))
                == oracle.weak_star_distance(mu_ref, nu_ref, l))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_integer_rows_match_fraction_oracle(data):
    flow_depth = data.draw(st.integers(1, 6), "flow depth")
    depth = data.draw(st.integers(1, flow_depth), "depth")
    kmax = data.draw(st.integers(0, 8), "kmax")
    ts = data.draw(st.lists(st.integers(2, 7), min_size=kmax + 1,
                            max_size=kmax + 1), "ts")
    pairs = [_pair(data.draw(measure_inputs(flow_depth), f"flow({j})"))
             for j in range(kmax + 1)]
    j_start = data.draw(st.none() | st.integers(0, kmax + 1), "j_start")
    sch = OdometerSchedule(lambda j: ts[j])
    got = list(conditional_rows(lambda j: pairs[j][0], depth, sch, kmax, j_start))
    want = list(oracle.conditional_rows(lambda j: pairs[j][1], depth, sch, kmax,
                                        j_start))
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        assert (row.raw, row.residual, row.k) == (ref.raw, ref.residual, ref.k)
        assert row.blocked_mass() == ref.blocked_mass()
        assert math.gcd(row.den, *row.nums) == 1
        assert _same(row.renormalized(), ref.renormalized())


def test_conditional_constant_two_schedule():
    flow = constant_flow(point("u"))
    cond = conditional_grid_measure(flow, 1, 3, constant_schedule(2))
    assert cond.raw[0] == (Fraction(1, 8) * Fraction(49, 64)
                           + Fraction(1, 8) * Fraction(7, 8) + Fraction(1, 8))
    assert cond.raw[1] == 0
    assert cond.residual == Fraction(343, 512)
    assert cond.blocked_mass() + cond.residual == 1
    assert weight(cond.renormalized(), "u") == 1


def test_conditional_total_is_one():
    rng = random.Random(4)
    for _ in range(15):
        depth = rng.randint(1, 3)
        k = rng.randint(depth, depth + 8)
        ts = [rng.randint(2, 6) for _ in range(k + 1)]
        sch = OdometerSchedule(lambda j, ts=ts: ts[j])
        measures = {j: rand_measure(rng, depth) for j in range(depth, k + 1)}
        cond = conditional_grid_measure(lambda j: measures[j], depth, k, sch)
        assert cond.blocked_mass() + cond.residual == 1


def test_conditional_j_start():
    flow = constant_flow(point("u"))
    sch = constant_schedule(2)
    rows = list(conditional_rows(flow, 1, sch, 5, j_start=4))
    assert [row.k for row in rows] == [4, 5]
    assert rows[-1].residual == Fraction(49, 64)
    assert list(conditional_rows(flow, 1, sch, 6, j_start=7)) == []
    empty = conditional_grid_measure(flow, 1, 0, sch)
    assert empty.residual == 1
    with pytest.raises(InputError):
        empty.renormalized()


def test_conditional_depth_check():
    shallow = constant_flow(point("u"))
    with pytest.raises(InputError):
        conditional_grid_measure(shallow, 2, 4, constant_schedule(2))


def test_flow_horizon_and_table():
    sch = default_schedule()
    target = point("u")
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
    cond = conditional_grid_measure(flow, depth, k, sch)
    assert (cond.raw, cond.residual) == closed_form_row(flow, depth, k, sch)
    assert cond.k == k


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
    up = point("uuu")
    down = point("ddd")
    near_up = mix([(Fraction(63, 64), up), (Fraction(1, 64), down)])
    pts = [up, near_up, down, up, down]
    reps, worst = greedy_net(pts, Fraction(1, 4))
    assert reps == [0, 2]
    assert worst <= Fraction(1, 4)
    reps1, _ = greedy_net([up, up, up], Fraction(1, 4))
    assert reps1 == [0]
