import json
import runpy
import shutil
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flow_oracle import closed_form_row
from machines_oracle import alternator
from perturbation_oracle import report_json
from groundlab.machines import (NonWordOutput, constant_writer, copier,
                                fair_coin, incrementer, machine_enumeration,
                                parity_machine, selector_weights, word_measure)
from groundlab.measures import (DEPTH_CAP, ConditionalGridMeasure, WordMeasure,
                               mix, weak_star_distance)
from groundlab.perturbation import (ACCUMULATION_RADIUS,
                                    PerturbationReport, make_selector,
                                    mixture_flow, perturbed_flow,
                                    report_accumulation, selector_flow)
from groundlab.sequences import tail_net
from groundlab.tiles import InputError

ENUM, _VERSION = machine_enumeration()
POINT_U = WordMeasure(1, [Fraction(1), Fraction(0)])
UNIFORM = WordMeasure(1, [Fraction(1, 2), Fraction(1, 2)])


def test_selector_domain_sizes():
    # at scale k >= index the rule admits every binary x with y pinned
    rule = make_selector(1, ENUM)
    assert all(rule.admits(format(v, "03b"), "1##") for v in range(8))
    # below its threshold it admits no seed at all
    rule3 = make_selector(3, ENUM)
    assert not any(rule3.admits(format(v, "02b"), y)
                   for v in range(4) for y in ("11", "1#", "##"))
    assert rule3.threshold == 3


def test_selector_weights_match_domain_counting():
    for k in [1, 3, 6]:
        weights = selector_weights(k, len(ENUM))
        assert sum(w for _, w in weights) == 1
        selectable = sum(w for i, w in weights if i > 0)
        assert selectable == Fraction(min(k, len(ENUM)), 2 ** (k + 1) - 1)


def test_selector_admits():
    rule = make_selector(2, ENUM)
    assert rule.admits("0110", "11##")
    assert not rule.admits("0110", "1###")
    assert not rule.admits("0", "1")      # below threshold
    assert not rule.admits("ab", "11")


def test_selector_validation():
    with pytest.raises(InputError):
        make_selector(0, ENUM)
    with pytest.raises(InputError):
        make_selector(len(ENUM) + 1, ENUM)


def test_selector_rule_diameter_grows_linearly():
    for i in range(1, len(ENUM) + 1):
        assert make_selector(i, ENUM).diameter == i + 1


def test_positive_epsilon_reports_byte_identical():
    reports = [perturbed_flow(constant_writer("u"), fair_coin(), eps, 1, 9,
                              index=1, enumeration=ENUM)
               for eps in (Fraction(1, 100), Fraction(1, 2), 1)]
    texts = {r.to_json() for r in reports}
    assert len(texts) == 1
    assert all(r.mode == "selector" for r in reports)


@st.composite
def reports(draw):
    """Reports of 0-3 rows at depths 1-4: numerators up to 10^30, not always
    in lowest terms, zero weights included, and rows with no blocked mass
    left out, as `renormalized` refuses them."""
    depth = draw(st.integers(1, 4))
    big = st.integers(0, 10 ** 30) | st.integers(0, 3)
    word_nums = st.lists(big, min_size=2 ** depth, max_size=2 ** depth).filter(any)

    def measure():
        nums = draw(word_nums)
        return WordMeasure.from_nums(depth, nums, sum(nums))

    def fraction():
        return Fraction(draw(big), draw(st.integers(1, 10 ** 30)))

    rows = []
    for k in range(depth, depth + draw(st.integers(0, 3))):
        nums = draw(word_nums)
        rows.append(ConditionalGridMeasure(depth, tuple(nums), sum(nums) + draw(big), k))
    return PerturbationReport(
        draw(st.sampled_from(["mixture", "selector"])), depth,
        depth + 3, draw(st.integers(1, 3)), draw(st.integers(0, 3)),
        draw(st.integers(1, 8)), rows,
        [(r.k, fraction()) for r in rows], [(r.k, fraction()) for r in rows],
        measure(), measure())


@given(reports())
@settings(max_examples=100, deadline=None)
def test_report_json_matches_json_dumps(report):
    assert report.to_json() == report_json(report)


@pytest.mark.parametrize("base, target, epsilon, depth, horizon", [
    (constant_writer("u"), parity_machine(), 0, 2, 9),
    (constant_writer("u"), parity_machine(), Fraction(1, 3), 2, 9),
    (copier(), fair_coin(), 0, 3, 8),
    (constant_writer("u"), fair_coin(), 1, 1, 6),
    # 256 words a row, at most 2 of them non-zero: the zeros written as one text
    (constant_writer("u"), parity_machine(), 0, 8, 10),
    (constant_writer("u"), parity_machine(), Fraction(1, 2), 8, 10),
])
def test_flow_report_json_matches_json_dumps(base, target, epsilon, depth, horizon):
    report = perturbed_flow(base, target, epsilon, depth, horizon, 1, [target])
    text = report.to_json()
    assert text == report_json(report)
    assert text == json.dumps(json.loads(text), indent=1)


def test_report_has_no_epsilon_field():
    rep = perturbed_flow(constant_writer("u"), fair_coin(), 1, 1, 6,
                         index=1, enumeration=ENUM)
    assert "epsilon" not in json.loads(rep.to_json())


def test_selector_flow_reaches_target():
    rep = perturbed_flow(constant_writer("u"), fair_coin(), 1, 1, 10,
                         index=1, enumeration=ENUM)
    assert rep.rows[-1].renormalized() == UNIFORM
    assert rep.dist_to_target[-1][1] == 0


def test_swap_property():
    a = perturbed_flow(constant_writer("u"), fair_coin(), 1, 1, 10,
                       index=2, enumeration=ENUM)
    b = perturbed_flow(parity_machine(), fair_coin(), 1, 1, 10,
                       index=2, enumeration=ENUM)
    da, db = json.loads(a.to_json()), json.loads(b.to_json())
    assert da["rows"] == db["rows"]
    assert da["distances"]["to_target"] == db["distances"]["to_target"]
    assert da["distances"]["to_base"] != db["distances"]["to_base"]


def test_threshold_excludes_small_scales():
    rep = perturbed_flow(constant_writer("u"), fair_coin(), 1, 1, 8,
                         index=3, enumeration=ENUM)
    assert rep.threshold == 3
    assert rep.rows[0].k == 3


def test_zero_epsilon_matches_unperturbed_pipeline():
    from groundlab.layers import default_schedule
    sched = default_schedule()
    rep = perturbed_flow(constant_writer("u"), fair_coin(), 0, 1, 7,
                         index=1, enumeration=ENUM)
    assert rep.mode == "mixture" and rep.threshold == 0
    flow = mixture_flow(constant_writer("u"), ENUM, 1)
    for row in rep.rows:
        assert (row.raw, row.residual) == closed_form_row(flow, 1, row.k,
                                                          sched, j_start=1)


@pytest.mark.parametrize("epsilon", [0, 1])
def test_word_measure_once_per_machine_and_scale(word_measure_calls,
                                                 epsilon):
    base, target = constant_writer("u"), parity_machine()
    perturbed_flow(base, target, epsilon, 2, 16, index=1, enumeration=ENUM)
    scales = range(2, 17)
    if epsilon:
        flow_pairs = {(target, j) for j in scales}
    else:
        flow_pairs = {(base if i == 0 else ENUM[i - 1], j)
                      for j in scales for i, _ in selector_weights(j, len(ENUM))}
    expected = flow_pairs | {(base, 16), (target, 16)}
    calls = word_measure_calls
    assert len(calls) == len(expected) == (57 if epsilon == 0 else 16)
    assert {(m, k) for m, k, _ in calls} == expected
    assert {d for _, _, d in calls} == {2}


def test_depth_above_scale_cap_refused():
    # the one depth limit: word measures at every scale, depth 1..DEPTH_CAP
    depth = DEPTH_CAP + 1
    with pytest.raises(InputError, match=f"depth must be in 1..{DEPTH_CAP}"):
        perturbed_flow(constant_writer("u"), parity_machine(), 1, depth, depth + 1,
                       1, ENUM)
    with pytest.raises(InputError, match=f"depth must be in 1..{DEPTH_CAP}"):
        selector_flow(parity_machine(), depth)
    with pytest.raises(InputError, match=f"depth must be in 1..{DEPTH_CAP}"):
        word_measure(parity_machine(), 5, depth=depth)
    with pytest.raises(InputError):
        mixture_flow(constant_writer("u"), ENUM, 0)
    assert selector_flow(parity_machine(), DEPTH_CAP)(DEPTH_CAP).as_dict() == {
        "u" * DEPTH_CAP: Fraction(1, 2), "d" * DEPTH_CAP: Fraction(1, 2)}


def test_flows_past_scale_twelve_read_the_true_scale():
    # the alternator writes 'u' at even scales and 'd' at odd ones; a flow
    # that reused scale 12's measure would read 'u' at 13
    alt = alternator()
    assert selector_flow(alt, 1)(13).as_dict() == {"d": 1}
    assert [selector_flow(alt, 1)(k).as_dict() for k in (96, 97)] == [{"u": 1}, {"d": 1}]
    verdicts = [report_accumulation(perturbed_flow(
        constant_writer("u"), alt, eps, 1, 96, 1, [alt]), 16).verdict
                for eps in (0, Fraction(1, 2))]
    assert verdicts == ["stable", "oscillating"]


@pytest.mark.parametrize("demo, expected, svgs", [
    pytest.param("perturb_switch", ["3 strengths, 1 distinct report body",
                                    "verdict over last 4 scales: stable"], [],
                 id="perturb_switch"),
    pytest.param("gibbs_annealing", ["rank correlation beta vs coverage: 1.0"], [],
                 id="gibbs_annealing"),
    pytest.param("hierarchy_render", [f"side {2 ** n - 1:3d}, violations 0"
                                      for n in range(1, 6)],
                 [f"m{n}.svg" for n in range(1, 6)],
                 id="hierarchy_render"),
    pytest.param("frozen_frequency",
                 ["first scale with frozen fraction >= 0.99: k = 95",
                  "monotone=True, bounded=True"], [],
                 id="frozen_frequency"),
    pytest.param("thermo_windows", ["entropy criterion: all pass"], [],
                 id="thermo_windows"),
])
def test_demo_runs(demo, expected, svgs, tmp_path, capsys):
    # run a copy, so demos that write next to themselves write into tmp_path
    source = Path(__file__).resolve().parents[1] / "demos" / f"{demo}.py"
    copy = tmp_path / source.name
    shutil.copyfile(source, copy)
    runpy.run_path(str(copy), run_name="__main__")
    out = capsys.readouterr().out
    for line in expected:
        assert line in out
    # the committed pictures are the demo's output, byte for byte
    for name in svgs:
        assert ((tmp_path / "out" / name).read_bytes()
                == (source.parent / "out" / name).read_bytes())


def test_mixture_flow_is_explicit_convex_combination():
    flow = mixture_flow(constant_writer("u"), ENUM, 1)
    k = 3
    parts = [(w, word_measure(constant_writer("u") if i == 0 else ENUM[i - 1],
                              k, 1))
             for i, w in selector_weights(k, len(ENUM))]
    assert flow(k) == mix(parts)


def test_mixture_distance_to_base_decreases():
    rep = perturbed_flow(constant_writer("u"), fair_coin(), 0, 1, 12,
                         index=1, enumeration=ENUM)
    dists = [d for _, d in rep.dist_to_base]
    assert all(a >= b for a, b in zip(dists, dists[1:]))
    assert dists[-1] < Fraction(1, 25) < dists[0]


def test_target_only_enumeration_wraps_target():
    rep = perturbed_flow(constant_writer("u"), fair_coin(), 1, 1, 6, 1, [fair_coin()])
    assert rep.index == 1
    assert rep.rows[-1].renormalized() == UNIFORM


def test_index_outside_enumeration_refused():
    # with the target the only registered machine, index 3 is refused
    # rather than reported as index 1
    with pytest.raises(InputError, match="selector index 3 outside "
                                         "enumeration of 1"):
        perturbed_flow(constant_writer("u"), fair_coin(), 1, 1, 6, 3, [fair_coin()])


def test_nonconforming_machine_refused():
    # the incrementer leaves 0s and 1s, so it is no word machine
    with pytest.raises(NonWordOutput):
        perturbed_flow(constant_writer("u"), incrementer(), 1, 1, 6,
                       index=1, enumeration=ENUM)


def test_flow_validation():
    with pytest.raises(InputError):
        perturbed_flow(constant_writer("u"), fair_coin(), -1, 1, 6, 1, ENUM)
    with pytest.raises(InputError):
        perturbed_flow(constant_writer("u"), fair_coin(), 0, 0, 6, 1, ENUM)
    with pytest.raises(InputError):
        perturbed_flow(constant_writer("u"), fair_coin(), 0, 4, 2, 1, ENUM)


def test_accumulation_stable_for_constant_flow():
    acc = tail_net(lambda k: UNIFORM, range(14, 21), ACCUMULATION_RADIUS)
    assert acc.verdict == "stable"
    assert len(acc.representatives) == 1
    assert acc.hausdorff == 0


def test_accumulation_oscillating_for_alternating_flow():
    pu, pd = POINT_U, WordMeasure(1, [Fraction(0), Fraction(1)])
    acc = tail_net(lambda k: pu if k % 2 else pd, range(13, 21),
                   ACCUMULATION_RADIUS)
    assert acc.verdict == "oscillating"
    assert len(acc.representatives) == 2
    d = weak_star_distance(acc.representatives[0], acc.representatives[1])
    assert d == weak_star_distance(pu, pd)


def test_report_accumulation_selector_matches_target():
    rep = perturbed_flow(constant_writer("u"), fair_coin(), 1, 1, 10,
                         index=1, enumeration=ENUM)
    acc = report_accumulation(rep, window=4)
    assert acc.verdict == "stable"
    assert weak_star_distance(acc.representatives[0],
                              rep.target_target) < Fraction(1, 256)


def test_report_accumulation_independent_of_base():
    a = report_accumulation(perturbed_flow(constant_writer("u"), fair_coin(),
                                           1, 1, 10, 2, ENUM), window=4)
    b = report_accumulation(perturbed_flow(copier(), fair_coin(),
                                           1, 1, 10, 2, ENUM), window=4)
    assert a.representatives == b.representatives
    assert a.verdict == b.verdict == "stable"


def test_report_json_roundtrip_fields():
    rep = perturbed_flow(constant_writer("u"), fair_coin(), 0, 1, 6,
                         index=1, enumeration=ENUM)
    doc = json.loads(rep.to_json())
    assert doc["mode"] == "mixture"
    assert [r["k"] for r in doc["rows"]] == list(range(1, 7))
    total = Fraction(*doc["rows"][0]["raw"][0]) + \
        Fraction(*doc["rows"][0]["raw"][1]) + \
        Fraction(*doc["rows"][0]["residual"])
    assert total == 1
