import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import markers_oracle
from groundlab.markers import (
    CoveringResult,
    MarkerSet,
    StationaryGridMeasure,
    nonoverlap_violations,
    occurrence_map,
    robinson_marker_set,
    search_covering_counterexample,
    verify_nonoverlap,
)
from groundlab.robinson import build_macro_tile, build_tileset
from groundlab.tiles import (EdgeLabel, ForbiddenPattern, InputError, Patch, Tile,
                             Tileset, check_patch)


def free_label():
    return EdgeLabel(None, None, None, None, None)


def free_tileset(ids):
    lab = free_label()
    return Tileset([Tile(i, lab, lab, lab, lab) for i in ids])


def patch_of(rows):
    return Patch.from_ids(rows)


# independent double-loop oracle, same scan order as the implementation
def oracle_violations(markers):
    pats = markers.patterns
    w, h = markers.width, markers.height
    out = []
    for i in range(len(pats)):
        for j in range(len(pats)):
            for dy in range(-(h - 1), h):
                for dx in range(-(w - 1), w):
                    if i == j and dx == 0 and dy == 0:
                        continue
                    agree = True
                    nonempty = False
                    for y in range(h):
                        for x in range(w):
                            xx, yy = x - dx, y - dy
                            if 0 <= xx < w and 0 <= yy < h:
                                nonempty = True
                                if pats[i].id_at(x, y) != pats[j].id_at(xx, yy):
                                    agree = False
                                    break
                        if not agree:
                            break
                    if nonempty and agree:
                        out.append((i, j, (dx, dy)))
    return out


def test_markerset_validation():
    with pytest.raises(InputError):
        MarkerSet([])
    with pytest.raises(InputError):
        MarkerSet([patch_of([["A"]]), patch_of([["A", "B"]])])
    with pytest.raises(InputError):
        MarkerSet([patch_of([["A"]]), patch_of([["A"]])])
    with pytest.raises(InputError):
        MarkerSet([patch_of([["A", None], ["A", "B"]])])


def test_window_side_rounds_up():
    ms = MarkerSet([patch_of([["A"] * 3] * 3)], tau=Fraction(1, 2))
    assert ms.ell == 3
    assert ms.m == 7  # (2 + 1/2) * 3 - 1 = 6.5
    ms2 = MarkerSet([patch_of([["A"]])], tau=Fraction(6))
    assert ms2.m == 7


def test_single_tile_patterns_never_overlap():
    ms = MarkerSet([patch_of([["A"]]), patch_of([["B"]]), patch_of([["C"]])])
    assert verify_nonoverlap(ms) is None


def test_shifted_agreement_detected():
    ms = MarkerSet([patch_of([["A", "B"]]), patch_of([["B", "A"]])])
    bad = nonoverlap_violations(ms)
    assert bad == oracle_violations(ms)
    assert (0, 1, (1, 0)) in bad
    assert (0, 1, (-1, 0)) in bad
    assert verify_nonoverlap(ms) == bad[0]


def test_self_overlap_detected():
    ms = MarkerSet([patch_of([["A", "A"]])])
    bad = nonoverlap_violations(ms)
    assert (0, 0, (1, 0)) in bad
    assert (0, 0, (-1, 0)) in bad


def test_random_sets_match_oracle():
    rng = random.Random(20240811)
    for trial in range(50):
        w = rng.randint(1, 3)
        h = rng.randint(1, 3)
        alphabet = ["A", "B", "C"][: rng.randint(2, 3)]
        pats = []
        seen = set()
        while len(pats) < rng.randint(1, 3):
            rows = [[rng.choice(alphabet) for _ in range(w)] for _ in range(h)]
            key = tuple(map(tuple, rows))
            if key in seen:
                continue
            seen.add(key)
            pats.append(patch_of(rows))
        ms = MarkerSet(pats)
        got = nonoverlap_violations(ms)
        want = oracle_violations(ms)
        assert got == want, f"trial {trial}"
        first = verify_nonoverlap(ms)
        assert first == (want[0] if want else None)


def test_macro_markers_pass_nonoverlap():
    for n in (1, 2):
        ms = robinson_marker_set(n)
        assert len(ms) == 4
        assert ms.ell == 2 ** n - 1
        assert ms.m == 2 * ms.ell + 5
        assert verify_nonoverlap(ms) is None
        assert nonoverlap_violations(ms) == oracle_violations(ms)


def _marker_set(grids):
    return MarkerSet([patch_of([list(row) for row in g]) for g in grids])


@st.composite
def marker_sets(draw):
    """1-3 distinct patterns of one shape up to 5x5 over 1-3 symbols."""
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cell = st.sampled_from("ABC"[:draw(st.integers(1, 3))])
    row = st.tuples(*[cell] * w)
    grids = draw(st.lists(st.tuples(*[row] * h), min_size=1, max_size=3,
                          unique=True))
    return _marker_set(grids)


@given(marker_sets())
@example(_marker_set([(("A",),), (("B",),)]))                # 1x1: never overlap
@example(_marker_set([(("A", "B", "A"),), (("B", "A", "B"),)]))  # non-square
@example(_marker_set([(("A", "A"), ("A", "A"))]))            # self-overlap
@settings(max_examples=200, deadline=None)
def test_all_pairs_scan_matches_pair_loop(ms):
    want = markers_oracle.nonoverlap_violations(ms)
    assert nonoverlap_violations(ms) == want
    assert verify_nonoverlap(ms) == (want[0] if want else None)


@pytest.mark.parametrize("n", range(1, 6))
def test_robinson_scan_matches_pair_loop(n):
    ms = robinson_marker_set(n)
    assert nonoverlap_violations(ms) == markers_oracle.nonoverlap_violations(ms) == []


def test_codes_share_one_legend():
    ms = MarkerSet([patch_of([["B", "A"]]), patch_of([["C", "B"]])])
    assert ms.codes.shape == (2, 1, 2)
    assert [[ms.legend[c] for c in g[0]] for g in ms.codes] == [["B", "A"], ["C", "B"]]
    with pytest.raises(ValueError):
        ms.codes[0, 0, 0] = 1


def test_covering_witness_on_free_tileset():
    ts = free_tileset(["A", "B"])
    ms = MarkerSet([patch_of([["A"]])], tau=Fraction(0))
    res = search_covering_counterexample(ts, ms)
    assert res.status == "witness"
    assert res.witness.width == ms.m == 1
    assert not occurrence_map(res.witness, ms).any()
    assert check_patch(ts, res.witness) == []


def test_covering_witness_avoids_block_pattern():
    ts = free_tileset(["A", "B"])
    ms = MarkerSet([patch_of([["A", "A"], ["A", "A"]])])
    res = search_covering_counterexample(ts, ms)
    assert res.status == "witness"
    assert res.witness.width == 3 and res.witness.height == 3
    assert not occurrence_map(res.witness, ms).any()
    assert check_patch(ts, res.witness) == []


def test_covering_witness_obeys_forbidden_patterns():
    # A is banned outright and C may not sit diagonally up-right of C, so
    # the witness needs B and C, and no 2x2 block of B
    lab = free_label()
    ts = Tileset([Tile(i, lab, lab, lab, lab) for i in "ABC"], extra_forbidden=[
        ForbiddenPattern(((0, 0, "A"),)),
        ForbiddenPattern(((0, 0, "C"), (1, 1, "C")))])
    ms = MarkerSet([patch_of([["B", "B"], ["B", "B"]])])
    res = search_covering_counterexample(ts, ms)
    assert res.status == "witness"
    assert not occurrence_map(res.witness, ms).any()
    assert check_patch(ts, res.witness) == []
    # with C gone too, every admissible 3x3 patch is all B: no witness
    only_b = Tileset(ts.tiles, extra_forbidden=[
        ForbiddenPattern(((0, 0, "A"),)), ForbiddenPattern(((0, 0, "C"),))])
    assert search_covering_counterexample(only_b, ms).status == "none"


@pytest.mark.parametrize("tau", [Fraction(0), Fraction(2), Fraction(3)])
def test_covering_ignores_one_cell_marker_of_unknown_id(tau):
    # a 1x1 marker naming an id the tileset lacks bans no tile, so the search
    # runs as it does without that marker; B may not sit west of B, so a
    # witness wider than 1 needs C, the last tile, as well
    ts = Tileset(free_tileset(["A", "B", "C"]).tiles,
                 extra_forbidden=[ForbiddenPattern(((0, 0, "B"), (1, 0, "B")))])
    want = search_covering_counterexample(ts, MarkerSet([patch_of([["A"]])], tau))
    assert want.status == "witness"
    for rows in ([["A"]], [["Z"]]), ([["Z"]], [["A"]]):
        got = search_covering_counterexample(ts, MarkerSet(map(patch_of, rows), tau))
        assert (got.status, got.nodes) == (want.status, want.nodes)
        assert got.witness.same_cells(want.witness)
    alone = search_covering_counterexample(ts, MarkerSet([patch_of([["Z"]])], tau))
    assert alone.status == "witness" and alone.witness.width == want.witness.width


def test_occurrence_map_reads_a_legend_that_repeats_an_id():
    config = Patch(np.array([[0, 1, -1]]), ("A", "A"))
    ms = MarkerSet([patch_of([["A", "A"]])])
    assert occurrence_map(config, ms).tolist() == [[True, True, False]]


def test_covering_budget_exhaustion():
    ts = free_tileset(["A", "B"])
    ms = MarkerSet([patch_of([["A", "A"], ["A", "A"]])])
    res = search_covering_counterexample(ts, ms, budget=1)
    assert res.status == "budget"
    assert res.witness is None
    assert res.nodes == 2  # second node trips the budget


def test_covering_none_when_nothing_admissible():
    lab = free_label()
    top = EdgeLabel("r", 0, None, None, None)
    t = Tile("C", top, lab, lab, lab)  # north never matches its own south
    ts = Tileset([t])
    ms = MarkerSet([patch_of([["C", "C"], ["C", "C"]])])
    res = search_covering_counterexample(ts, ms)
    assert res.status == "none"
    assert res.nodes == 0  # initial propagation wipes the domains


def test_covering_holds_for_bumpy_cross_markers():
    # one-cell markers, window side 7: parity forces a marker into any
    # 2x2 admissible block, and propagation discovers this immediately
    ts = build_tileset()
    ms = robinson_marker_set(1)
    res = search_covering_counterexample(ts, ms, budget=100_000)
    assert res.status == "none"
    assert res.nodes <= len(ts)  # every root assignment dies in propagation


def test_coverage_full_on_abutting_grid():
    ms = MarkerSet([patch_of([["A", "A"], ["A", "A"]])])
    config = patch_of([["A"] * 6] * 6)
    assert occurrence_map(config, ms).all()


def test_coverage_with_gutters():
    ms = MarkerSet([patch_of([["A", "A"], ["A", "A"]])])
    inside = [[x % 3 < 2 and y % 3 < 2 for x in range(9)] for y in range(9)]
    config = patch_of([["A" if c else "B" for c in row] for row in inside])
    # covered cells are exactly those inside an A-block
    assert occurrence_map(config, ms).tolist() == inside


def toy_measure():
    p1 = patch_of([["A", "A"], ["A", "A"]])
    p2 = patch_of([["B", "B"], ["B", "B"]])
    return StationaryGridMeasure(MarkerSet([p1, p2]))


def test_grid_measure_single_cell_marginal():
    mu = toy_measure()
    assert mu.probability(Patch.from_ids([["A"]])) == Fraction(1, 2)
    assert mu.probability(Patch.from_ids([["B"]])) == Fraction(1, 2)


def test_grid_measure_straddling_domino():
    mu = toy_measure()
    domino = Patch.from_ids([["A", "A"]])
    # aligned offset: 1/2; straddling offset: 1/4; average 3/8
    assert mu.probability(domino) == Fraction(3, 8)


def test_grid_measure_shift_invariance():
    mu = toy_measure()
    rng = random.Random(7)
    for _ in range(25):
        w = rng.randint(1, 3)
        h = rng.randint(1, 3)
        rows = [[rng.choice(["A", "B", None]) for _ in range(w)] for _ in range(h)]
        base = Patch.from_ids(rows, origin=(0, 0))
        moved = Patch.from_ids(rows, origin=(rng.randint(-9, 9), rng.randint(-9, 9)))
        assert mu.probability(base) == mu.probability(moved)


def test_grid_measure_normalization():
    mu = toy_measure()
    for w, h in ((2, 2), (3, 1)):
        total = Fraction(0)
        for stamp in range(2 ** (w * h)):
            rows = [["A" if (stamp >> (y * w + x)) & 1 else "B" for x in range(w)]
                    for y in range(h)]
            total += mu.probability(Patch.from_ids(rows))
        assert total == 1


def test_grid_measure_weight_validation():
    ms = MarkerSet([patch_of([["A"]]), patch_of([["B"]])])
    with pytest.raises(InputError):
        StationaryGridMeasure(ms, [Fraction(1, 3), Fraction(1, 3)])
    with pytest.raises(InputError):
        StationaryGridMeasure(ms, [Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(InputError):
        StationaryGridMeasure(ms, [Fraction(1)])


def test_grid_measure_entropy_uniform():
    mu = toy_measure()
    assert mu.entropy_per_site() == pytest.approx(1 / 4)
    rob = StationaryGridMeasure(robinson_marker_set(1))
    assert rob.entropy_per_site() == pytest.approx(2.0)


def test_robinson_grid_measure_cells():
    rob = StationaryGridMeasure(robinson_marker_set(1))
    one = build_macro_tile(1, "ne")
    assert rob.probability(one) == Fraction(1, 4)
    two = Patch.from_ids([[one.id_at(0, 0), build_macro_tile(1, "sw").id_at(0, 0)]])
    assert rob.probability(two) == Fraction(1, 16)


def test_marker_json_roundtrip():
    ms = robinson_marker_set(1)
    text = ms.to_json()
    back = MarkerSet.from_json(text)
    assert back.tau == ms.tau
    assert len(back) == len(ms)
    for a, b in zip(back.patterns, ms.patterns):
        assert a.same_cells(b)
    with pytest.raises(InputError):
        MarkerSet.from_json("{\"nope\": 1}")
