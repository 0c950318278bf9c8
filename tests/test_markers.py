import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import markers_oracle
import pattern_oracle
from groundlab import markers
from groundlab.markers import (
    MarkerSet,
    nonoverlap_violations,
    robinson_marker_set,
    verify_nonoverlap,
)
from groundlab.tiles import InputError, Patch


def patch_of(rows):
    return Patch.from_ids(rows)


def covered(config, markers):
    """The cells of `config` inside a marker occurrence, read as
    `gibbs.torus_coverage` reads a torus: the markers and the grid in the
    codes of one tile id -> code mapping, here the config's own legend."""
    code = {tid: i for i, tid in enumerate(config.legend)}
    return markers.covered(config.codes_in(code), code)


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
    with pytest.raises(InputError, match="at least one cell"):
        MarkerSet([patch_of([])])
    with pytest.raises(InputError, match="at least one cell"):
        MarkerSet([patch_of([[]])])
    with pytest.raises(InputError, match="tau must be >= 0"):
        MarkerSet([patch_of([["A"]])], tau=Fraction(-5))
    for rows in ("AB", ["AB", "CD"]):
        doc = {"tau": [0, 1], "patterns": [{"rows": rows}]}
        with pytest.raises(InputError, match="malformed marker json.*not strings"):
            MarkerSet.from_json(json.dumps(doc))


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


@given(marker_sets(), st.sampled_from([markers._PRIME, 2, 3, 5]))
@example(_marker_set([(("A",),), (("B",),)]), markers._PRIME)    # 1x1: never overlap
@example(_marker_set([(("A", "B", "A"),), (("B", "A", "B"),)]), markers._PRIME)  # non-square
@example(_marker_set([(("A", "A"), ("A", "A"))]), markers._PRIME)  # self-overlap
@example(_marker_set([(("A", "B"), ("B", "A")), (("B", "A"), ("A", "B"))]), 2)
@settings(max_examples=300, deadline=None)
def test_all_pairs_scan_matches_pair_loop(ms, prime):
    """At the hash modulus and at tiny primes, where most overlaps collide:
    array equality, not the hash, decides each hit."""
    want = markers_oracle.nonoverlap_violations(ms)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(markers, "_PRIME", prime)
        assert nonoverlap_violations(ms) == want
        assert verify_nonoverlap(ms) == (want[0] if want else None)


@pytest.mark.parametrize("n", range(1, 6))
def test_robinson_scan_matches_pair_loop(n):
    ms = robinson_marker_set(n)
    assert nonoverlap_violations(ms) == markers_oracle.nonoverlap_violations(ms) == []


def test_robinson_scan_confirms_colliding_hashes(monkeypatch):
    monkeypatch.setattr(markers, "_PRIME", 2)
    confirms = []
    array_equal = np.array_equal
    monkeypatch.setattr(np, "array_equal",
                        lambda a, b: confirms.append(1) or array_equal(a, b))
    for n in range(1, 5):
        ms = robinson_marker_set(n)
        assert nonoverlap_violations(ms) == markers_oracle.nonoverlap_violations(ms) == []
        assert verify_nonoverlap(ms) is None
    assert len(confirms) > 1000  # every one a collision, refused by array equality


def test_first_violation_confirms_no_later_hit():
    # two constant 120x120 patterns: 2 * 239^2 self-overlaps agree, and the
    # verdict is the first in (i, j, dy, dx) order, confirmed alone
    ms = _marker_set([(("A",) * 120,) * 120, (("B",) * 120,) * 120])
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert verify_nonoverlap(ms) == (0, 0, (-119, -119))
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1
    small = _marker_set([(("A",) * 3,) * 3, (("B",) * 3,) * 3])
    assert verify_nonoverlap(small) == markers_oracle.nonoverlap_violations(small)[0]


def test_codes_share_one_legend():
    ms = MarkerSet([patch_of([["B", "A"]]), patch_of([["C", "B"]])])
    assert ms.codes.shape == (2, 1, 2)
    assert [[ms.legend[c] for c in g[0]] for g in ms.codes] == [["B", "A"], ["C", "B"]]
    with pytest.raises(ValueError):
        ms.codes[0, 0, 0] = 1


def test_occurrence_map_reads_a_legend_that_repeats_an_id():
    config = Patch(np.array([[0, 1, -1]]), ("A", "A"))
    ms = MarkerSet([patch_of([["A", "A"]])])
    assert covered(config, ms).tolist() == [[True, True, False]]
    assert np.array_equal(covered(config, ms), pattern_oracle.occurrence_map(config, ms))


def test_coverage_full_on_abutting_grid():
    ms = MarkerSet([patch_of([["A", "A"], ["A", "A"]])])
    config = patch_of([["A"] * 6] * 6)
    assert covered(config, ms).all()
    assert pattern_oracle.occurrence_map(config, ms).all()


def test_coverage_with_gutters():
    ms = MarkerSet([patch_of([["A", "A"], ["A", "A"]])])
    inside = [[x % 3 < 2 and y % 3 < 2 for x in range(9)] for y in range(9)]
    config = patch_of([["A" if c else "B" for c in row] for row in inside])
    # covered cells are exactly those inside an A-block
    assert covered(config, ms).tolist() == inside
    assert pattern_oracle.occurrence_map(config, ms).tolist() == inside


def test_marker_json_roundtrip():
    ms = robinson_marker_set(2)
    rows = [[[p.id_at(x, y) for x in range(p.width)] for y in range(p.height)]
            for p in ms.patterns]
    back = MarkerSet.from_json(markers_oracle.marker_json(rows, (2, 1)))
    assert back.tau == ms.tau == 2
    assert len(back) == len(ms)
    for a, b in zip(back.patterns, ms.patterns):
        assert a.same_cells(b)
    with pytest.raises(InputError):
        MarkerSet.from_json("{\"nope\": 1}")
