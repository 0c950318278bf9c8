import copy
import json
import random
import time
from fractions import Fraction
from functools import reduce
from operator import getitem

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pattern_oracle
import tiles_oracle
from groundlab.gibbs import Potential
from groundlab.machines import corpus, machine_from_json, machine_to_json
from groundlab.markers import MarkerSet
from groundlab.robinson import build_tileset
from groundlab.tiles import (
    HOLE,
    EdgeLabel,
    ForbiddenPattern,
    InputError,
    Patch,
    Tile,
    Tileset,
    check_patch,
    count_admissible,
)


def plain(**kw):
    return EdgeLabel(**kw)


def uniform_tile(tid, **kw):
    lab = EdgeLabel(**kw)
    return Tile(tid, lab, lab, lab, lab)


def test_edge_label_encode_roundtrip():
    rng = random.Random(11)
    for _ in range(200):
        lab = EdgeLabel(
            line=rng.choice([None, "r", "b"]),
            pos=rng.choice([None, 0, 1]),
            arrow=rng.choice([None, "n", "e", "s", "w"]),
            px=rng.choice([None, 0, 1]),
            py=rng.choice([None, 0, 1]),
        )
        assert EdgeLabel.decode(tiles_oracle.label_text(lab)) == lab
    assert EdgeLabel.decode("r0n1.") == EdgeLabel(line="r", pos=0, arrow="n", px=1)
    assert EdgeLabel.decode(".....") == EdgeLabel()


def test_edge_label_validation():
    with pytest.raises(InputError):
        EdgeLabel(line="g")
    with pytest.raises(InputError):
        EdgeLabel(arrow="x")
    for arrow in ("ne", ""):  # substrings of "nesw", no arrows
        with pytest.raises(InputError):
            EdgeLabel(arrow=arrow)
    with pytest.raises(InputError):
        EdgeLabel(px=2)
    with pytest.raises(InputError):
        EdgeLabel.decode("abc")


def h_fits(a, b) -> bool:
    """May an edge labelled a sit west of one labelled b?  Read off the
    horizontal matrix of two tiles whose every edge carries a, and b."""
    return bool(Tileset([Tile("a", a, a, a, a), Tile("b", b, b, b, b)]).h_compat[0, 1])


def v_fits(a, b) -> bool:
    """May an edge labelled a sit south of one labelled b?  Read off the
    vertical matrix of the same two tiles."""
    return bool(Tileset([Tile("a", a, a, a, a), Tile("b", b, b, b, b)]).v_compat[0, 1])


def test_parity_semantics():
    # px flips across a vertical edge, py flips across a horizontal edge,
    # None is unconstrained on either side
    a = plain(px=0, py=1)
    assert h_fits(a, plain(px=1, py=1))
    assert not h_fits(a, plain(px=0, py=1))
    assert not h_fits(a, plain(px=1, py=0))
    assert h_fits(a, plain(px=None, py=None))
    assert h_fits(plain(), plain(px=0, py=0))
    assert v_fits(a, plain(px=0, py=0))
    assert not v_fits(a, plain(px=0, py=1))


def test_line_and_arrow_must_agree_exactly():
    assert not h_fits(plain(line="r", pos=0), plain(line="b", pos=0))
    assert not h_fits(plain(line="r", pos=0), plain(line="r", pos=1))
    assert not h_fits(plain(line="r", pos=0), plain())
    assert not v_fits(plain(arrow="n"), plain(arrow="s"))
    assert v_fits(plain(line="b", pos=1, arrow="n"),
                  plain(line="b", pos=1, arrow="n"))


def test_tile_rotation_returns_to_start():
    t = Tile(
        "t",
        north=EdgeLabel(line="r", pos=1, arrow="n", px=0, py=1),
        east=EdgeLabel(arrow="w", px=0, py=1),
        south=EdgeLabel(line="b", pos=0, arrow="s", px=0, py=1),
        west=EdgeLabel(arrow="e", px=0, py=1),
        template="probe",
    )
    rotated = tiles_oracle.rotated
    assert rotated(t, 4).edges() == t.edges()
    assert rotated(rotated(t, 1), 3).edges() == t.edges()
    r = rotated(t, 1)
    # CCW quarter turn: old east edge becomes the new north edge and the old
    # north edge becomes the new west edge with its line position kept
    assert r.north.line == t.east.line
    assert r.west.line == t.north.line
    assert r.west.pos == t.north.pos
    assert r.north.arrow == "s"  # 'w' turned a quarter CCW
    assert r.rotation == 1


def test_rotation_preserves_adjacency():
    # if A fits west of B then rotated(A) fits south of rotated(B)
    rng = random.Random(23)

    def rand_label():
        line = rng.choice([None, "r", "b"])
        return EdgeLabel(
            line=line,
            pos=rng.choice([0, 1]) if line else None,
            arrow=rng.choice([None, "n", "e", "s", "w"]),
            px=rng.choice([None, 0, 1]),
            py=rng.choice([None, 0, 1]),
        )

    def rand_tile(tid):
        return Tile(tid, rand_label(), rand_label(), rand_label(), rand_label())

    for _ in range(300):
        a, b = rand_tile("a"), rand_tile("b")
        ts, turned = Tileset([a, b]), Tileset(map(tiles_oracle.rotated, (a, b)))
        assert ts.h_compat[0, 1] == turned.v_compat[0, 1]
        assert ts.v_compat[0, 1] == turned.h_compat[1, 0]


def parity_tileset():
    tiles = []
    for px in (0, 1):
        for py in (0, 1):
            tiles.append(uniform_tile(f"p{px}{py}", px=px, py=py))
    return Tileset(tiles)


def test_parity_tileset_counts():
    ts = parity_tileset()
    # parity forces the checkerboard phase; only the global phase is free
    for n in range(1, 5):
        assert count_admissible(ts, n).count == 4


def test_free_tileset_counts():
    ts = Tileset([uniform_tile(f"f{i}") for i in range(3)])
    for n in (1, 2):
        assert count_admissible(ts, n).count == 3 ** (n * n)


def test_self_incompatible_tile():
    t = Tile("s", north=plain(), east=plain(arrow="e"), south=plain(),
             west=plain(arrow="w"))
    ts = Tileset([t])
    assert count_admissible(ts, 1).count == 1
    assert count_admissible(ts, 2).count == 0


def test_count_budget():
    ts = Tileset([uniform_tile(f"f{i}") for i in range(5)])
    r = count_admissible(ts, 4, budget=10)
    assert r.count is None and r.nodes == 11


def test_forbidden_pattern_count():
    ts = Tileset(
        [uniform_tile("A"), uniform_tile("B")],
        extra_forbidden=[ForbiddenPattern(((0, 0, "A"), (1, 0, "A")))],
    )
    # 2x2 free count 16, minus rows containing AA: 16 - 4 - 4 + 1
    assert count_admissible(ts, 2).count == 9


# B up-left of A: an occurrence is complete at B's cell, the later one in
# row-major order, not at its anchor A
UP_LEFT = Tileset([uniform_tile("A"), uniform_tile("B")],
                  extra_forbidden=[ForbiddenPattern(((0, 0, "A"), (-1, 1, "B")))])


@st.composite
def forbidden_tilesets(draw):
    """1-3 tiles with random arrow labels (uniform tiles often, so that many
    frontier states survive), and 0-2 forbidden patterns of 1-3 cells at
    offsets -1..1: holes, repeated offsets and unknown ids included."""
    arrow = st.sampled_from([None, "n", "e"]).map(lambda a: EdgeLabel(arrow=a))
    edges = st.one_of(arrow.map(lambda e: [e] * 4), st.lists(arrow, min_size=4, max_size=4))
    tiles = [Tile(f"t{i}", *draw(edges)) for i in range(draw(st.integers(1, 3)))]
    cell = st.tuples(st.integers(-1, 1), st.integers(-1, 1),
                     st.sampled_from([t.id for t in tiles] + ["zz"]))
    patterns = st.lists(st.lists(cell, min_size=1, max_size=3).map(
        lambda cells: ForbiddenPattern(tuple(cells))), max_size=2)
    return Tileset(tiles, draw(patterns))


@settings(max_examples=250, deadline=None)
@given(forbidden_tilesets(), st.integers(1, 3))
# a diagonal reaches n + 1 cells back in row-major order, past a frontier
# of the last n tiles
@example(Tileset([uniform_tile("A"), uniform_tile("B")],
                 extra_forbidden=[ForbiddenPattern(((0, 0, "A"), (1, 1, "B")))]), 3)
@example(UP_LEFT, 3)
def test_dp_matches_exhaustive(ts, n):
    want = tiles_oracle.count_exhaustive(ts, n)
    got = count_admissible(ts, n)
    assert want.count is not None
    assert got.count == want.count


def test_pattern_ending_past_its_anchor_nodes():
    # one node per (state, candidate) pair, as the sweep has always counted
    assert count_admissible(UP_LEFT, 3).nodes == 94


def test_forbidden_toy_sweep_is_fast():
    # three free tiles, A banned diagonally up-right of A: a walk over every
    # patch tries all 3^9 of them at n = 3, which takes seconds
    ts = Tileset([uniform_tile(c) for c in "ABC"],
                 extra_forbidden=[ForbiddenPattern(((0, 0, "A"), (1, 1, "A")))])
    start = time.perf_counter()
    got = count_admissible(ts, 3)
    assert time.perf_counter() - start < 0.1
    assert got.count == 12672


def test_patch_construction_and_holes():
    p = Patch.from_ids([["a", None, "b"], ["b", "a", None]])
    assert p.width == 3 and p.height == 2
    assert p.id_at(0, 0) == "a"
    assert p.id_at(1, 0) is None
    assert p.id_at(1, 1) == "a"
    assert not p.filled()
    assert p.legend == ("a", "b")
    assert p.grid.tolist() == [[0, HOLE, 1], [1, 0, HOLE]]
    sub = p.subpatch(1, 0, 2, 2)
    assert sub.same_cells(Patch.from_ids([[None, "b"], ["a", None]]))
    assert sub.id_at(0, 1) == "a"


def test_patch_refuses_string_rows():
    # a string, for the rows or for one row, would read as one-letter ids
    for rows in ("AB", ["AB"], ["AB", "CD"], [["A", "B"], "CD"]):
        with pytest.raises(InputError, match="not strings"):
            Patch.from_ids(rows)
    with pytest.raises(InputError, match="ragged"):
        Patch.from_ids([["A", "B"], ["A"]])


def test_patch_out_of_range_reads_are_none():
    p = Patch.from_ids([["a"]])
    assert p.id_at(-1, 0) is None
    assert p.id_at(0, 5) is None


def test_check_patch_reports_positions():
    # A|A is fine, A|B is not: B requires arrow 'n' on its west side
    a = uniform_tile("A")
    b = uniform_tile("B", arrow="n")
    ts = Tileset([a, b])
    patch = Patch.from_ids([["A", "B"], ["A", "A"]])
    v = check_patch(ts, patch)
    kinds = {(x.kind, x.position) for x in v}
    assert ("h", (0, 0)) in kinds
    assert ("v", (1, 0)) in kinds
    # holes suspend the adjacent checks
    patch2 = Patch.from_ids([["A", None], [None, "A"]])
    assert check_patch(ts, patch2) == []


def test_check_patch_forbidden_anchor():
    a = uniform_tile("A")
    ts = Tileset([a], extra_forbidden=[ForbiddenPattern(((0, 0, "A"), (0, 1, "A")))])
    v = check_patch(ts, Patch.from_ids([["A"], ["A"], ["A"]]))
    assert [x.position for x in v if x.kind == "forbidden"] == [(0, 0), (0, 1)]


def test_check_patch_unknown_id():
    ts = Tileset([uniform_tile("A")])
    with pytest.raises(InputError):
        check_patch(ts, Patch.from_ids([["A", "zz"]]))
    # the first unknown id the grid holds, in legend order, is named; an
    # unknown id only the legend lists is never looked at
    grid = np.array([[3, 0, 1]])
    with pytest.raises(InputError, match="unknown tile id 'yy'"):
        check_patch(ts, Patch(grid, ("A", "yy", "ww", "zz")))
    assert check_patch(ts, Patch(grid[:, 1:], ("A", "A", "ww"))) == []


# a tileset document and the tileset it reads as
ROUNDTRIP_DOC = {
    "tiles": [
        {"id": "one", "north": "r0n..", "east": "...1.", "south": ".....",
         "west": "....0", "template": "alpha", "rotation": 2},
        {"id": "two", "north": "..s..", "east": "..s..", "south": "..s..",
         "west": "..s.."},
    ],
    "forbidden": [{"cells": [{"dx": 0, "dy": 0, "tile": "one"},
                             {"dx": 1, "dy": 1, "tile": "two"}]}],
}


def roundtrip_tileset():
    return Tileset(
        [
            Tile("one", plain(line="r", pos=0, arrow="n"), plain(px=1), plain(), plain(py=0),
                 template="alpha", rotation=2),
            uniform_tile("two", arrow="s"),
        ],
        extra_forbidden=[ForbiddenPattern(((0, 0, "one"), (1, 1, "two")))],
    )


def test_tileset_serialization_roundtrip():
    ts = roundtrip_tileset()
    back = Tileset.from_json(json.dumps(ROUNDTRIP_DOC))
    assert back.tiles == ts.tiles
    assert back.extra_forbidden == ts.extra_forbidden
    assert np.array_equal(back.h_compat, ts.h_compat)
    assert np.array_equal(back.v_compat, ts.v_compat)


def test_tileset_rejects_bad_input():
    with pytest.raises(InputError):
        Tileset([uniform_tile("x"), uniform_tile("x")])
    with pytest.raises(InputError):
        Tileset.from_json("{\"nope\": 1}")
    with pytest.raises(InputError):
        Tileset.from_json(json.dumps({"tiles": [{"id": "a"}]}))
    with pytest.raises(InputError, match="forbidden"):
        Tileset([uniform_tile("A")], extra_forbidden=[ForbiddenPattern(())])
    # int() would read each of these rotations as an int, and a template
    # may be any JSON value; all are refused
    tile = {"id": "a", "north": ".....", "east": ".....", "south": ".....", "west": "....."}
    for key, value in (("rotation", True), ("rotation", 1.9), ("rotation", "2"),
                       ("template", 5), ("template", ["arm"]), ("template", None)):
        with pytest.raises(InputError, match=f"malformed tileset json: {key} takes "):
            Tileset.from_json(json.dumps({"tiles": [{**tile, key: value}]}))
    back = Tileset.from_json(json.dumps({"tiles": [{**tile, "rotation": -3}]}))
    assert back.tiles[0].rotation == -3


# each JSON reader: its one valid document and the object that reads as,
# then the paths of the document's list fields, string fields,
# [numerator, denominator] pairs and lists whose entries are typed
READERS = {
    "machine": (machine_from_json, json.loads(machine_to_json(corpus()["copier"])),
                corpus()["copier"],
                [("states",), ("final",), ("input_alphabet",), ("tape_alphabet",), ("delta",)],
                [("initial",), ("blank",),
                 *(("delta", 0, key) for key in ("state", "read", "next", "write"))], [],
                [("states",), ("final",), ("input_alphabet",), ("tape_alphabet",)]),
    "tileset": (Tileset.from_json, ROUNDTRIP_DOC, roundtrip_tileset(),
                [("tiles",), ("forbidden",), ("forbidden", 0, "cells")],
                [("tiles", 0, key) for key in ("id", "north", "east", "south", "west",
                                               "template")], [], []),
    # the acceptance-7 toy potential
    "potential": (Potential.from_json,
                  {"patterns": [{"rows": [["A", "B"]], "weight": [1, 1]}]},
                  Potential.from_patterns([([["A", "B"]], 1)]),
                  [("patterns",), ("patterns", 0, "rows"), ("patterns", 0, "weight")], [],
                  [("patterns", 0, "weight")], [("patterns", 0, "rows")]),
    "marker": (MarkerSet.from_json,
               {"tau": [1, 2], "patterns": [{"rows": [["A", "B"], ["C", "D"]]}]},
               MarkerSet([Patch.from_ids([["A", "B"], ["C", "D"]])], Fraction(1, 2)),
               [("patterns",), ("patterns", 0, "rows"), ("tau",)], [], [("tau",)],
               [("patterns", 0, "rows")]),
}
# each refused value, made from the valid one; an object entry keyed on the
# last entry would read as that entry's ids
MISTYPED = {"a string": lambda v: "AB", "an empty string": lambda v: "",
            "an object": lambda v: {}, "a one-element list": lambda v: [v],
            "one entry": lambda v: v[:1], "three entries": lambda v: [*v, 7],
            "an object entry": lambda v: [*v[:-1], dict.fromkeys(v[-1], 0)]}


def read_fields(obj):
    """What makes two read objects equal: a machine compares as itself."""
    if isinstance(obj, Tileset):
        return obj.tiles, obj.extra_forbidden
    if isinstance(obj, Potential):
        return obj.ids, obj.denominator, pattern_oracle.keyed(obj)
    if isinstance(obj, MarkerSet):
        return obj.legend, obj.codes.tolist(), obj.tau
    return obj


@pytest.mark.parametrize("kind", READERS)
def test_json_readers_load_their_valid_document(kind):
    read, doc, want, *_ = READERS[kind]
    assert read_fields(read(json.dumps(doc))) == read_fields(want)


@pytest.mark.parametrize("kind, path, mistyped", [
    pytest.param(kind, path, mistyped, id=f"{kind}-{'.'.join(map(str, path))}-{mistyped}")
    for kind, (*_, lists, strings, pairs, entries) in READERS.items()
    for paths, refused in ((lists, ("a string", "an empty string", "an object")),
                           (strings, ("a one-element list",)),
                           (pairs, ("one entry", "three entries")),
                           (entries, ("an object entry",)))
    for path in paths for mistyped in refused])
def test_json_readers_refuse_each_mistyped_field(kind, path, mistyped):
    # types are exact: a string is no list, a list no string, an object no
    # list entry, and a pair is exactly two integers; the refusal names the
    # field
    read, doc = READERS[kind][:2]
    doc = copy.deepcopy(doc)
    *parents, key = path
    holder = reduce(getitem, parents, doc)
    holder[key] = MISTYPED[mistyped](holder[key])
    with pytest.raises(InputError, match=rf"^malformed {kind} json: {key} takes "):
        read(json.dumps(doc))


# few values per channel, so that labels repeat and pairs of them match
edge_labels = st.builds(EdgeLabel, line=st.sampled_from([None, "r"]),
                        pos=st.sampled_from([None, 0, 1]),
                        arrow=st.sampled_from([None, "n", "e"]),
                        px=st.sampled_from([None, 0, 1]), py=st.sampled_from([None, 0, 1]))


@given(st.lists(st.tuples(edge_labels, edge_labels, edge_labels, edge_labels), max_size=12))
@example(edges=[])  # no tiles: two 0 x 0 matrices
@settings(max_examples=80, deadline=None)
def test_compat_matches_pair_by_pair_loop(edges):
    tiles = [Tile(f"t{i}", *e) for i, e in enumerate(edges)]
    ts = Tileset(tiles)
    want_h, want_v = tiles_oracle.compat_matrices(tiles)
    assert ts.h_compat.shape == ts.v_compat.shape == (len(tiles), len(tiles))
    assert ts.h_compat.dtype == ts.v_compat.dtype == bool
    assert np.array_equal(ts.h_compat, want_h) and np.array_equal(ts.v_compat, want_v)


def test_robinson_compat_matches_pair_by_pair_loop():
    ts = build_tileset()
    want_h, want_v = tiles_oracle.compat_matrices(ts.tiles)
    assert np.array_equal(ts.h_compat, want_h) and np.array_equal(ts.v_compat, want_v)


# every value of every channel, None bits included
any_edge_labels = st.builds(EdgeLabel, line=st.sampled_from([None, "r", "b"]),
                            pos=st.sampled_from([None, 0, 1]),
                            arrow=st.sampled_from([None, "n", "e", "s", "w"]),
                            px=st.sampled_from([None, 0, 1]), py=st.sampled_from([None, 0, 1]))


@given(st.one_of(edge_labels, any_edge_labels), st.one_of(edge_labels, any_edge_labels))
@settings(max_examples=300, deadline=None)
def test_edge_predicate_matches_per_axis_copies(a, b):
    # the matrices of a two-tile set against the per-axis predicates
    assert h_fits(a, b) == tiles_oracle.h_edges_match(a, b)
    assert v_fits(a, b) == tiles_oracle.v_edges_match(a, b)


@given(st.lists(st.tuples(edge_labels, edge_labels, edge_labels, edge_labels),
                min_size=1, max_size=4), st.data())
@settings(max_examples=80, deadline=None)
def test_check_patch_edges_match_per_axis_loops(edges, data):
    ts = Tileset([Tile(f"t{i}", *e) for i, e in enumerate(edges)])
    ids = [t.id for t in ts.tiles] + [None]
    h, w = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 5))
    patch = Patch.from_ids([[data.draw(st.sampled_from(ids)) for _ in range(w)]
                            for _ in range(h)])
    if h and data.draw(st.booleans()):
        # a subpatch keeps its parent's legend, unused entries included
        x0, y0 = data.draw(st.integers(0, w - 1)), data.draw(st.integers(0, h - 1))
        patch = patch.subpatch(x0, y0, data.draw(st.integers(1, w - x0)),
                               data.draw(st.integers(1, h - y0)))
    got = [(v.kind, v.position, v.detail) for v in check_patch(ts, patch)]
    want = sorted(pattern_oracle.edge_violations(ts, patch),
                  key=lambda v: (v[1][1], v[1][0], v[0]))
    assert got == want


@st.composite
def legend_patches(draw):
    """A patch over a legend that may repeat an id or list ids the grid does
    not hold, with holes, of side 0..3."""
    legend = tuple(draw(st.lists(st.sampled_from("ABC"), max_size=4)))
    h, w = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    codes = [draw(st.integers(HOLE, len(legend) - 1)) for _ in range(h * w)]
    return Patch(np.array(codes, dtype=np.int32).reshape(h, w), legend)


@given(legend_patches(), st.data())
@settings(max_examples=200, deadline=None)
def test_same_cells_matches_id_by_id_loop(a, data):
    if data.draw(st.booleans()):
        b = data.draw(legend_patches())
    else:
        # a's cells over a shuffled legend with unused entries, one cell
        # maybe changed
        legend = data.draw(st.permutations(
            sorted(set(a.legend)) + data.draw(st.lists(st.sampled_from("ABCD"), max_size=2))))
        grid = np.array([HOLE if v == HOLE else legend.index(a.legend[v])
                         for v in a.grid.ravel().tolist()], dtype=np.int32)
        if grid.size and data.draw(st.booleans()):
            grid[data.draw(st.integers(0, grid.size - 1))] = data.draw(
                st.integers(HOLE, len(legend) - 1))
        b = Patch(grid.reshape(a.grid.shape), tuple(legend))
    want = tiles_oracle.same_cells(a, b)
    assert a.same_cells(b) == b.same_cells(a) == want
