import random

import numpy as np
import pytest

import robinson_oracle
import tiles_oracle
from groundlab.robinson import (
    ARM_DIRECTIONS,
    LEGEND,
    MACRO_ORDER_CAP,
    ORIENTATIONS,
    STATES,
    ArmState,
    CrossState,
    build_macro_tile,
    build_state_grid,
    build_tileset,
    collect_states,
    colour_of_scale,
    state_tile_id,
    tile_from_state,
)
from groundlab.tiles import (InputError, Patch, Tileset, check_patch,
                             count_admissible)


# ---- independent per-cell oracle -------------------------------------------
# The recursion in build_state_grid is checked against a closed-form state
# computed straight from the coordinates: the depth of a coordinate z is the
# dyadic valuation of z + 1, crosses sit where both depths agree, and arm
# ownership falls out of modular arithmetic.  No code is shared beyond the
# state dataclasses themselves.

LEFT_OF = {"s": "e", "e": "n", "n": "w", "w": "s"}


def depth(z):
    m = z + 1
    return (m & -m).bit_length()


def orient_bit(z, s, axis):
    if z % (2 ** (s + 1)) == 2 ** (s - 1) - 1:
        return "n" if axis == "y" else "e"
    return "s" if axis == "y" else "w"


def square_colour(s):
    return "r" if s % 2 == 0 else "b"


def oracle_state(x, y):
    a, b = depth(x), depth(y)
    if a == b:
        s = a
        q = orient_bit(y, s, "y") + orient_bit(x, s, "x")
        return CrossState(q, square_colour(s), s == 1)
    if a > b:
        s, z = a, y
    else:
        s, z = b, x
    r = (z - (2 ** (s - 1) - 1)) % (2 ** s)
    if r <= 2 ** (s - 1) - 1:
        delta, owner = r, z - r
        away = "n" if a > b else "e"
    else:
        delta, owner = 2 ** s - r, z + (2 ** s - r)
        away = "s" if a > b else "w"
    if a > b:
        q = orient_bit(owner, s, "y") + orient_bit(x, s, "x")
    else:
        q = orient_bit(y, s, "y") + orient_bit(owner, s, "x")
    principal = None
    if away in q:
        other = q[0] if q[1] == away else q[1]
        principal = (square_colour(s), LEFT_OF[away] == other)
    crossing = square_colour(s - 1) if delta == 2 ** (s - 2) else None
    return ArmState(away, z % 2, principal, crossing)


def macro_origin(n, q):
    dx = 0 if q[1] == "e" else 2 ** n
    dy = 0 if q[0] == "n" else 2 ** n
    return dx, dy


@pytest.mark.parametrize("q", ORIENTATIONS)
def test_recursion_matches_coordinate_oracle(q):
    for n in range(1, 7):
        x0, y0 = macro_origin(n, q)
        grid = build_state_grid(n, q)
        for yy, row in enumerate(grid):
            for xx, code in enumerate(row):
                assert STATES[code] == oracle_state(x0 + xx, y0 + yy), (n, q, xx, yy)


# ---- golden facts about the collected tileset ------------------------------

def test_tileset_inventory():
    ts = build_tileset()
    assert len(ts) == 88
    # every tile is label-distinct
    assert len({t.edges() for t in ts.tiles}) == 88
    assert sorted({t.template for t in ts.tiles}) == [
        "arm",
        "arm-crossed",
        "arm-line-left",
        "arm-line-left-crossed",
        "arm-line-right",
        "arm-line-right-crossed",
        "bumpy-cross",
        "cross",
    ]
    assert len({(t.template, t.rotation) for t in ts.tiles}) == 32
    by_template = {}
    for t in ts.tiles:
        by_template[t.template] = by_template.get(t.template, 0) + 1
    assert by_template == {
        "bumpy-cross": 4,
        "cross": 8,
        "arm": 8,
        "arm-crossed": 12,
        "arm-line-left": 16,
        "arm-line-right": 16,
        "arm-line-left-crossed": 12,
        "arm-line-right-crossed": 12,
    }


def test_state_collection_stabilizes():
    assert collect_states(6) == collect_states(7)


def _states_by_grid_scan(max_order):
    """The former `collect_states`: every cell of every state grid."""
    states = set()
    for n in range(1, max_order + 1):
        for q in ORIENTATIONS:
            for row in build_state_grid(n, q):
                states.update(STATES[code] for code in row)
    return states


@pytest.mark.parametrize("max_order", range(1, 8))
def test_collected_states_match_grid_scan(max_order):
    assert collect_states(max_order) == _states_by_grid_scan(max_order)


@pytest.mark.parametrize("max_order", range(1, 8))
def test_rotation_closure_is_trivial(max_order):
    # build_tileset adds no rotated states: every order holds all four
    # orientations
    states = collect_states(max_order)
    for st in states:
        for k in (1, 2, 3):
            assert robinson_oracle.rotated(st, k) in states


def test_rotating_state_rotates_tile():
    for st in sorted(collect_states(5), key=state_tile_id):
        t = tile_from_state(st)
        for k in (1, 2, 3):
            assert (tile_from_state(robinson_oracle.rotated(st, k)).edges()
                    == tiles_oracle.rotated(t, k).edges())
        assert robinson_oracle.rotated(st, 4) == st


def test_orientation_rotation():
    rotate_orientation = robinson_oracle.rotate_orientation
    assert rotate_orientation("ne") == "nw"
    assert rotate_orientation("nw") == "sw"
    assert rotate_orientation("sw") == "se"
    assert rotate_orientation("se") == "ne"
    assert rotate_orientation("ne", 3) == "se"


def test_macro_tiles_are_admissible():
    ts = build_tileset()
    for n in range(1, 7):
        for q in ORIENTATIONS:
            assert check_patch(ts, build_macro_tile(n, q)) == [], (n, q)


def test_tile_index_is_macro_tile_code():
    # a macro-tile's grid codes index its legend, and so the tileset
    assert tuple(t.id for t in build_tileset().tiles) == LEGEND
    assert build_macro_tile(4, "sw").legend == LEGEND


def test_low_order_tileset_checks_low_order_macro_tiles():
    # a macro-tile's legend lists every state's id, most of them unused here
    for k in (1, 2, 3):
        ts = Tileset(map(tile_from_state, collect_states(k)))
        assert len(ts) < len(STATES)
        for q in ORIENTATIONS:
            assert check_patch(ts, build_macro_tile(k, q)) == [], (k, q)


def test_macro_tile_shape_and_quadrants():
    for n in range(2, 6):
        p = build_macro_tile(n)
        side = 2 ** n - 1
        assert p.width == side and p.height == side
        half = 2 ** (n - 1)
        sub = build_macro_tile(n - 1, "ne")
        assert p.subpatch(0, 0, half - 1, half - 1).same_cells(sub)
        assert p.subpatch(half, 0, half - 1, half - 1).same_cells(
            build_macro_tile(n - 1, "nw"))
        assert p.subpatch(half, half, half - 1, half - 1).same_cells(
            build_macro_tile(n - 1, "sw"))
        assert p.subpatch(0, half, half - 1, half - 1).same_cells(
            build_macro_tile(n - 1, "se"))


def test_top_order_macro_tile_holds_the_order_below():
    top = build_macro_tile(MACRO_ORDER_CAP)
    side, half = 2 ** MACRO_ORDER_CAP - 1, 2 ** (MACRO_ORDER_CAP - 1)
    assert top.grid.shape == (side, side)
    for q, x0, y0 in (("ne", 0, 0), ("nw", half, 0), ("sw", half, half),
                      ("se", 0, half)):
        quadrant = top.grid[y0:y0 + half - 1, x0:x0 + half - 1]
        assert np.array_equal(quadrant, build_macro_tile(MACRO_ORDER_CAP - 1, q).grid), q


def test_macro_tile_grid_is_read_only():
    tile = build_macro_tile(3, "sw")
    before = tile.grid.copy()
    with pytest.raises(ValueError):
        tile.grid[0, 0] = (tile.grid[0, 0] + 1) % len(STATES)
    assert np.array_equal(build_macro_tile(3, "sw").grid, before)
    # the order-4 tile's top-right quadrant is the order-3 "sw" tile
    assert np.array_equal(build_macro_tile(4, "ne").grid[8:, 8:], before)


def test_parity_bits_match_coordinates():
    # in the canonical placement the parity channel is just coordinate parity
    for n in (2, 3, 4, 5):
        grid = build_state_grid(n, "ne")
        for yy, row in enumerate(grid):
            for xx, code in enumerate(row):
                t = tile_from_state(STATES[code])
                assert t.north.px == xx % 2, (n, xx, yy)
                assert t.north.py == yy % 2, (n, xx, yy)


def test_crossings_sit_at_square_side_midpoints():
    # scale-n arms are crossed exactly at distance 2^(n-2) from their cross
    for n in (2, 3, 4):
        grid = build_state_grid(n, "ne")
        c = 2 ** (n - 1) - 1
        for d, (dx, dy) in (("n", (0, 1)), ("e", (1, 0)), ("s", (0, -1)), ("w", (-1, 0))):
            for j in range(1, 2 ** (n - 1)):
                st = STATES[grid[c + j * dy, c + j * dx]]
                assert isinstance(st, ArmState)
                assert (st.crossing is not None) == (j == 2 ** (n - 2))
                if st.crossing:
                    assert st.crossing == colour_of_scale(n - 1)


def test_cross_tile_labels():
    t = tile_from_state(CrossState("ne", "r", False))
    assert t.north.line == "r" and t.east.line == "r"
    assert t.south.line is None and t.west.line is None
    # the outline hugs the interior of its square: the north exit sits on the
    # east half of the edge, the east exit on the north half
    assert t.north.pos == 1 and t.east.pos == 1
    assert [lab.arrow for lab in t.edges()] == ["n", "e", "s", "w"]
    assert t.north.px == 1 and t.north.py == 1
    b = tile_from_state(CrossState("sw", "b", True))
    assert b.south.line == "b" and b.west.line == "b"
    assert b.north.px == 0 and b.north.py == 0


def test_arm_tile_labels():
    # south-pointing arm: spine edges carry the away arrow, flanks point inward
    st = ArmState("s", 0, principal=("r", True), crossing="b")
    t = tile_from_state(st)
    assert t.north.arrow == "s" and t.south.arrow == "s"
    assert t.east.arrow == "w" and t.west.arrow == "e"
    # looking south, left is east: the spine line sits on the east half
    assert t.north.line == "r" and t.north.pos == 1
    assert t.south.line == "r" and t.south.pos == 1
    # the crossing line passes on the owner side (north, pos 1 along y)
    assert t.east.line == "b" and t.east.pos == 1
    assert t.west.line == "b" and t.west.pos == 1
    assert t.north.px == 1 and t.north.py == 0
    bare = tile_from_state(ArmState("e", 1))
    assert bare.east.arrow == "e" and bare.west.arrow == "e"
    assert bare.north.arrow == "s" and bare.south.arrow == "n"
    assert all(lab.line is None for lab in bare.edges())
    assert bare.north.px == 1 and bare.north.py == 1


def test_tile_ids_are_semantic_and_stable():
    assert state_tile_id(CrossState("ne", "b", True)) == "xb.ne"
    assert state_tile_id(CrossState("se", "r", False)) == "x.se.r"
    assert state_tile_id(ArmState("s", 0)) == "a.s.p0"
    assert state_tile_id(ArmState("w", 1, ("b", False), "r")) == "a.w.p1.br.xr"


def test_dead_decoration_combinations_absent():
    # an odd-distance crossing is always black: no par-0 red-crossed arms
    ids = {t.id for t in build_tileset().tiles}
    for away in ARM_DIRECTIONS:
        assert f"a.{away}.p0.xr" not in ids
        assert f"a.{away}.p0.xb" in ids
        assert f"a.{away}.p1.xr" in ids
        assert f"a.{away}.p1.xb" in ids


def test_counts_against_naive_oracle():
    ts = build_tileset()
    r2 = count_admissible(ts, 2)
    h = ts.h_compat.astype(np.int64)
    v = ts.v_compat.astype(np.int64)
    naive = int(np.einsum("ab,cd,ac,bd->", h, h, v, v))
    assert r2.count == naive == 412
    r3 = count_admissible(ts, 3)
    assert r3.count == 1940
    # one node per (state, candidate) pair of the sweep
    assert (r2.nodes, r3.nodes) == (1303, 9014)


def test_log_counts_subadditive():
    import math

    ts = build_tileset()
    per_site = [
        math.log2(count_admissible(ts, n).count) / (n * n) for n in (1, 2, 3)
    ]
    assert per_site[0] > per_site[1] > per_site[2]


def test_random_patches_from_macro_are_admissible():
    ts = build_tileset()
    big = build_macro_tile(6, "ne")
    rng = random.Random(5)
    for _ in range(25):
        w = rng.randrange(1, 8)
        h = rng.randrange(1, 8)
        x0 = rng.randrange(0, big.width - w)
        y0 = rng.randrange(0, big.height - h)
        assert check_patch(ts, big.subpatch(x0, y0, w, h)) == []


def test_mutated_macro_is_caught():
    ts = build_tileset()
    rng = random.Random(17)
    ids = [t.id for t in ts.tiles]
    base = build_macro_tile(4, "ne")
    rows = [[base.id_at(x, y) for x in range(base.width)] for y in range(base.height)]
    caught = 0
    trials = 40
    for _ in range(trials):
        x = rng.randrange(base.width)
        y = rng.randrange(base.height)
        old = rows[y][x]
        new = rng.choice([i for i in ids if i != old])
        rows[y][x] = new
        if check_patch(ts, Patch.from_ids(rows)):
            caught += 1
        rows[y][x] = old
    # single-tile swaps in the macro interior are essentially always detected
    assert caught >= trials - 2


def test_bad_inputs():
    with pytest.raises(InputError):
        build_state_grid(0)
    with pytest.raises(InputError):
        build_state_grid(3, "en")
    with pytest.raises(InputError):
        colour_of_scale(0)
