"""Differential tests: every entry point of the pattern kernel against the
straight-line loops it replaced (tests/pattern_oracle.py)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbs_oracle
import pattern_oracle as oracle
from groundlab.gibbs import (Potential, TorusConfig, adjacency_potential,
                             metropolis, torus_coverage)
from groundlab.markers import MarkerSet
from groundlab.robinson import build_tileset
from groundlab.tiles import (EdgeLabel, ForbiddenPattern, InputError, Patch,
                             PatternIndex, Tile, Tileset, check_patch,
                             pattern_tables)

IDS = "ABC"
UNKNOWN = "Z"  # an id no generated tileset holds
WEIGHTS = [0, 1, 2, Fraction(1, 2), Fraction(2, 3)]
FAST = settings(max_examples=60, deadline=None)


def free_tileset(n, forbidden=()):
    lab = EdgeLabel()
    return Tileset([Tile(i, lab, lab, lab, lab) for i in IDS[:n]], forbidden)


@st.composite
def id_grid(draw, h, w, ids):
    return [[draw(st.sampled_from(ids)) for _ in range(w)] for _ in range(h)]


@st.composite
def torus_case(draw):
    """A tileset, the (rows, weight) list of a potential with duplicates,
    zero weights and unknown ids, and torus cells wide enough for its range."""
    n = draw(st.integers(1, 3))
    side = draw(st.integers(1, 5))
    reach = side // 2 + 1
    ids = list(IDS[:n]) + [UNKNOWN]
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        rows = draw(id_grid(draw(st.integers(1, reach)),
                            draw(st.integers(1, reach)), ids))
        pairs.append((rows, draw(st.sampled_from(WEIGHTS))))
    if pairs and draw(st.booleans()):
        pairs.append((pairs[0][0], draw(st.sampled_from(WEIGHTS))))
    cells = np.array(draw(id_grid(side, side, list(range(n)))), dtype=np.int64)
    return free_tileset(n), pairs, cells


def window_totals(index, grids, ncodes):
    """Each torus's wrapped total as `boltzmann_exact` forms it: the sum over
    its rows y of the occurrences `row_counts` finds anchored on the first row
    of the window at rows y .. y + H - 1 (mod side), H the tallest shape."""
    height = max((dy + 1 for offsets, _ in index._shapes for dy, _ in offsets), default=1)
    side = len(grids[0])
    windows = [np.roll(g, -y, axis=0)[:height] for g in grids for y in range(side)]
    values, (counts,) = index.row_counts([np.array(windows)], ncodes)
    levels = [sum(c * v for c, v in zip(row, values)) for row in counts.tolist()]
    return [sum(levels[b:b + side]) for b in range(0, len(levels), side)]


@given(torus_case(), st.data())
@FAST
def test_torus_energy_and_local_lookup_match_oracle(case, data):
    tileset, pairs, cells = case
    compiled = oracle.compile_patterns(pairs, tileset)
    d = oracle.denominator(pairs)
    config = TorusConfig(tileset, Potential.from_patterns(pairs), cells.copy())
    assert config.energy == oracle.recompute_energy(compiled, cells)
    side = len(cells)
    for y in range(side):
        for x in range(side):
            assert (Fraction(sum(oracle.covering(config._index, cells, y, x, wrap=True)), d)
                    == oracle.occurrences_at(compiled, cells, x, y))
    # an open grid with unassigned (-1) cells, count_admissible's path: the
    # oracle sees it inside a torus padded with -1 wider than any pattern
    grid = cells.copy()
    grid.flat[data.draw(st.integers(0, side * side)):] = -1
    padded = np.full((2 * side, 2 * side), -1)
    padded[:side, :side] = grid
    for y in range(side):
        for x in range(side):
            assert (Fraction(sum(oracle.covering(config._index, grid, y, x)), d)
                    == oracle.occurrences_at(compiled, padded, x, y))
    x, y = data.draw(st.integers(0, side - 1)), data.draw(st.integers(0, side - 1))
    t = data.draw(st.integers(0, len(tileset) - 1))
    after = cells.copy()
    after[y, x] = t
    delta = gibbs_oracle.set_cell(config, x, y, t)
    assert delta == (oracle.occurrences_at(compiled, after, x, y)
                     - oracle.occurrences_at(compiled, cells, x, y))
    assert config.energy == config.recompute_energy() \
        == oracle.recompute_energy(compiled, after)
    assert [Fraction(n, d) for n in window_totals(config._index, [cells, after], len(tileset))] \
        == [oracle.recompute_energy(compiled, cells), oracle.recompute_energy(compiled, after)]


WIDE_SHAPES = [(1, 3), (3, 1), (1, 4), (4, 1), (2, 2)]  # 3 and 4 cells


@st.composite
def wide_case(draw):
    """Patterns of 3 and 4 cells over three tiles, each shape with its all-C
    pattern (C is the top code, 2), and a stack of side-6 or side-7 tori with
    mostly high codes, the last all C."""
    pairs = []
    for h, w in draw(st.lists(st.sampled_from(WIDE_SHAPES), min_size=1, max_size=3)):
        pairs.append(([["C"] * w] * h, draw(st.sampled_from(WEIGHTS[1:]))))
        for _ in range(draw(st.integers(0, 3))):
            pairs.append((draw(id_grid(h, w, ["A", "B", "C", "C"])),
                          draw(st.sampled_from(WEIGHTS))))
    side = draw(st.sampled_from([6, 7]))
    grids = [draw(id_grid(side, side, [0, 1, 2, 2]))
             for _ in range(draw(st.integers(0, 4)))]
    return pairs, np.array(grids + [[[2] * side] * side], dtype=np.int64)


@given(wide_case())
@FAST
def test_row_counts_of_wide_shapes_match_oracle(case):
    pairs, grids = case
    tileset = free_tileset(3)
    compiled = oracle.compile_patterns(pairs, tileset)
    d = oracle.denominator(pairs)
    index = TorusConfig(tileset, Potential.from_patterns(pairs), grids[0])._index
    assert [Fraction(n, d) for n in window_totals(index, grids, 3)] \
        == [oracle.recompute_energy(compiled, g) for g in grids]


@given(torus_case(), st.data())
@FAST
def test_direct_compile_matches_cell_list_grouping(case, data):
    # the pairs hold ids the tileset lacks, zero weights, 1-cell shapes and
    # duplicates to sum; the same code rows are compiled once more over a
    # reordered legend with an id no pattern names
    tileset, pairs, cells = case
    listed = Potential.from_patterns(pairs)
    legend = data.draw(st.permutations(listed.ids + ("Y",)))
    where = {tid: code for code, tid in enumerate(legend)}
    recoded = Potential(legend, {
        shape: ([[where[tid] for tid in key] for key in table], list(table.values()))
        for shape, table in oracle.keyed(listed).items()}, listed.denominator)
    assert oracle.keyed(recoded) == oracle.keyed(listed)
    # a shape whose every pattern drops out has no table
    want = {offsets: table for offsets, table in oracle.potential_tables(pairs, tileset).items()
            if table}
    for potential in (listed, recoded):
        config = TorusConfig(tileset, potential, cells)
        assert config._denominator == oracle.denominator(pairs)
        assert dict(config._index._shapes) == want


def test_adjacency_compile_matches_cell_list_grouping():
    tileset = build_tileset()
    pairs = oracle.adjacency_pairs(tileset)
    config = TorusConfig(tileset, adjacency_potential(tileset), np.zeros((2, 2), int))
    want = {offsets: table for offsets, table in oracle.potential_tables(pairs, tileset).items()
            if table}
    assert dict(config._index._shapes) == want


@st.composite
def marker_case(draw, grid_ids, fill):
    """Same-shape marker patterns, up to two cells larger than the grid each
    way; one is sometimes copied from the grid so that it occurs."""
    h, w = len(fill), len(fill[0])
    mh, mw = draw(st.integers(1, h + 2)), draw(st.integers(1, w + 2))
    found = {}
    if draw(st.booleans()):
        ay, ax = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        rows = [[fill[(ay + j) % h][(ax + i) % w] for i in range(mw)]
                for j in range(mh)]
        if None not in sum(rows, []):
            found[str(rows)] = rows
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(id_grid(mh, mw, grid_ids))
        found[str(rows)] = rows
    return MarkerSet([Patch.from_ids(rows) for rows in found.values()])


@given(st.data())
@FAST
def test_torus_coverage_matches_oracle(data):
    n = data.draw(st.integers(1, 3))
    side = data.draw(st.integers(1, 5))
    fill = data.draw(id_grid(side, side, list(IDS[:n])))
    markers = data.draw(marker_case(list(IDS[:n]) + [UNKNOWN], fill))
    tileset = free_tileset(n)
    cells = np.array([[tileset.index[t] for t in row] for row in fill])
    config = TorusConfig(tileset, Potential.from_patterns([]), cells)
    assert torus_coverage(config, markers.index(tileset.index)) == \
        oracle.torus_coverage(tileset, cells, markers)


@given(st.data())
@FAST
def test_occurrence_map_matches_oracle(data):
    h, w = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    fill = data.draw(id_grid(h, w, ["A", "B", None]))
    markers = data.draw(marker_case(["A", "B", UNKNOWN], fill))
    patch = Patch.from_ids(fill)
    # the marker kernel over the patch's own codes, as torus_coverage reads it
    code = {tid: i for i, tid in enumerate(patch.legend)}
    assert np.array_equal(markers.index(code).covered(patch.codes_in(code)),
                          oracle.occurrence_map(patch, markers))


@st.composite
def sparse_pattern(draw):
    """A ForbiddenPattern of 1-3 cells at offsets in -2..2 (repeats allowed)."""
    cells = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                                    st.sampled_from(["A", "B", UNKNOWN])),
                          min_size=1, max_size=3))
    return ForbiddenPattern(tuple(cells))


@given(st.lists(sparse_pattern(), max_size=5), st.data())
@FAST
def test_check_patch_forbidden_matches_oracle(patterns, data):
    if patterns and data.draw(st.booleans()):
        patterns.append(patterns[-1])
    tileset = free_tileset(2, patterns)
    h, w = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 6))
    patch = Patch.from_ids(data.draw(id_grid(h, w, ["A", "B", None])))
    got = [(v.position, int(v.detail.split()[1]))
           for v in check_patch(tileset, patch) if v.kind == "forbidden"]
    want = sorted(oracle.forbidden_violations(tileset, patch),
                  key=lambda hit: (hit[0][1], hit[0][0]))
    assert got == want


@given(st.data())
@FAST
def test_block_lookup_matches_oracle(data):
    # count_admissible fills cells in row-major order, so every cell after the
    # one just assigned still holds -1
    m = data.draw(st.integers(1, 5))
    fill = data.draw(id_grid(m, m, ["A", "B"]))
    y, x = divmod(data.draw(st.integers(0, m * m - 1)), m)
    h, w = data.draw(st.integers(1, m)), data.draw(st.integers(1, m))
    found = {}
    if x >= w - 1 and y >= h - 1 and data.draw(st.booleans()):
        block = [row[x - w + 1:x + 1] for row in fill[y - h + 1:y + 1]]
        found[str(block)] = block
    for _ in range(data.draw(st.integers(1, 3))):
        rows = data.draw(id_grid(h, w, ["A", "B"]))
        found[str(rows)] = rows
    markers = MarkerSet([Patch.from_ids(rows) for rows in found.values()])
    tileset = free_tileset(2)
    grid = np.array([[tileset.index[t] for t in row] for row in fill])
    grid.flat[y * m + x + 1:] = -1
    pat_codes = [[[tileset.index[p.id_at(i, j)] for i in range(w)]
                  for j in range(h)] for p in markers.patterns]
    want = oracle.forbidden_block_completed(grid, pat_codes, w, h, x, y)
    assert bool(oracle.covering(markers.index(tileset.index), grid, y, x)) == want


def test_weighted_index_sums_duplicates_and_drops_zero_keys():
    index = PatternIndex(oracle.weighted_tables(
        [[(0, 0, 1)], [(0, 0, 1)], [(0, 0, 0)], [(0, 0, None)]], [2, 3, 0, 7]))
    grid = np.array([[0, 1], [1, -1]])
    assert index.total(grid) == 10 and index.total(grid, wrap=True) == 10
    assert oracle.covering(index, grid, 0, 1) == [5]
    assert oracle.covering(index, grid, 0, 0) == []
    listed = PatternIndex(pattern_tables([[(0, 0, 1)], [(0, 0, 1)]]))
    assert listed.occurrences(grid) == [(0, 1, (0, 1)), (1, 0, (0, 1))]


def test_shape_wider_than_torus_lands_twice():
    index = PatternIndex({((0, 0), (0, 1)): {(1, 1): 3}})
    grid = np.array([[1]])
    assert index.total(grid, wrap=True) == 3
    assert oracle.covering(index, grid, 0, 0, wrap=True) == [3, 3]
    assert oracle.covering(index, grid, 0, 0) == []


def test_robinson_chain_matches_oracle_local_energy():
    tileset = build_tileset()
    kernel = metropolis(tileset, adjacency_potential(tileset), 8, 1.0, 20,
                        rng_seed=0, cadence=5)
    slow = gibbs_oracle.metropolis(tileset, oracle.adjacency_pairs(tileset), 8, 1.0, 20,
                                   rng_seed=0, cadence=5)
    assert slow.trace == kernel.trace
    assert slow.accepted == kernel.accepted
    assert 0 < kernel.accepted < kernel.steps
    assert np.array_equal(slow.config.cells, kernel.config.cells)


def test_empty_pattern_is_refused():
    with pytest.raises(InputError):
        pattern_tables([[]])

