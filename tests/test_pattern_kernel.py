"""Differential tests: every entry point of the pattern kernel against the
straight-line loops it replaced (tests/pattern_oracle.py)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pattern_oracle as oracle
from groundlab.gibbs import (TorusConfig, _energy_denominator,
                             adjacency_potential, metropolis,
                             pattern_potential, torus_coverage)
from groundlab.markers import (MarkerSet, occurrence_map,
                               search_covering_counterexample)
from groundlab.robinson import build_tileset
from groundlab.tiles import (EdgeLabel, ForbiddenPattern, InputError, Patch,
                             PatternIndex, Tile, Tileset, check_patch)

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
    """A tileset, a potential with duplicates, zero weights and unknown ids,
    and torus cells wide enough for its range."""
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
        pairs.append(pairs[0])
    cells = np.array(draw(id_grid(side, side, list(range(n)))), dtype=np.int64)
    return free_tileset(n), pattern_potential(pairs), cells


@given(torus_case(), st.data())
@FAST
def test_torus_energy_and_local_lookup_match_oracle(case, data):
    tileset, potential, cells = case
    compiled = oracle.compile_potential(potential, tileset)
    d = _energy_denominator(potential)
    config = TorusConfig(tileset, potential, cells.copy())
    assert config.energy == oracle.recompute_energy(compiled, cells)
    side = len(cells)
    for y in range(side):
        for x in range(side):
            assert (Fraction(config._local_units(x, y), d)
                    == oracle.occurrences_at(compiled, cells, x, y))
    x, y = data.draw(st.integers(0, side - 1)), data.draw(st.integers(0, side - 1))
    t = data.draw(st.integers(0, len(tileset) - 1))
    after = cells.copy()
    after[y, x] = t
    delta = config.update(x, y, t)
    assert delta == (oracle.occurrences_at(compiled, after, x, y)
                     - oracle.occurrences_at(compiled, cells, x, y))
    assert config.energy == config.recompute_energy() \
        == oracle.recompute_energy(compiled, after)
    values, counts = config._index.value_counts(np.stack([cells, after]), len(tileset))
    assert [Fraction(sum(c * v for c, v in zip(row, values)), d) for row in counts.tolist()] \
        == [oracle.recompute_energy(compiled, cells), oracle.recompute_energy(compiled, after)]


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
    config = TorusConfig(tileset, pattern_potential([]), cells)
    assert torus_coverage(config, markers) == \
        oracle.torus_coverage(tileset, cells, markers)


@given(st.data())
@FAST
def test_occurrence_map_matches_oracle(data):
    h, w = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    fill = data.draw(id_grid(h, w, ["A", "B", None]))
    markers = data.draw(marker_case(["A", "B", UNKNOWN], fill))
    patch = Patch.from_ids(fill)
    assert np.array_equal(occurrence_map(patch, markers),
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
    # the covering search fills cells in row-major order, so every cell after
    # the one just assigned still holds -1
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
    assert bool(markers.index(tileset.index).covering(grid, y, x)) == want


def test_weighted_index_sums_duplicates_and_drops_zero_keys():
    index = PatternIndex([[(0, 0, 1)], [(0, 0, 1)], [(0, 0, 0)], [(0, 0, None)]],
                         weights=[2, 3, 0, 7])
    grid = np.array([[0, 1], [1, -1]])
    assert index.total(grid) == 10 and index.total(grid, wrap=True) == 10
    assert index.covering(grid, 0, 1) == [5] and index.covering(grid, 0, 0) == []
    listed = PatternIndex([[(0, 0, 1)], [(0, 0, 1)]])
    assert listed.occurrences(grid) == [(0, 1, (0, 1)), (1, 0, (0, 1))]


def test_robinson_chain_matches_oracle_local_energy(monkeypatch):
    tileset = build_tileset()
    potential = adjacency_potential(tileset)
    kernel = metropolis(tileset, potential, 8, 1.0, 20, rng_seed=0, cadence=5)
    compiled = oracle.compile_potential(potential, tileset)
    d = _energy_denominator(potential)

    def oracle_units(config, x, y):
        units = oracle.occurrences_at(compiled, config.cells, x, y) * d
        assert units.denominator == 1
        return int(units)

    monkeypatch.setattr(TorusConfig, "_local_units", oracle_units)
    slow = metropolis(tileset, potential, 8, 1.0, 20, rng_seed=0, cadence=5)
    assert slow.trace == kernel.trace
    assert slow.accepted == kernel.accepted
    assert 0 < kernel.accepted < kernel.steps
    assert np.array_equal(slow.config.cells, kernel.config.cells)


def test_empty_pattern_is_refused():
    with pytest.raises(InputError):
        PatternIndex([[]])


def test_covering_search_unchanged_on_block_markers():
    tileset = free_tileset(2)
    markers = MarkerSet([Patch.from_ids([["A", "B"], ["B", "A"]]),
                         Patch.from_ids([["A", "A"], ["A", "A"]])])
    res = search_covering_counterexample(tileset, markers)
    assert res.status == "witness"
    assert not occurrence_map(res.witness, markers).any()
    assert not oracle.occurrence_map(res.witness, markers).any()
