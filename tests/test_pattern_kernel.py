"""Differential tests: the torus's occurrence keys and every pattern match
against the straight-line loops they replaced (tests/pattern_oracle.py)."""

import random
from fractions import Fraction
from itertools import product as iter_product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbs_oracle
import pattern_oracle as oracle
import tiles_oracle
from groundlab.gibbs import (Potential, TorusConfig, adjacency_potential,
                             metropolis, torus_coverage)
from groundlab.markers import MarkerSet, robinson_marker_set
from groundlab.robinson import build_macro_tile, build_tileset
from groundlab.tiles import (EdgeLabel, ForbiddenPattern, Patch, Tile, Tileset,
                             check_patch, count_admissible)

IDS = "ABCDE"
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


def local(config, y, x):
    """Units of the occurrences covering cell (y, x), read through the
    config's per-cell terms at its current keys."""
    return sum(get(config._keys[o], 0) for o, _, get in config._terms[y * config.side + x])


def keyed_tables(config, ntiles):
    """The config's int-keyed tables in the form `oracle.potential_tables`
    groups them: each shape as its offsets, each key decoded by its place
    values into its codes (one code for a 1-cell shape)."""
    out = {}
    for (h, w), (table, place, _) in config._shapes.items():
        decoded = {tuple(key // m % ntiles for m in place.tolist()): v for key, v in table.items()}
        out[tuple(iter_product(range(h), range(w)))] = {
            (codes if len(codes) > 1 else codes[0]): v for codes, v in decoded.items()}
    return out


def expected_keys(config, ntiles):
    """Each occurrence's key recomputed cell by cell from `config.cells`,
    shape by shape, anchors row-major: its codes read as one base-ntiles
    number, first cell most significant."""
    cells, s = config.cells.tolist(), config.side
    keys = []
    for h, w in config._shapes:
        for y in range(s):
            for x in range(s):
                key = 0
                for j in range(h):
                    for i in range(w):
                        key = key * ntiles + cells[(y + j) % s][(x + i) % s]
                keys.append(key)
    return keys


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
            assert Fraction(local(config, y, x), d) == oracle.occurrences_at(compiled, cells, x, y)
    x, y = data.draw(st.integers(0, side - 1)), data.draw(st.integers(0, side - 1))
    t = data.draw(st.integers(0, len(tileset) - 1))
    after = cells.copy()
    after[y, x] = t
    delta = gibbs_oracle.set_cell(config, x, y, t)
    assert delta == (oracle.occurrences_at(compiled, after, x, y)
                     - oracle.occurrences_at(compiled, cells, x, y))
    assert config.energy == config.recompute_energy() \
        == oracle.recompute_energy(compiled, after)
    assert config._keys == expected_keys(config, len(tileset))


KEY_SHAPES = [(h, w) for h in (1, 2) for w in (1, 2, 3)] + [(3, 1)]


@st.composite
def key_case(draw):
    """A tileset of 1-5 tiles, a potential of shapes up to 2 x 3 and 3 x 1
    with zero weights and ids the tileset lacks, torus cells wide enough for
    it, moves (x, y, tile) to place, and a chain's beta, steps and seed."""
    n = draw(st.integers(1, 5))
    side = draw(st.integers(1, 6))
    shapes = [shape for shape in KEY_SHAPES if 2 * (max(shape) - 1) <= side]
    ids = list(IDS[:n]) + [UNKNOWN]
    pairs = [(draw(id_grid(h, w, ids)), draw(st.sampled_from(WEIGHTS)))
             for h, w in draw(st.lists(st.sampled_from(shapes), max_size=5))]
    cells = np.array(draw(id_grid(side, side, list(range(n)))), dtype=np.int64)
    site = st.integers(0, side - 1)
    moves = draw(st.lists(st.tuples(site, site, st.integers(0, n - 1)), max_size=12))
    chain = (draw(st.sampled_from([0.0, 1 / 3, 1.0, 3.0])), draw(st.integers(1, 40)),
             draw(st.integers(0, 2 ** 32)))
    return free_tileset(n), pairs, cells, moves, chain


@given(key_case())
@FAST
def test_occurrence_keys_follow_every_accepted_move(case):
    tileset, pairs, cells, moves, (beta, steps, seed) = case
    n, side = len(tileset), len(cells)
    compiled = oracle.compile_patterns(pairs, tileset)
    potential = Potential.from_patterns(pairs)
    config = TorusConfig(tileset, potential, cells)
    assert config._keys == expected_keys(config, n)
    assert config.energy == oracle.recompute_energy(compiled, cells)
    for x, y, t in moves:
        gibbs_oracle.set_cell(config, x, y, t)
        assert config._keys == expected_keys(config, n)
        assert config.energy == config.recompute_energy() \
            == oracle.recompute_energy(compiled, config.cells)
    # the chain's own moves: its energy after every step against the cells
    # sampled there, and its keys at the end
    res = metropolis(tileset, potential, side, beta, steps, seed, cadence=1, sample_cadence=1)
    assert [e for _, e, _ in res.trace[1:]] == oracle.torus_energies(
        compiled, np.reshape(res.samples, (steps, side, side)))
    assert res.config._keys == expected_keys(res.config, n)


LETTERS = [chr(65 + i) for i in range(26)]
# 4 x 4 shapes over 26 tiles: 26^16 keys pass int64, so the place values
# are Python ints; Z is the top code.  A random torus holds no 4 x 4 pattern,
# so the smaller shapes give a chain its energy
PAST_INT64 = [([["A"] * 4] * 4, 1), ([["A", "A", "A", "Z"]] * 3 + [["Z", "A", "A", "A"]], 2),
              ([["Z"] * 4] * 4, Fraction(1, 3)), ([["A", "Z"]], 5), ([["B"]], 1),
              ([["C"], ["D"]], 2)]


def test_keys_past_int64_follow_moves_and_a_chain():
    lab = EdgeLabel()
    tileset = Tileset([Tile(i, lab, lab, lab, lab) for i in LETTERS])
    potential = Potential.from_patterns(PAST_INT64)
    compiled = oracle.compile_patterns(PAST_INT64, tileset)
    config = TorusConfig(tileset, potential, np.zeros((8, 8), np.int64))
    assert config._shapes[4, 4][1].dtype == object
    assert config.energy == oracle.recompute_energy(compiled, config.cells) == 64 * 16
    rng = random.Random(33)
    for _ in range(60):
        gibbs_oracle.set_cell(config, rng.randrange(8), rng.randrange(8), rng.choice([0, 0, 25]))
        assert config._keys == expected_keys(config, 26)
        assert config.energy == oracle.recompute_energy(compiled, config.cells)
    got = metropolis(tileset, potential, 8, 1.0, 300, rng_seed=4, cadence=7, sample_cadence=50)
    want = gibbs_oracle.metropolis(tileset, PAST_INT64, 8, 1.0, 300, rng_seed=4, cadence=7,
                                   sample_cadence=50)
    assert got.trace == want.trace and got.samples == want.samples
    assert got.accepted == want.accepted
    assert got.config._keys == expected_keys(got.config, 26)


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
        assert keyed_tables(config, len(tileset)) == want


def test_adjacency_compile_matches_cell_list_grouping():
    tileset = build_tileset()
    pairs = oracle.adjacency_pairs(tileset)
    config = TorusConfig(tileset, adjacency_potential(tileset), np.zeros((2, 2), int))
    want = {offsets: table for offsets, table in oracle.potential_tables(pairs, tileset).items()
            if table}
    assert keyed_tables(config, len(tileset)) == want


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
    assert torus_coverage(config, markers, tileset.index) == \
        oracle.torus_coverage(tileset, cells, markers)


def test_planted_macro_tile_coverage_matches_oracle():
    # an order-4 macro-tile, 15 x 15, planted across the seams of a random
    # side-32 Robinson torus: its own cells are covered, and random cells
    # may add more
    tileset = build_tileset()
    markers = robinson_marker_set(4)
    cells = np.random.default_rng(34).integers(0, len(tileset), size=(32, 32))
    cells[:15, :15] = build_macro_tile(4, "sw").codes_in(tileset.index)
    cells = np.roll(cells, (24, 27), (0, 1))
    config = TorusConfig(tileset, Potential.from_patterns([]), cells)
    got = torus_coverage(config, markers, tileset.index)
    assert got == oracle.torus_coverage(tileset, cells, markers)
    assert got >= Fraction(225, 1024)


@given(st.data())
@FAST
def test_occurrence_map_matches_oracle(data):
    h, w = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    fill = data.draw(id_grid(h, w, ["A", "B", None]))
    markers = data.draw(marker_case(["A", "B", UNKNOWN], fill))
    patch = Patch.from_ids(fill)
    # the markers over the patch's own codes, as torus_coverage reads a torus
    code = {tid: i for i, tid in enumerate(patch.legend)}
    assert np.array_equal(markers.covered(patch.codes_in(code), code),
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


@st.composite
def block_case(draw):
    """Two free tiles, 1-3 forbidden blocks that fill their h x w rectangle
    (h, w <= 3), sometimes naming an id the tileset lacks, and a side n <= 3."""
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        rows = draw(id_grid(h, w, ["A", "B", "A", "B", UNKNOWN]))
        blocks.append(ForbiddenPattern(tuple((i, j, tid) for j, row in enumerate(rows)
                                             for i, tid in enumerate(row))))
    return free_tileset(2, blocks), draw(st.integers(1, 3))


@given(block_case())
@FAST
def test_block_count_matches_exhaustive(case):
    # count_admissible lists each block occurrence at its last row-major
    # cell; the walk checks every placement of every block in each full patch
    tileset, n = case
    want = tiles_oracle.count_exhaustive(tileset, n)
    assert want.count is not None
    assert count_admissible(tileset, n).count == want.count


def test_shape_wider_than_torus_lands_twice():
    # on a 1 x 1 torus both cells of the domino are the one cell
    code = {"A": 0, "B": 1}
    grid = np.array([[1]])
    markers = MarkerSet([Patch.from_ids([["B", "B"]])])
    assert np.array_equal(markers.covered(grid, code, wrap=True), [[True]])
    assert not markers.covered(grid, code).any()
    # the one cell cannot hold both tiles of a mixed domino
    assert not MarkerSet([Patch.from_ids([["A", "B"]])]).covered(grid, code, wrap=True).any()


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

