"""Differential tests: the level-keyed `boltzmann_exact` and the one-path
`metropolis` against the per-configuration loops they replaced
(tests/gibbs_oracle.py)."""

from fractions import Fraction
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gibbs_oracle as oracle
import pattern_oracle
from groundlab.gibbs import Potential, TorusConfig, boltzmann_exact, metropolis, trace_csv
from groundlab.markers import MarkerSet
from groundlab.tiles import BudgetExceeded, EdgeLabel, Patch, Tile, Tileset

IDS = "ABC"
BIG = 10 ** 30 + Fraction(1, 7)  # its levels pass any fixed-width integer
WEIGHTS = [0, 1, 2, Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(5, 6)]
BETAS = [0.0, 1 / 3, 1.0, 3.0]
BUDGET = 600  # enumerations past this raise BudgetExceeded on both sides


def free_tileset(n, ids=IDS):
    lab = EdgeLabel()
    return Tileset([Tile(i, lab, lab, lab, lab) for i in ids[:n]])


@st.composite
def id_rows(draw, h, w, ids):
    return [[draw(st.sampled_from(ids)) for _ in range(w)] for _ in range(h)]


@st.composite
def gibbs_case(draw, weights=tuple(WEIGHTS)):
    """A free tileset of 1-3 tiles, a side 1-3 torus, and the (rows, weight)
    list of a potential with mixed weight denominators and zero weights,
    drawn from `weights`, that fits that torus.

    A potential holding BIG runs at beta = 0: there y = 1, while any y < 1
    raised to a level near 10**31 has no exact value of feasible size."""
    n = draw(st.integers(1, 3))
    side = draw(st.integers(1, 3))
    reach = side // 2 + 1
    ids = list(IDS[:n])
    pairs = [(draw(id_rows(draw(st.integers(1, reach)), draw(st.integers(1, reach)), ids)),
              draw(st.sampled_from(weights)))
             for _ in range(draw(st.integers(0, 4)))]
    beta = 0.0 if any(w == BIG for _, w in pairs) else draw(st.sampled_from(BETAS))
    return free_tileset(n), pairs, side, beta


@given(gibbs_case(weights=WEIGHTS + [BIG]))
# the largest possible level, four times the weight, at the edge of uint64:
# all-A sums to 2^64 - 4, past int64, and one unit more takes Python ints
@example(case=(free_tileset(2), [([["A"]], 2 ** 62 - 1)], 2, 0.0))
@example(case=(free_tileset(2), [([["A"]], 2 ** 62)], 2, 0.0))
@settings(max_examples=100, deadline=None)
def test_boltzmann_exact_matches_oracle(case):
    tileset, pairs, side, beta = case
    potential = Potential.from_patterns(pairs)
    try:
        want = oracle.boltzmann_exact(tileset, pairs, side, beta, BUDGET)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            boltzmann_exact(tileset, potential, side, beta, budget=BUDGET)
        return
    assert boltzmann_exact(tileset, potential, side, beta, budget=BUDGET) == want


# side 4, past the drawn cases' budget: a vertical domino, whose occurrences
# wrap from the last row to the first, a 2 x 2 shape and a horizontal domino
SIDE4 = [([["A"], ["B"]], Fraction(2, 3)), ([["A", "B"], ["B", "A"]], 1),
         ([["B", "B"]], Fraction(1, 2))]


@pytest.fixture(scope="module")
def side4_table():
    # the oracle's scan of all 65 536 configurations, once, with one weight
    # per level at beta = 1
    return oracle.boltzmann_exact(free_tileset(2), SIDE4, 4, 1.0, 1 << 16)


def test_boltzmann_exact_at_side_4_matches_oracle(side4_table):
    tileset, big = free_tileset(2), [(rows, weight * BIG) for rows, weight in SIDE4]
    got = boltzmann_exact(tileset, Potential.from_patterns(SIDE4), 4, 1.0)
    scaled = boltzmann_exact(tileset, Potential.from_patterns(big), 4, 0.0)
    assert got == side4_table
    # every weight times BIG makes every level BIG times larger, past int64
    assert scaled.energies == {key: e * BIG for key, e in side4_table.energies.items()}
    assert set(scaled.probabilities.values()) == {Fraction(1, 1 << 16)}


@given(gibbs_case(), st.data())
@settings(max_examples=100, deadline=None)
def test_metropolis_matches_oracle(case, data):
    tileset, pairs, side, beta = case
    markers = None
    if data.draw(st.booleans(), label="markers"):
        rows = {str(r): r for r in data.draw(st.lists(
            id_rows(1, data.draw(st.integers(1, 2)), list(IDS[:len(tileset)])),
            min_size=1, max_size=2))}
        markers = MarkerSet([Patch.from_ids(r) for r in rows.values()])
    args = (side, beta, data.draw(st.integers(1, 300), label="steps"),
            data.draw(st.integers(0, 2 ** 32), label="seed"))
    kwargs = dict(markers=markers,
                  cadence=data.draw(st.integers(0, 40), label="cadence"),
                  sample_cadence=data.draw(st.integers(0, 40), label="sample_cadence"))
    got = metropolis(tileset, Potential.from_patterns(pairs), *args, **kwargs)
    want = oracle.metropolis(tileset, pairs, *args, **kwargs)
    assert got.trace == want.trace
    assert got.samples == want.samples
    assert got.accepted == want.accepted
    assert np.array_equal(got.config.cells, want.config.cells)
    assert got.config.energy == got.config.recompute_energy()


DENSE_IDS = "ABCD"


@st.composite
def dense_case(draw):
    """free:2 to free:4, a side 2-3 torus, the (rows, weight) list of a
    potential whose shapes each give one common non-zero weight to at least
    half (rounded down) of their ntiles^k keys, the other keys taking mixed
    weights, zero included, or none, and a chain's beta, steps and seed.
    Shapes: 1 x 1, 1 x 2, 2 x 1, and 2 x 2 on free:2."""
    n, side = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    ids = DENSE_IDS[:n]
    shapes = [(1, 1), (1, 2), (2, 1)] + ([(2, 2)] if n == 2 else [])
    pairs = []
    for h, w in draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=3, unique=True)):
        keys = draw(st.permutations(list(iter_product(ids, repeat=h * w))))
        common = draw(st.sampled_from(WEIGHTS[1:]))
        held = draw(st.integers(len(keys) // 2, len(keys)))
        for i, key in enumerate(keys[:draw(st.integers(held, len(keys)))]):
            weight = common if i < held else draw(st.sampled_from(WEIGHTS))
            pairs.append(([list(key[j * w:(j + 1) * w]) for j in range(h)], weight))
    cells = np.array(draw(id_rows(side, side, list(range(n)))), dtype=np.int64)
    chain = (draw(st.sampled_from(BETAS)), draw(st.integers(1, 200)),
             draw(st.integers(0, 2 ** 32)))
    return free_tileset(n, DENSE_IDS), pairs, cells, chain


@given(dense_case())
# every domino but A A forbidden, Robinson's case in small: the baseline is
# the forbidden weight and the table keeps the one allowed key
@example(case=(free_tileset(2), [(rows, 1) for rows in ([["A", "B"]], [["B", "A"]],
                                                         [["B", "B"]])],
               np.array([[0, 1], [1, 1]]), (1.0, 200, 7)))
@settings(max_examples=60, deadline=None)
def test_dense_potentials_match_oracle(case):
    tileset, pairs, cells, (beta, steps, seed) = case
    potential = Potential.from_patterns(pairs)
    compiled = pattern_oracle.compile_patterns(pairs, tileset)
    config = TorusConfig(tileset, potential, cells)
    assert config.energy == config.recompute_energy() \
        == pattern_oracle.recompute_energy(compiled, cells)
    # every local rise, each move made and taken back
    side = len(cells)
    for y, x, t in iter_product(range(side), range(side), range(len(tileset))):
        old, after = int(cells[y, x]), cells.copy()
        after[y, x] = t
        assert oracle.set_cell(config, x, y, t) == (
            pattern_oracle.occurrences_at(compiled, after, x, y)
            - pattern_oracle.occurrences_at(compiled, cells, x, y))
        oracle.set_cell(config, x, y, old)
    assert config.energy == pattern_oracle.recompute_energy(compiled, cells)
    got = metropolis(tileset, potential, side, beta, steps, seed, cadence=7)
    want = oracle.metropolis(tileset, pairs, side, beta, steps, seed, cadence=7)
    assert trace_csv(got) == trace_csv(want)
    assert got.accepted == want.accepted
    try:
        table = oracle.boltzmann_exact(tileset, pairs, side, beta, BUDGET)
    except BudgetExceeded:
        return
    assert boltzmann_exact(tileset, potential, side, beta, budget=BUDGET) == table
