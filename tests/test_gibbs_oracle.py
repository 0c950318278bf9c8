"""Differential tests: the level-keyed `boltzmann_exact` and the one-path
`metropolis` against the per-configuration loops they replaced
(tests/gibbs_oracle.py)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gibbs_oracle as oracle
from groundlab.gibbs import Potential, boltzmann_exact, metropolis
from groundlab.markers import MarkerSet
from groundlab.tiles import BudgetExceeded, EdgeLabel, Patch, Tile, Tileset

IDS = "ABC"
BIG = 10 ** 30 + Fraction(1, 7)  # its levels pass any fixed-width integer
WEIGHTS = [0, 1, 2, Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(5, 6)]
BETAS = [0.0, 1 / 3, 1.0, 3.0]
BUDGET = 600  # enumerations past this raise BudgetExceeded on both sides


def free_tileset(n):
    lab = EdgeLabel()
    return Tileset([Tile(i, lab, lab, lab, lab) for i in IDS[:n]])


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
