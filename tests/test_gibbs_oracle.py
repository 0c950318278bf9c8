"""Differential tests: the level-keyed `boltzmann_exact` and the one-path
`metropolis` against the per-configuration loops they replaced
(tests/gibbs_oracle.py)."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbs_oracle as oracle
import groundlab.gibbs as gibbs
from groundlab.gibbs import boltzmann_exact, metropolis, pattern_potential
from groundlab.markers import MarkerSet
from groundlab.tiles import BudgetExceeded, EdgeLabel, Patch, Tile, Tileset

IDS = "ABC"
BIG = 10 ** 30 + Fraction(1, 7)  # its levels pass any fixed-width integer
WEIGHTS = [0, 1, 2, Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(5, 6)]
BETAS = [0.0, 1 / 3, 1.0, 3.0]
BUDGET = 600  # enumerations past this raise BudgetExceeded on both sides
BLOCKS = [1, 3, 7, gibbs.ENUMERATION_BLOCK]  # small blocks cross block edges


def free_tileset(n):
    lab = EdgeLabel()
    return Tileset([Tile(i, lab, lab, lab, lab) for i in IDS[:n]])


@st.composite
def id_rows(draw, h, w, ids):
    return [[draw(st.sampled_from(ids)) for _ in range(w)] for _ in range(h)]


@st.composite
def gibbs_case(draw, weights=tuple(WEIGHTS)):
    """A free tileset of 1-3 tiles, a side 1-3 torus, and a potential with
    mixed weight denominators and zero weights, drawn from `weights`, that
    fits that torus.

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
    return free_tileset(n), pattern_potential(pairs), side, beta


@given(gibbs_case(weights=WEIGHTS + [BIG]), st.sampled_from(BLOCKS))
@settings(max_examples=100, deadline=None)
def test_boltzmann_exact_matches_oracle(case, block):
    tileset, potential, side, beta = case
    with mock.patch.object(gibbs, "ENUMERATION_BLOCK", block):
        try:
            want = oracle.boltzmann_exact(tileset, potential, side, beta, BUDGET)
        except BudgetExceeded:
            with pytest.raises(BudgetExceeded):
                boltzmann_exact(tileset, potential, side, beta, budget=BUDGET)
            return
        assert boltzmann_exact(tileset, potential, side, beta, budget=BUDGET) == want


@given(gibbs_case(), st.data())
@settings(max_examples=100, deadline=None)
def test_metropolis_matches_oracle(case, data):
    tileset, potential, side, beta = case
    markers = None
    if data.draw(st.booleans(), label="markers"):
        rows = {str(r): r for r in data.draw(st.lists(
            id_rows(1, data.draw(st.integers(1, 2)), list(IDS[:len(tileset)])),
            min_size=1, max_size=2))}
        markers = MarkerSet([Patch.from_ids(r) for r in rows.values()])
    args = (tileset, potential, side, beta, data.draw(st.integers(1, 300), label="steps"),
            data.draw(st.integers(0, 2 ** 32), label="seed"))
    kwargs = dict(markers=markers,
                  cadence=data.draw(st.integers(0, 40), label="cadence"),
                  sample_cadence=data.draw(st.integers(0, 40), label="sample_cadence"))
    got, want = metropolis(*args, **kwargs), oracle.metropolis(*args, **kwargs)
    assert got.trace == want.trace
    assert got.samples == want.samples
    assert got.accepted == want.accepted
    assert np.array_equal(got.config.cells, want.config.cells)
    assert got.config.energy == got.config.recompute_energy()
