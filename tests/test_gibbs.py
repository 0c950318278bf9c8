import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gibbs_oracle
import pattern_oracle
from groundlab.gibbs import (BoltzmannTable, Potential, TorusConfig,
                             acceptance_probability, adjacency_potential,
                             boltzmann_base, boltzmann_exact,
                             coverage_sweep, metropolis, power_float,
                             spearman_rank, torus_coverage, trace_csv)
from groundlab.markers import MarkerSet, robinson_marker_set
from groundlab.robinson import build_tileset
from groundlab.tiles import (BudgetExceeded, EdgeLabel, InputError, Patch,
                             Tile, Tileset)


def free_tileset(ids):
    lab = EdgeLabel(None, None, None, None, None)
    return Tileset([Tile(i, lab, lab, lab, lab) for i in ids])


TS2 = free_tileset(("A", "B"))
AB_PAIRS = [((("A", "B"),), 1)]
AB_POT = Potential.from_patterns(AB_PAIRS)
B_POT = Potential.from_patterns([((("B",),), 1)])


def naive_energy(cells, pairs):
    # independent full-scan oracle: walk every anchor of every pattern
    n = len(cells)
    ids = {0: "A", 1: "B"}
    total = Fraction(0)
    for rows, w in pairs:
        h, width = len(rows), len(rows[0])
        for y in range(n):
            for x in range(n):
                if all(ids[cells[(y + j) % n][(x + i) % n]] == rows[j][i]
                       for j in range(h) for i in range(width)):
                    total += w * h * width
    return total


def potential_json(pairs) -> str:
    """The potential file of (rows, weight) pairs, one entry per pair."""
    return json.dumps({"patterns": [
        {"rows": [list(r) for r in rows],
         "weight": [Fraction(w).numerator, Fraction(w).denominator]}
        for rows, w in pairs]})


def test_potential_validation():
    with pytest.raises(InputError):
        Potential.from_patterns([((("A", "B"),), -1)])
    with pytest.raises(InputError):
        Potential.from_patterns([((), 1)])
    with pytest.raises(InputError):
        Potential.from_patterns([(((),), 1)])
    with pytest.raises(InputError):
        Potential.from_patterns([((("A", "B"), ("A",)), 1)])
    with pytest.raises(InputError):
        Potential.from_patterns([((("A", 1),), 1)])
    with pytest.raises(InputError):
        Potential.from_patterns([((("A",),), None)])
    # a string, for the rows or for one row, would read as one-letter ids
    for rows in ("AB", ["AB"], ["AB", "CD"], [["A", "B"], "CD"]):
        with pytest.raises(InputError, match="not strings"):
            Potential.from_patterns([(rows, 1)])
    assert AB_POT.range == 1
    assert B_POT.range == 0
    empty = Potential.from_patterns([])
    assert empty.range == 0 and empty.denominator == 1
    assert empty.ids == () and pattern_oracle.keyed(empty) == {}


def test_potential_rows_are_read_only_and_summed():
    pot = Potential.from_patterns([((("B", "A"),), Fraction(1, 3)), ((("A",), ("B",)), 0),
                                   ((("B", "A"),), Fraction(2, 3))])
    # the legend lists ids in first-seen order, and a row's units stay summed
    assert pot.ids == ("B", "A") and pot.denominator == 3
    assert pattern_oracle.keyed(pot) == {(1, 2): {("B", "A"): 3}, (2, 1): {("A", "B"): 0}}
    assert pot.rows[(1, 2)][1] == (3,)
    with pytest.raises(ValueError):
        pot.rows[(1, 2)][0][0, 0] = 0
    with pytest.raises(TypeError):
        pot.rows[(1, 1)] = (np.zeros((1, 1), np.int32), (1,))
    with pytest.raises(AttributeError):
        pot.denominator = 1
    # the same rows over a reordered legend with an id no pattern names
    recoded = Potential(("C", "A", "B"), {(1, 2): ([[2, 1]], [3]), (2, 1): ([[1, 2]], [0])}, 3)
    assert pattern_oracle.keyed(recoded) == pattern_oracle.keyed(pot)


def test_potential_json_roundtrip():
    pairs = [((("A", "B"),), Fraction(2, 3)), ((("B",),), 1)]
    again = Potential.from_json(potential_json(pairs))
    want = Potential.from_patterns(pairs)
    assert pattern_oracle.keyed(again) == pattern_oracle.keyed(want)
    assert again.ids == want.ids and again.denominator == want.denominator == 3
    with pytest.raises(InputError):
        Potential.from_json("{}")
    # a boolean or a float is not an integer, though Fraction reads true as 1
    for bad in ([1, 0], [1.5, 1], [True, 1], [1, 1.0]):
        doc = {"patterns": [{"rows": [["A", "B"]], "weight": bad}]}
        with pytest.raises(InputError, match="malformed potential json"):
            Potential.from_json(json.dumps(doc))
    with pytest.raises(InputError, match="tile ids"):
        Potential.from_json(json.dumps({"patterns": [{"rows": [[["A"]]], "weight": [1, 1]}]}))
    for rows in ("AB", ["AB"]):
        doc = {"patterns": [{"rows": rows, "weight": [1, 1]}]}
        with pytest.raises(InputError, match="malformed potential json.*not strings"):
            Potential.from_json(json.dumps(doc))


@st.composite
def distinct_patterns(draw):
    """(rows, weight) pairs of mixed shapes, no two sharing a key."""
    found = {}
    for _ in range(draw(st.integers(0, 5))):
        h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        rows = tuple(tuple(draw(st.sampled_from("ABZ")) for _ in range(w)) for _ in range(h))
        found[rows] = draw(st.sampled_from([0, 1, 3, Fraction(1, 2), Fraction(2, 3),
                                            Fraction(5, 6)]))
    return list(found.items())


@given(distinct_patterns())
@settings(max_examples=60, deadline=None)
def test_json_roundtrip_without_shared_keys(pairs):
    pot = Potential.from_patterns(pairs)
    d = math.lcm(*(Fraction(w).denominator for _, w in pairs))
    assert pot.denominator == d
    want = {}
    for rows, w in pairs:
        want.setdefault((len(rows), len(rows[0])), {})[sum(rows, ())] = w * d
    assert pattern_oracle.keyed(pot) == want
    again = Potential.from_json(potential_json(pairs))
    assert pattern_oracle.keyed(again) == want and again.denominator == d


def test_adjacency_potential_matches_per_pair_wrapping():
    tileset = build_tileset()
    got = adjacency_potential(tileset)
    want = Potential.from_patterns(pattern_oracle.adjacency_pairs(tileset))
    assert pattern_oracle.keyed(got) == pattern_oracle.keyed(want)
    assert got.ids == tuple(t.id for t in tileset.tiles) and got.denominator == 1
    # no incompatible pair: no pattern
    free = adjacency_potential(TS2)
    assert pattern_oracle.keyed(free) == {} and free.denominator == 1


def code_rows(tables):
    """The (ids, rows) of id-keyed tables {(h, w): {cells: units}}, the
    legend in first-seen order.  It checks nothing: a key that is not a
    tuple of cells reaches the constructor as it is."""
    legend = {}
    rows = {}
    for shape, table in tables.items():
        codes = [[legend.setdefault(c, len(legend)) for c in key]
                 if type(key) is tuple else key for key in table]
        rows[shape] = (codes, list(table.values()))
    return tuple(legend), rows


@pytest.mark.parametrize("tables, denominator", [
    ({(1, 2): {("A", "B"): 1}}, 0),                 # denominator < 1
    ({(1, 2): {("A", "B"): 1}}, 1.0),               # denominator not an int
    ({(0, 2): {(): 1}}, 1),                         # h < 1
    ({(1,): {("A",): 1}}, 1),                       # shape not (h, w)
    ({(1, 2): {("A",): 1}}, 1),                     # key shorter than h * w
    ({(1, 2): {"AB": 1}}, 1),                       # key not a tuple
    ({(1, 2): {("A", 2): 1}}, 1),                   # cell not a tile id
    ({(1, 2): {("A", "B"): -1}}, 1),                # units < 0
    ({(1, 2): {("A", "B"): Fraction(1, 2)}}, 1),    # units not an int
    ({(1, 2): {("A", "B"): True}}, 1),              # units a bool
])
def test_potential_table_checks(tables, denominator):
    # the cases of the former id-keyed form, coded as rows over a legend
    ids, rows = code_rows(tables)
    with pytest.raises(InputError):
        Potential(ids, rows, denominator)


@pytest.mark.parametrize("ids, rows, denominator", [
    ("AB", {(1, 2): ([[0, 2]], [1])}, 1),                   # code outside the legend
    ("AB", {(1, 2): ([[0, -1]], [1])}, 1),                  # negative code
    ("AB", {(1, 2): ([[0.0, 1.0]], [1])}, 1),               # codes not ints
    ("AB", {(1, 2): ([[0]], [1])}, 1),                      # row narrower than h * w
    ("AB", {(2, 1): ([[0, 1, 0]], [1])}, 1),                # row wider than h * w
    ("AB", {(1, 2): ([[0, 1], [1, 0]], [1])}, 1),           # fewer units than rows
    ("AB", {(1, 2): ([[0, 1]], [-1])}, 1),                  # units < 0
    ("AB", {(1, 2): ([[0, 1]], [True])}, 1),                # units a bool
    ("AB", {(1, 2): ([[0, 1]], [1.0])}, 1),                 # units a float
    ("AB", {(1, 2): ([[0, 1]], [Fraction(1, 2)])}, 1),      # units not an int
    ("AB", {(1, 2): ([[0, 1], [0, 1]], [1, 2])}, 1),        # a repeated row
    ("ABC", {(1, 40): ([[2] * 40, [2] * 40], [1, 1])}, 1),  # ... past int64 row keys
    ("AA", {(1, 2): ([[0, 1]], [1])}, 1),                   # repeated legend id
    (("A", 2), {(1, 2): ([[0, 1]], [1])}, 1),               # legend id not a string
    ("AB", {(0, 2): ([], [])}, 1),                          # h < 1
    ("AB", {(1, 2): ([[0, 1]], [1])}, 0),                   # denominator < 1
    ("AB", {(1, 2.0): ([[0, 1]], [1])}, 1),                 # shape of a float
])
def test_potential_code_row_checks(ids, rows, denominator):
    with pytest.raises(InputError):
        Potential(tuple(ids), rows, denominator)


def test_adjacency_potential_retains_code_rows_only():
    tileset = build_tileset()
    tracemalloc.start()
    try:
        pot = adjacency_potential(tileset)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # 15 032 dominoes as int32 code rows and units; as id-tuple keys they held 1.26 MiB
    assert retained < 2 ** 19
    assert pattern_oracle.keyed(pot) == pattern_oracle.keyed(
        Potential.from_patterns(pattern_oracle.adjacency_pairs(tileset)))


def test_boltzmann_base_past_float_range():
    assert boltzmann_base(1.0, 10 ** 400) == 1
    assert 0 < boltzmann_base(1e308, 10 ** 309) < 1


def test_domino_counted_from_both_sites():
    cfg = TorusConfig(TS2, AB_POT, [[0, 1], [0, 0]])
    assert cfg.energy == 2


def test_zero_violation_config_has_zero_energy():
    cfg = TorusConfig(TS2, AB_POT, [[0, 0], [0, 0]])
    assert cfg.energy == 0


def test_energy_matches_naive_scan():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.choice([2, 3, 4, 5])
        cells = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        cfg = TorusConfig(TS2, AB_POT, cells)
        assert cfg.energy == naive_energy(cells, AB_PAIRS)
        assert cfg.recompute_energy() == cfg.energy


def test_range_precondition():
    wide = Potential.from_patterns([((("A", "A", "A"),), 1)])
    with pytest.raises(InputError):
        TorusConfig(TS2, wide, [[0, 0], [0, 0]])
    # offsets of 1 on a side-2 torus are allowed: the acceptance instance
    TorusConfig(TS2, AB_POT, [[0, 0], [0, 0]])


def test_cell_validation():
    with pytest.raises(InputError):
        TorusConfig(TS2, AB_POT, [[0, 2], [0, 0]])
    with pytest.raises(InputError):
        TorusConfig(TS2, AB_POT, [[0, 0, 0], [0, 0, 0]])


def test_energy_cache_coherent_after_many_updates():
    rng = random.Random(11)
    cfg = TorusConfig(TS2, AB_POT, [[rng.randrange(2) for _ in range(5)]
                                    for _ in range(5)])
    for _ in range(2000):
        gibbs_oracle.set_cell(cfg, rng.randrange(5), rng.randrange(5), rng.randrange(2))
    assert cfg.energy == cfg.recompute_energy()


def test_update_returns_exact_delta():
    cfg = TorusConfig(TS2, AB_POT, [[0, 0], [0, 0]])
    delta = gibbs_oracle.set_cell(cfg, 1, 0, 1)
    # A B on the top row: occurrence at (0,0) and the wrap pair (B,A) is fine
    assert delta == 2 and cfg.energy == 2
    delta = gibbs_oracle.set_cell(cfg, 1, 0, 0)
    assert delta == -2 and cfg.energy == 0


def test_boltzmann_uniform_at_beta_zero():
    tab = boltzmann_exact(TS2, AB_POT, 2, 0.0)
    assert all(p == Fraction(1, 16) for p in tab.probabilities.values())
    assert sum(tab.probabilities.values()) == 1


def test_boltzmann_normalizes_exactly():
    tab = boltzmann_exact(TS2, AB_POT, 2, 1.7)
    assert sum(tab.probabilities.values()) == 1
    assert all(e >= 0 for e in tab.energies.values())


def test_boltzmann_zero_to_one_violation_ratio():
    beta = 2.0
    tab = boltzmann_exact(TS2, AB_POT, 2, beta)
    zero = tab.probabilities[(0, 0, 0, 0)]
    one = tab.probabilities[(0, 1, 0, 0)]
    # one domino occurrence costs 2w, so the ratio is exp(2 beta w) up to the
    # float base; exactly it is base^(-2)
    assert zero / one == Fraction(1) / tab.base ** 2
    assert abs(float(zero / one) - math.exp(2 * beta)) < 1e-9


def test_boltzmann_relabel_symmetry():
    # forbid both orders: swapping A and B is then a potential symmetry
    sym = Potential.from_patterns([((("A", "B"),), 1), ((("B", "A"),), 1)])
    tab = boltzmann_exact(TS2, sym, 2, 1.0)
    for key, p in tab.probabilities.items():
        swapped = tuple(1 - v for v in key)
        assert tab.probabilities[swapped] == p


def test_boltzmann_budget_refusal():
    with pytest.raises(BudgetExceeded):
        boltzmann_exact(TS2, AB_POT, 3, 1.0, budget=100)


def test_boltzmann_one_tile_past_64_cells():
    # one configuration, but more cells (and rows) than numpy has dimensions:
    # each of the 81 and 4 900 cells anchors one A A domino, of support 2
    for side in (9, 70):
        tab = boltzmann_exact(free_tileset(("A",)), Potential.from_patterns([((("A", "A"),), 1)]),
                              side, 1.0)
        assert tab.energies == {(0,) * side * side: 2 * side * side}
        assert tab.probabilities == {(0,) * side * side: 1}


# three tiles on a side-2 torus: 81 configurations, codes up to 2
TS3 = free_tileset(("A", "B", "C"))
AC_PAIRS = [((("A", "C"),), 1), ((("C",), ("B",)), Fraction(1, 2))]


def test_boltzmann_views_follow_iter_product():
    tab = boltzmann_exact(TS3, Potential.from_patterns(AC_PAIRS), 2, 1.0)
    keys = list(iter_product(range(3), repeat=4))
    for view in (tab.energies, tab.probabilities):
        assert list(view) == list(view.keys()) == keys
        assert [k for k, _ in view.items()] == keys
        assert list(view.values()) == [v for _, v in view.items()] == [view[k] for k in keys]
        assert len(view) == len(view.keys()) == len(view.values()) == len(view.items()) == 81
        assert ((2, 0, 1, 2), view[2, 0, 1, 2]) in view.items()
        assert view[2, 0, 1, 2] in view.values()
    assert sum(tab.probabilities.values()) == 1
    # one read-only level-id array; the level law is read off it
    ids = tab.energies.level_ids
    assert ids is tab.probabilities.level_ids and ids.dtype == np.int32
    with pytest.raises(ValueError):
        ids[0] = 1
    law = dict(zip(tab.energies.levels, np.bincount(ids).tolist()))
    assert law == Counter(tab.energies.values())


def test_boltzmann_view_lookups():
    tab = boltzmann_exact(TS3, Potential.from_patterns(AC_PAIRS), 2, 1.0)
    view = tab.probabilities
    key = (2, 0, 1, 2)
    p = view[key]
    assert key in view and view.get(key) == p
    assert view[tuple(np.array(key))] == p  # np.int64 entries
    plain = dict(view.items())
    # found exactly when a dict of the same items finds the key: entries that
    # hash and compare like a code are codes
    for odd in [(2, 0, True, 2), (2, 0, 1.0, 2), (np.int8(2), 0, 1, np.uint64(2)),
                (2, 0, 1), (2, 0, 1, 2, 0), (), (3, 0, 1, 2), (-1, 0, 1, 2),
                (2, 0, 1.5, 2), ("2", 0, 1, 2), (None, 0, 1, 2), "2012", 2012, None,
                ((2, 0), (1, 2))]:
        assert view.get(odd) == plain.get(odd)
        assert (odd in view) == (odd in plain)
        if odd not in plain:
            with pytest.raises(KeyError):
                view[odd]
    # unhashable keys, which a dict refuses with TypeError, are missing keys
    for bad in [list(key), np.array(key), (2, 0, [1], 2)]:
        with pytest.raises(KeyError):
            view[bad]
        assert bad not in view and view.get(bad) is None
    with pytest.raises(TypeError):
        view[key] = p


def test_boltzmann_views_equal_the_oracle_dicts():
    got = boltzmann_exact(TS3, Potential.from_patterns(AC_PAIRS), 2, 1.0)
    want = gibbs_oracle.boltzmann_exact(TS3, AC_PAIRS, 2, 1.0, 100)
    assert got == want and want == got
    for view, plain in ((got.energies, want.energies),
                        (got.probabilities, want.probabilities)):
        assert type(plain) is dict
        assert view == plain and plain == view
        assert not view != plain and not plain != view
        changed = dict(plain)
        changed[2, 0, 1, 2] += 1
        assert view != changed and changed != view
        del changed[2, 0, 1, 2]
        assert view != changed and changed != view
    assert got.energies != got.probabilities


def test_boltzmann_exact_peak_is_its_level_ids_and_two_level_arrays():
    # the toy at side 4: 65 536 configurations, one int32 level id each; the
    # level of each configuration, at most 8 bytes, and its int64 search
    # position are the only other arrays that size
    count = 2 ** 16
    tracemalloc.start()
    try:
        tab = boltzmann_exact(TS2, AB_POT, 4, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tab.probabilities) == count
    assert peak <= 4 * count + 2 * 8 * count + 2 ** 20


# the toy's ground configurations have every row constant: 2^side of them;
# forbidding A above A too leaves no two all-A rows adjacent, and the
# independent sets of a cycle of side rows number the Lucas numbers; hard
# squares (no two A adjacent) count the independent sets of the torus grid,
# none with an all-A first row, so the ground level is not configuration 0's
@pytest.mark.parametrize("pairs, degeneracy", [
    (AB_PAIRS, {2: 4, 3: 8, 4: 16}),
    (AB_PAIRS + [((("A",), ("A",)), 1)], {2: 3, 3: 4, 4: 7}),
    ([((("A", "A"),), 1), ((("A",), ("A",)), 1)], {2: 7, 3: 34, 4: 743}),
])
def test_boltzmann_first_level_is_the_ground_level_and_its_degeneracy(pairs, degeneracy):
    potential = Potential.from_patterns(pairs)
    for side, count in degeneracy.items():
        energies = boltzmann_exact(TS2, potential, side, 1.0).energies
        assert energies.levels[0] == min(energies.values()) == 0
        assert list(energies.levels) == sorted(energies.levels)
        assert np.bincount(energies.level_ids)[0] == count


def test_acceptance_probability_values():
    y = boltzmann_base(1.0, 1)
    assert acceptance_probability(y, 1, Fraction(0)) == 1
    assert acceptance_probability(y, 1, Fraction(-5)) == 1
    assert acceptance_probability(y, 1, Fraction(2)) == y ** 2
    with pytest.raises(InputError):
        acceptance_probability(y, 1, Fraction(1, 3))


@st.composite
def power_case(draw):
    """(y, n) with 0 <= y <= 1: y read from a float, as the chain's base is,
    one whose y^n lands near the subnormal range, or a small rational."""
    n = draw(st.integers(1, 400))
    kind = draw(st.sampled_from(["float", "subnormal", "ratio"]))
    if kind == "float":
        return Fraction(draw(st.floats(0, 1))), n
    if kind == "subnormal":
        return Fraction(math.exp(-draw(st.floats(700, 760)) / n)), n
    den = draw(st.integers(1, 64))
    return Fraction(draw(st.integers(0, den)), den), n


# 2^-100 above the tie 1/2 + 2^-54, so it rounds up; both ends of a
# first-precision interval rounded down would sit on the tie and round down
_ABOVE_TIE = Fraction(math.isqrt(((1 << 53) + 1) << 146) + 1, 1 << 100)


@given(power_case())
@example((_ABOVE_TIE, 2))
@example((Fraction(2 ** 27 - 1, 2 ** 27), 2))  # y^n halfway between two floats
@example((Fraction(1, 32), 215))  # 2^-1075: half the least subnormal, rounds to 0
@example((Fraction(3, 4), 1 << 10))
@example((Fraction(1, 2), 1074))  # the least subnormal itself
@example((Fraction(1), 400))
@settings(max_examples=300, deadline=None)
def test_power_float_is_the_rounded_exact_power(case):
    y, n = case
    assert power_float(y, n) == float(y ** n)


def test_power_float_domain():
    for y, n in ((Fraction(3, 2), 2), (Fraction(-1, 2), 2), (Fraction(1, 2), 0)):
        with pytest.raises(InputError):
            power_float(y, n)


def test_detailed_balance_is_exact():
    tab = boltzmann_exact(TS2, AB_POT, 2, 1.5)
    y, d = tab.base, tab.denominator
    for w in tab.probabilities:
        for site in range(4):
            for t in range(2):
                w2 = list(w)
                w2[site] = t
                w2 = tuple(w2)
                de = tab.energies[w2] - tab.energies[w]
                fwd = tab.probabilities[w] * acceptance_probability(y, d, de)
                bwd = tab.probabilities[w2] * acceptance_probability(y, d, -de)
                assert fwd == bwd


def test_metropolis_deterministic_and_coherent():
    a = metropolis(TS2, AB_POT, 3, 0.8, 3000, rng_seed=41, cadence=500)
    b = metropolis(TS2, AB_POT, 3, 0.8, 3000, rng_seed=41, cadence=500)
    assert a.trace == b.trace
    assert np.array_equal(a.config.cells, b.config.cells)
    assert a.config.energy == a.config.recompute_energy()
    c = metropolis(TS2, AB_POT, 3, 0.8, 3000, rng_seed=42, cadence=500)
    assert not np.array_equal(a.config.cells, c.config.cells) or a.trace != c.trace


def test_metropolis_validation():
    with pytest.raises(InputError):
        metropolis(TS2, AB_POT, 2, 1.0, 0, rng_seed=1)
    with pytest.raises(InputError, match="rng_seed"):
        metropolis(TS2, AB_POT, 2, 1.0, 10, rng_seed=-1)
    for cadences in ({"cadence": -3}, {"sample_cadence": -1}):
        with pytest.raises(InputError, match="cadence"):
            metropolis(TS2, AB_POT, 2, 1.0, 10, rng_seed=1, **cadences)


def test_metropolis_beta_zero_marginals_uniform():
    res = metropolis(TS2, AB_POT, 2, 0.0, 60000, rng_seed=99, sample_cadence=8)
    n = len(res.samples)
    freq = sum(s[0] for s in res.samples) / n
    sigma = math.sqrt(0.25 / n)
    assert abs(freq - 0.5) <= 3 * sigma
    assert res.accepted == res.steps


def test_metropolis_matches_exact_distribution():
    # pilot-tuned budget: 400k steps, sample every 4, 10% burn-in gives
    # TV about 0.008 on this instance
    exact = boltzmann_exact(TS2, AB_POT, 2, 1.0)
    res = metropolis(TS2, AB_POT, 2, 1.0, 400000, rng_seed=2026, sample_cadence=4)
    burn = len(res.samples) // 10
    counts = Counter(res.samples[burn:])
    n = sum(counts.values())
    tv = sum(abs(Fraction(counts.get(k, 0), n) - p)
             for k, p in exact.probabilities.items()) / 2
    assert tv < Fraction(1, 100)


def test_annealing_lowers_energy_in_expectation():
    final = []
    for beta in [0.0, 1.0, 3.0]:
        energies = []
        for seed in range(5):
            res = metropolis(TS2, AB_POT, 4, beta, 4000, rng_seed=seed, cadence=4000)
            energies.append(float(res.trace[-1][1]))
        final.append(sum(energies) / len(energies))
    assert final[0] > final[1] > final[2]


def test_torus_coverage_all_and_none():
    mk = MarkerSet([Patch.from_ids([["A"]])])
    cfg = TorusConfig(TS2, B_POT, [[0, 0], [0, 0]])
    assert torus_coverage(cfg, mk, TS2.index) == 1
    cfg = TorusConfig(TS2, B_POT, [[1, 1], [1, 1]])
    assert torus_coverage(cfg, mk, TS2.index) == 0


def test_torus_coverage_wraps():
    mk = MarkerSet([Patch.from_ids([["A", "B"]])])
    # occurrence spans the seam: A at the right edge, B wrapping to column 0
    cfg = TorusConfig(TS2, AB_POT, [[1, 0], [1, 1]])
    assert torus_coverage(cfg, mk, TS2.index) == Fraction(2, 4)


def test_torus_coverage_unknown_marker_tile():
    mk = MarkerSet([Patch.from_ids([["Z"]])])
    cfg = TorusConfig(TS2, B_POT, [[0, 0], [0, 0]])
    assert torus_coverage(cfg, mk, TS2.index) == 0


def test_coverage_increases_with_beta_on_toy_model():
    mk = MarkerSet([Patch.from_ids([["A"]])])
    betas = [0.0, 0.5, 1.0, 2.0, 4.0]
    rows = coverage_sweep(TS2, B_POT, mk, 6, betas, 4000, seeds=[1, 2, 3])
    assert spearman_rank(betas, [r["mean_coverage"] for r in rows]) > 0.9
    assert rows[-1]["mean_coverage"] > 0.95


def test_coverage_sweep_validation():
    mk = MarkerSet([Patch.from_ids([["A"]])])
    with pytest.raises(InputError):
        coverage_sweep(TS2, B_POT, mk, 4, [], 100, seeds=[1])
    with pytest.raises(InputError):
        coverage_sweep(TS2, B_POT, mk, 4, [1.0], 100, seeds=[])


def test_robinson_beta_zero_baseline():
    # scale-1 markers are the four 1x1 bumpy crosses, so a uniform random
    # grid covers a cell with probability 4/88
    ts = build_tileset()
    pot = adjacency_potential(ts)
    mk = robinson_marker_set(1)
    res = metropolis(ts, pot, 12, 0.0, 3000, rng_seed=5, markers=mk, cadence=500)
    covs = [c for _, _, c in res.trace if c is not None]
    mean = sum(covs) / len(covs)
    assert abs(mean - 4 / 88) < 0.03
    assert res.trace[0][1] == res.config.recompute_energy() or len(covs) > 1


def test_adjacency_potential_matches_checker():
    ts = build_tileset()
    pot = adjacency_potential(ts)
    # a legal 2x2 block from the scale-2 macro-tile has zero adjacency energy
    from groundlab.robinson import build_macro_tile
    macro = build_macro_tile(2)
    block = macro.subpatch(0, 0, 3, 3)
    idx = {t.id: i for i, t in enumerate(ts.tiles)}
    cells = [[idx[block.id_at(x, y)] for x in range(3)] for y in range(3)]
    cfg = TorusConfig(ts, pot, cells)
    # the patch is admissible inside, though the torus wrap may add seams:
    # compare against the naive count of wrap violations only
    rows_ok = all(ts.h_compat[cells[y][x], cells[y][(x + 1) % 3]]
                  for y in range(3) for x in range(2))
    assert rows_ok
    assert cfg.energy == cfg.recompute_energy()


def test_trace_csv_shape():
    res = metropolis(TS2, AB_POT, 2, 0.5, 100, rng_seed=3, cadence=50)
    text = trace_csv(res)
    lines = text.strip().splitlines()
    assert lines[0] == "step,energy,coverage"
    assert lines[1].startswith("0,")


def test_spearman_rank():
    assert spearman_rank([1, 2, 3], [10, 20, 30]) == 1.0
    assert spearman_rank([1, 2, 3], [30, 20, 10]) == -1.0
    assert abs(spearman_rank([1, 2, 3, 4], [1, 1, 2, 2]) - 0.8944) < 1e-3
    with pytest.raises(InputError):
        spearman_rank([1, 2], [1, 1])
