"""Acceptance suite: nine end-to-end criteria, one pass line each.

Every criterion prints `ACCEPTANCE <n> <name>: PASS` when it holds; a failing
criterion fails its test, which is the fail line.  Tolerances and budgets are
pinned here and nowhere else.
"""

import json
import random
import time
from collections import Counter
from fractions import Fraction

from flow_oracle import closed_form_row
from groundlab.gibbs import (Potential, acceptance_probability, boltzmann_exact,
                             metropolis)
from groundlab.layers import (OdometerSchedule, default_schedule,
                              freq_bounds_scan, freq_crossing, freq_frozen)
from groundlab.machines import (corpus, machine_enumeration, machine_to_json,
                                run, simulate_universal,
                                universal_cost_constant, word_measure)
from groundlab.markers import (nonoverlap_violations, robinson_marker_set,
                               verify_nonoverlap)
from groundlab.measures import (WordMeasure, conditional_grid_measure,
                                constant_flow, flow_horizon,
                                repetition_flow, weak_star_distance)
from groundlab.perturbation import (ACCUMULATION_RADIUS, mixture_flow,
                                    perturbed_flow, report_accumulation)
from groundlab.robinson import build_macro_tile, build_tileset
from groundlab.sequences import (bernoulli, dyadic_sweep, finite_accumulation,
                                 named_sequence, tail_net)
from groundlab.thermo import thermo_table
from groundlab.tiles import EdgeLabel, Patch, Tile, Tileset, check_patch


def _report(n, name, elapsed, limit, extra=""):
    assert elapsed < limit, f"criterion {n} took {elapsed:.1f}s >= {limit}s"
    tail = f" ({extra})" if extra else ""
    print(f"\nACCEPTANCE {n} {name}: PASS in {elapsed:.2f}s{tail}")


def test_acceptance_1_robinson_hierarchy():
    t0 = time.monotonic()
    ts = build_tileset()
    quadrants = [("ne", 0, 0), ("nw", 1, 0), ("sw", 1, 1), ("se", 0, 1)]
    for n in range(1, 9):
        patch = build_macro_tile(n)
        side = 2 ** n - 1
        assert patch.width == side and patch.height == side
        assert check_patch(ts, patch) == []
        if n > 1:
            half = 2 ** (n - 1)
            for q, cx, cy in quadrants:
                sub = patch.subpatch(cx * half, cy * half, half - 1, half - 1)
                assert sub.same_cells(build_macro_tile(n - 1, q))
    _report(1, "robinson-hierarchy", time.monotonic() - t0, 10.0)


def _overlap_oracle(markers):
    # independent brute-force scan, pure python, cell by cell
    rows = [[[p.id_at(x, y) for x in range(p.width)] for y in range(p.height)]
            for p in markers.patterns]
    w, h = markers.width, markers.height
    found = set()
    for i, u in enumerate(rows):
        for j, v in enumerate(rows):
            for dy in range(-(h - 1), h):
                for dx in range(-(w - 1), w):
                    if i == j and dx == 0 and dy == 0:
                        continue
                    cells = [(x, y) for y in range(h) for x in range(w)
                             if 0 <= x - dx < w and 0 <= y - dy < h]
                    if not cells:
                        continue
                    if all(u[y][x] == v[y - dy][x - dx] for x, y in cells):
                        found.add((i, j, (dx, dy)))
    return found


def test_acceptance_2_marker_axioms():
    from groundlab.markers import MarkerSet
    t0 = time.monotonic()
    for n in range(1, 9):
        assert verify_nonoverlap(robinson_marker_set(n)) is None
    rng = random.Random(20260816)
    agreements = 0
    for _ in range(50):
        side = rng.choice([2, 3])
        count = rng.randint(1, 3)
        alphabet = ["A", "B", "C"][: rng.randint(2, 3)]
        seen = set()
        patterns = []
        while len(patterns) < count:
            rows = tuple(tuple(rng.choice(alphabet) for _ in range(side))
                         for _ in range(side))
            if rows not in seen:
                seen.add(rows)
                patterns.append(Patch.from_ids([list(r) for r in rows]))
        markers = MarkerSet(patterns)
        assert set(nonoverlap_violations(markers)) == _overlap_oracle(markers)
        agreements += 1
    _report(2, "marker-axioms", time.monotonic() - t0, 60.0,
            f"{agreements} randomized sets")


def test_acceptance_3_frozen_frequency_law():
    t0 = time.monotonic()
    sched = default_schedule()
    scan = freq_bounds_scan(10 ** 6)
    assert scan.monotone and scan.bounded
    assert scan.final_hi - scan.final_lo < Fraction(1, 2 ** 64)
    # exact product identity, forward recursion vs straight product
    for k in (1, 7, 50, 173):
        residual = Fraction(1)
        for j in range(k):
            residual *= 1 - Fraction(1, 4 * sched.t(j))
        assert 1 - freq_frozen(k, sched) == residual
    # independent straight-loop crossing oracle
    f = Fraction(0)
    k = 0
    while f < Fraction(99, 100):
        f = f + (1 - f) * Fraction(1, 4 * sched.t(k))
        k += 1
    assert freq_crossing(Fraction(99, 100), sched) == k
    _report(3, "frozen-frequency-law", time.monotonic() - t0, 5.0,
            f"0.99 crossing at k={k}")


def test_acceptance_4_conditional_calculus():
    t0 = time.monotonic()
    rng = random.Random(404)
    uniform = WordMeasure.uniform(2)
    for _ in range(100):
        ts = [rng.randint(2, 7) for _ in range(rng.randint(3, 12))]
        sched = OdometerSchedule(lambda k, ts=ts: ts[min(k, len(ts) - 1)])
        k = rng.randint(2, len(ts))
        cond = conditional_grid_measure(constant_flow(uniform), 2, k, sched)
        assert cond.blocked_mass() + cond.residual == 1
    # eventually-constant target: library horizon equals a forward-run oracle
    sched = default_schedule()
    target = WordMeasure(1, [Fraction(3, 4), Fraction(1, 4)])
    other = WordMeasure(1, [Fraction(0), Fraction(1)])
    switch = 4
    flow = lambda j: other if j < switch else target
    tol = Fraction(1, 2 ** 10)
    k_lib = flow_horizon(flow, target, 1, tol, sched, kmax=200)
    raw = [Fraction(0), Fraction(0)]
    k_oracle = None
    for k in range(1, 201):
        c = Fraction(1, 4 * sched.t(k))
        mw = flow(k).weights
        raw = [r * (1 - c) + c * w for r, w in zip(raw, mw)]
        mass = raw[0] + raw[1]
        mu = WordMeasure(1, [w / mass for w in raw])
        if weak_star_distance(mu, target) < tol:
            k_oracle = k
            break
    assert k_lib == k_oracle and k_lib is not None
    cond = conditional_grid_measure(flow, 1, k_lib, sched)
    assert weak_star_distance(cond.renormalized(), target) < tol
    _report(4, "conditional-calculus", time.monotonic() - t0, 30.0,
            f"horizon k={k_lib}")


def _seed_oracle(machine, k, depth):
    counts = {}
    for seed in range(2 ** k):
        bits = format(seed, f"0{k}b")
        res = run(machine, bits, 10 ** 6)
        assert res.halted
        counts[res.tape_word(depth)] = counts.get(res.tape_word(depth), 0) + 1
    return WordMeasure.from_dict(
        depth, {w: Fraction(c, 2 ** k) for w, c in counts.items()})


def test_acceptance_5_word_measure_exactness():
    t0 = time.monotonic()
    names = ("constant-u", "constant-d", "copier", "parity")
    table = corpus()
    for name in names:
        machine = table[name]
        for k in range(1, 17):
            depth = max(1, max(k, 2).bit_length() - 1)
            assert word_measure(machine, k) == _seed_oracle(machine, k, depth)
    # universal interpreter: semantic equality plus quadratic overhead; the
    # corpus holds non-halting machines, so runs compare under a shared cap
    inputs = ("0", "1", "0110", "111000", "10101010")
    budget = 2000
    machines = list(table.values())
    for m in machines:
        enc = machine_to_json(m)
        for w in inputs:
            sim, cost = simulate_universal(enc, w, budget=budget)
            direct = run(m, w, budget=budget)
            assert sim.halted == direct.halted
            assert sim.steps == direct.steps
            assert sim.tape_word(12) == direct.tape_word(12)
    c = universal_cost_constant(machines, inputs, budget=budget)
    assert all(simulate_universal(machine_to_json(m), w, budget=budget)[1]
               <= c * run(m, w, budget=budget).steps ** 2 + c
               for m in machines for w in inputs)
    _report(5, "word-measure-exactness", time.monotonic() - t0, 60.0,
            f"overhead constant c={c}")


def test_acceptance_6_thermo_windows():
    t0 = time.monotonic()
    rows = thermo_table(0, 13)
    assert [row["k"] for row in rows] == list(range(14))
    for a, b in zip(rows[1:], rows[2:]):
        assert a["log2_beta_lo"].definitely_less(b["log2_beta_lo"])
        assert a["log2_beta_hi"].definitely_less(b["log2_beta_hi"])
    # the first scale whose window definitely overlaps the next one
    ratios = [row["overlap_log_ratio"] for row in rows]
    threshold = next((k for k in range(13) if ratios[k].lo > 0), None)
    assert threshold is not None
    assert all(ratios[k].lo > 0 for k in range(threshold, 12))
    for k in range(threshold, 11):
        assert ratios[k].definitely_less(ratios[k + 1])
    # scaling the constants shifts log bounds additively, verdicts unmoved
    from groundlab.logdomain import log2_of_fraction
    shift = log2_of_fraction(Fraction(9))
    base_rows = thermo_table(1, 8)
    scaled_rows = thermo_table(1, 8, C=9, C_prime=9)
    for a, b in zip(base_rows, scaled_rows):
        lo_a, lo_b = a["log2_beta_lo"], b["log2_beta_lo"]
        hi_a, hi_b = a["log2_beta_hi"], b["log2_beta_hi"]
        assert lo_b.lo == lo_a.lo + shift.lo and lo_b.hi == lo_a.hi + shift.hi
        assert hi_b.lo == hi_a.lo + shift.lo and hi_b.hi == hi_a.hi + shift.hi
        assert a["entropy_pass"] == b["entropy_pass"] == "pass"
    _report(6, "thermo-windows", time.monotonic() - t0, 5.0,
            f"overlap threshold k={threshold}")


def test_acceptance_7_gibbs_oracle_equivalence():
    t0 = time.monotonic()
    lab = EdgeLabel(None, None, None, None, None)
    ts = Tileset([Tile("A", lab, lab, lab, lab),
                  Tile("B", lab, lab, lab, lab)])
    pot = Potential.from_patterns([((("A", "B"),), 1)])
    exact = boltzmann_exact(ts, pot, 2, 1.0)
    # pilot-determined budget: 400k proposals, sample every 4, 10% burn-in
    res = metropolis(ts, pot, 2, 1.0, 400000, rng_seed=2026, sample_cadence=4)
    burn = len(res.samples) // 10
    counts = Counter(res.samples[burn:])
    total = sum(counts.values())
    tv = sum(abs(Fraction(counts.get(key, 0), total) - p)
             for key, p in exact.probabilities.items()) / 2
    assert tv <= Fraction(1, 100)
    # detailed balance is an identity on the enumerable instance
    tab = boltzmann_exact(ts, pot, 2, 1.5)
    for w in tab.probabilities:
        for site in range(4):
            for t in range(2):
                w2 = list(w)
                w2[site] = t
                w2 = tuple(w2)
                de = tab.energies[w2] - tab.energies[w]
                assert (tab.probabilities[w]
                        * acceptance_probability(tab.base, tab.denominator, de)
                        == tab.probabilities[w2]
                        * acceptance_probability(tab.base, tab.denominator,
                                                 -de))
    # infinite temperature: every cell marginal uniform within 3 sigma
    free = metropolis(ts, pot, 2, 0.0, 100000, rng_seed=99, sample_cadence=8)
    n = len(free.samples)
    sigma = (0.25 / n) ** 0.5
    for cell in range(4):
        freq = sum(s[cell] for s in free.samples) / n
        assert abs(freq - 0.5) <= 3 * sigma
    _report(7, "gibbs-oracle-equivalence", time.monotonic() - t0, 120.0,
            f"TV={float(tv):.4f}")


def test_acceptance_8_perturbation_swap():
    t0 = time.monotonic()
    enum, _ = machine_enumeration()
    base = corpus()["constant-u"]
    target = corpus()["fair-coin"]
    reports = [perturbed_flow(base, target, eps, 1, 10, index=1,
                              enumeration=enum)
               for eps in (Fraction(1, 100), Fraction(1, 2), Fraction(1))]
    bodies = {r.to_json() for r in reports}
    assert len(bodies) == 1
    acc = report_accumulation(reports[0], window=4)
    assert acc.verdict == "stable"
    assert all(weak_star_distance(rep, reports[0].target_target)
               < Fraction(1, 2 ** 8) for rep in acc.representatives)
    # replacing the base machine cannot move the selector-forced tables
    swapped = perturbed_flow(corpus()["parity"], target, Fraction(1, 2), 1,
                             10, index=1, enumeration=enum)
    da, db = json.loads(reports[0].to_json()), json.loads(swapped.to_json())
    assert da["rows"] == db["rows"]
    assert da["distances"]["to_target"] == db["distances"]["to_target"]
    # zero coefficient reproduces the plain mixture pipeline exactly
    sched = default_schedule()
    rep0 = perturbed_flow(base, target, 0, 1, 8, index=1, enumeration=enum)
    flow = mixture_flow(base, enum, 1)
    for row in rep0.rows:
        assert (row.raw, row.residual) == closed_form_row(flow, 1, row.k,
                                                          sched, j_start=1)
    _report(8, "perturbation-swap", time.monotonic() - t0, 60.0)


def test_acceptance_9_stable_vs_chaotic_flows():
    t0 = time.monotonic()
    assert ACCUMULATION_RADIUS == Fraction(1, 2 ** 8)
    uniform = WordMeasure.uniform(1)
    point = WordMeasure(1, [Fraction(1), Fraction(0)])
    # eventually-constant schedule: a single cluster of zero drift
    acc = tail_net(lambda k: point if k < 6 else uniform, range(20, 31),
                   ACCUMULATION_RADIUS)
    assert acc.verdict == "stable"
    assert len(acc.representatives) == 1
    assert acc.hausdorff < ACCUMULATION_RADIUS
    # dyadic repetitions of two targets: exactly the two target clusters
    targets = [point, WordMeasure(1, [Fraction(0), Fraction(1)])]
    base = lambda i: targets[i % 2]
    flow = repetition_flow(base)
    acc2 = tail_net(flow, range(8, 41), ACCUMULATION_RADIUS)
    assert acc2.verdict == "oscillating"
    assert len(acc2.representatives) == 2
    assert set(acc2.representatives) == set(targets)
    # a segment sweep accumulates onto a connected epsilon-net
    res = Fraction(1, 16)
    acc3 = finite_accumulation(dyadic_sweep(), 128, res)
    ps = sorted(rep.weights[1] for rep in acc3.representatives)
    assert all(b - a <= 4 * res for a, b in zip(ps, ps[1:]))
    assert ps[0] <= 2 * res and ps[-1] >= 1 - 2 * res
    assert acc3.hausdorff <= res
    _report(9, "stable-vs-chaotic", time.monotonic() - t0, 30.0)
