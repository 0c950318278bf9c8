"""Straight-line Gibbs references: one Boltzmann weight per energy level,
each configuration scored by roll and compare, and a Metropolis chain with a
separate beta = 0 branch that skips the local energy and rescans the torus at
every cadence and at the end.  Both take their energies, deltas and coverage
from the cell-by-cell loops of tests/pattern_oracle.py, not from the
library's occurrence keys.

`gibbs.boltzmann_exact` and `gibbs.metropolis` key on integer energy levels
and keep one chain for every beta; tests/test_gibbs_oracle.py checks them
against these loops.  Each loop takes the potential as its (rows, weight)
list and reads the energy denominator off that list, not off the library's
`Potential`.  The Boltzmann reference fills its table with plain dicts, one
entry per configuration; the library's table holds level ids behind
read-only views, and the two compare equal as mappings.

`set_cell` is no reference: it drives one accepted move of a torus through
the library's own occurrence keys and terms, as `gibbs.metropolis` does, so
that tests can place tiles where they choose.
"""

from collections import Counter
from fractions import Fraction
from itertools import product as iter_product
from typing import List

import numpy as np

import pattern_oracle
from groundlab.gibbs import (BoltzmannTable, MetropolisResult, Potential,
                             TorusConfig, acceptance_probability, boltzmann_base)
from groundlab.tiles import BudgetExceeded, InputError


def set_cell(config, x, y, t) -> Fraction:
    """Set cell (x, y) to tile t as an accepted Metropolis move does: the
    rise sums each covering occurrence's value after the move minus before
    it, each such key moves by (t - old) times its place value, and the
    config's energy units take the rise; the exact energy change."""
    p = y * config.side + x
    shift, keys, terms = t - int(config.cells[y, x]), config._keys, config._terms[p]
    delta = sum(get(keys[o] + shift * m, 0) - get(keys[o], 0) for o, m, get in terms)
    for o, m, _ in terms:
        keys[o] += shift * m
    config.cells[y, x] = t
    config._units += delta
    return Fraction(delta, config._denominator)


def boltzmann_exact(tileset, pairs, side, beta, budget):
    ntiles = len(tileset.tiles)
    count = ntiles ** (side * side)
    if count > budget:
        raise BudgetExceeded(
            f"{count} configurations exceed the enumeration budget {budget}")
    d = pattern_oracle.denominator(pairs)
    y = boltzmann_base(beta, d)
    assignments = list(iter_product(range(ntiles), repeat=side * side))
    stack = np.array(assignments, np.int64).reshape(count, side, side)
    compiled = pattern_oracle.compile_patterns(pairs, tileset)
    energies = dict(zip(assignments, pattern_oracle.torus_energies(compiled, stack)))
    # one weight y^n per distinct level n = e * D, a whole number
    law = Counter(energies.values())
    weights = {e: y ** int(e * d) for e in law}
    z = sum(c * weights[e] for e, c in law.items())
    level = {e: w / z for e, w in weights.items()}
    probabilities = {k: level[e] for k, e in energies.items()}
    return BoltzmannTable(denominator=d, base=y, energies=energies,
                          probabilities=probabilities)


def metropolis(tileset, pairs, side, beta, steps, rng_seed, markers=None,
               cadence=0, sample_cadence=0):
    if steps < 1:
        raise InputError("steps must be >= 1")
    if side < 1:
        raise InputError("torus side must be >= 1")
    rng = np.random.Generator(np.random.Philox(rng_seed))
    ntiles = len(tileset.tiles)
    cells = rng.integers(0, ntiles, size=(side, side))
    config = TorusConfig(tileset, Potential.from_patterns(pairs), cells)
    compiled = pattern_oracle.compile_patterns(pairs, tileset)
    d = pattern_oracle.denominator(pairs)
    y = boltzmann_base(beta, d)
    free_run = beta == 0

    def rescan():
        config._units = int(pattern_oracle.recompute_energy(compiled, config.cells) * d)

    def observe(step):
        cov = (float(pattern_oracle.torus_coverage(tileset, config.cells, markers))
               if markers is not None else None)
        trace.append((step, config.energy, cov))

    trace: List[tuple] = []
    samples: List[tuple] = []
    rescan()
    observe(0)
    accepted = 0
    done = 0
    while done < steps:
        block = min(steps - done, 1 << 14)
        xs = rng.integers(0, side, size=block)
        ys = rng.integers(0, side, size=block)
        ts = rng.integers(0, ntiles, size=block)
        us = rng.random(size=block)
        for x, yy, t, u in zip(xs, ys, ts, us):
            done += 1
            if free_run:
                config.cells[yy, x] = t
                accepted += 1
            else:
                delta = pattern_oracle.occurrences_at(compiled, config.cells, x, yy)
                old = int(config.cells[yy, x])
                config.cells[yy, x] = t
                delta = pattern_oracle.occurrences_at(compiled, config.cells, x, yy) - delta
                if delta <= 0 or u < float(acceptance_probability(y, d, delta)):
                    config._units += int(delta * d)
                    accepted += 1
                else:
                    config.cells[yy, x] = old
            if cadence and done % cadence == 0:
                if free_run:
                    rescan()
                observe(done)
            if sample_cadence and done % sample_cadence == 0:
                samples.append(tuple(int(v) for v in config.cells.ravel()))
    if free_run:
        rescan()
    if not cadence or steps % cadence != 0:
        observe(steps)
    return MetropolisResult(steps=steps, accepted=accepted, trace=trace,
                            samples=samples, config=config)
