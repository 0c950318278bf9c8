"""Straight-line Gibbs references: one Boltzmann weight per configuration, and
a Metropolis chain with a separate beta = 0 branch that skips the local
energy and rescans the torus at every cadence and at the end.

`gibbs.boltzmann_exact` and `gibbs.metropolis` key on integer energy levels
and keep one chain for every beta; tests/test_gibbs_oracle.py checks them
against these loops.
"""

from fractions import Fraction
from itertools import product as iter_product
from typing import Dict, List

import numpy as np

from groundlab.gibbs import (BoltzmannTable, MetropolisResult, TorusConfig,
                             _energy_denominator, acceptance_probability,
                             boltzmann_base, torus_coverage)
from groundlab.tiles import BudgetExceeded, InputError


def boltzmann_exact(tileset, potential, side, beta, budget):
    ntiles = len(tileset.tiles)
    count = ntiles ** (side * side)
    if count > budget:
        raise BudgetExceeded(
            f"{count} configurations exceed the enumeration budget {budget}")
    d = _energy_denominator(potential)
    y = boltzmann_base(beta, d)
    energies: Dict[tuple, Fraction] = {}
    weights: Dict[tuple, Fraction] = {}
    scratch = TorusConfig(tileset, potential, np.zeros((side, side), np.int64))
    for assignment in iter_product(range(ntiles), repeat=side * side):
        scratch.cells = np.array(assignment, np.int64).reshape(side, side)
        energies[assignment] = e = scratch.recompute_energy()
        weights[assignment] = y ** int(e * d)  # e is a whole number of 1/D
    z = sum(weights.values())
    probabilities = {k: v / z for k, v in weights.items()}
    return BoltzmannTable(side=side, beta=beta, denominator=d, base=y,
                          energies=energies, probabilities=probabilities)


def metropolis(tileset, potential, side, beta, steps, rng_seed, markers=None,
               cadence=0, sample_cadence=0, initial=None):
    if steps < 1:
        raise InputError("steps must be >= 1")
    if side < 1:
        raise InputError("torus side must be >= 1")
    rng = np.random.Generator(np.random.Philox(rng_seed))
    ntiles = len(tileset.tiles)
    if initial is None:
        cells = rng.integers(0, ntiles, size=(side, side))
    else:
        cells = np.array(initial, np.int64)
    config = TorusConfig(tileset, potential, cells)
    d = _energy_denominator(potential)
    y = boltzmann_base(beta, d)
    free_run = beta == 0

    def observe(step):
        cov = float(torus_coverage(config, markers)) if markers is not None else None
        trace.append((step, config.energy, cov))

    trace: List[tuple] = []
    samples: List[tuple] = []
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
                delta = config._local_units(int(x), int(yy))
                old = int(config.cells[yy, x])
                config.cells[yy, x] = t
                delta = config._local_units(int(x), int(yy)) - delta
                if delta <= 0 or u < float(acceptance_probability(y, d, Fraction(delta, d))):
                    config._units += delta
                    accepted += 1
                else:
                    config.cells[yy, x] = old
            if cadence and done % cadence == 0:
                if free_run:
                    config._units = int(config.recompute_energy() * d)
                observe(done)
            if sample_cadence and done % sample_cadence == 0:
                samples.append(tuple(int(v) for v in config.cells.ravel()))
    if free_run:
        config._units = int(config.recompute_energy() * d)
    if not cadence or steps % cadence != 0:
        observe(steps)
    return MetropolisResult(seed=rng_seed, beta=beta, steps=steps,
                            accepted=accepted, trace=trace, samples=samples,
                            config=config)
