"""Straight-line word-measure reference: each of the 2^k seeds runs alone
through the `run` interpreter, in seed order.

`machines.word_measure` advances all seeds together as numpy lanes;
tests/test_machines.py checks its measures and its errors against this loop.

Below it, the selector rule's admission test as it was written out before
it read `machines.routing_index`, the one routing-word rule.
"""

from fractions import Fraction

from groundlab.machines import (NonConformingError, NonWordOutput, b_read, run,
                                seed_budget)
from groundlab.measures import WordMeasure
from groundlab.tiles import InputError


def word_measure(machine, k, depth=None, budget=None):
    if k < 1:
        raise InputError("scale k must be >= 1")
    if depth is None:
        depth = b_read(k)
    if budget is None:
        budget = seed_budget(k)
    counts = {}
    for seed in range(2 ** k):
        bits = format(seed, f"0{k}b")
        res = run(machine, bits, budget)
        if not res.halted:
            raise NonConformingError(
                f"machine {machine.name or '?'} exceeded {budget} steps "
                f"at seed {bits}", seed=bits)
        w = res.tape_word(depth)
        if any(c not in ("u", "d") for c in w):
            raise NonWordOutput(
                f"machine {machine.name or '?'} left a non-word output {w!r} "
                f"at seed {bits}", seed=bits)
        counts[w] = counts.get(w, 0) + 1
    total = 2 ** k
    return WordMeasure.from_dict(depth, {w: Fraction(c, total)
                                         for w, c in counts.items()})


def selector_admits(index, x, y):
    k = len(x)
    if len(y) != k or k < index:
        return False
    want = "1" * index + "#" * (k - index)
    return all(c in "01" for c in x) and y == want

