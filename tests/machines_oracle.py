"""Straight-line word-measure reference: each of the 2^k seeds runs alone
through the `run` interpreter, in seed order.

`machines.word_measure` counts the seeds by crossing sequences;
tests/test_machines.py checks its measures and its errors against this loop.

Below it, the selector rule's admission test as it was written out before
it read `machines.routing_index`, the one routing-word rule, and
`alternator`, a word machine whose output depends on the scale.
"""

from fractions import Fraction

from groundlab.machines import (Machine, NonConformingError, NonWordOutput,
                                b_read, run, seed_budget)
from groundlab.measures import DEPTH_CAP, WordMeasure
from groundlab.tiles import InputError


def word_measure(machine, k, depth=None, budget=None):
    if k < 1:
        raise InputError("scale k must be >= 1")
    if depth is None:
        depth = b_read(k)
    if not 1 <= depth <= DEPTH_CAP:
        raise InputError(f"depth must be in 1..{DEPTH_CAP}")
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


def alternator():
    """Scan right over the seed writing 'x' and tracking k mod 2, then walk
    back turning each 'x' into '#'; the head clamps at cell 0, reads the '#'
    it just wrote there and writes 'u' for even k, 'd' for odd k.  Its
    depth-1 word measure at scale k is the point mass on that letter."""
    tape = ("0", "1", "x", "u", "d", "#")
    delta = {(q, a): ("h", a, 1) for q in ("e", "o", "bu", "bd") for a in tape}
    for a in ("0", "1"):
        delta["e", a] = ("o", "x", 1)
        delta["o", a] = ("e", "x", 1)
    delta["e", "#"] = ("bu", "#", -1)
    delta["o", "#"] = ("bd", "#", -1)
    for q, letter in (("bu", "u"), ("bd", "d")):
        delta[q, "x"] = (q, "#", -1)
        delta[q, "#"] = ("h", letter, 1)
    return Machine(("e", "o", "bu", "bd", "h"), "e", frozenset(["h"]), ("0", "1"),
                   tape, "#", delta, name="alternator")
