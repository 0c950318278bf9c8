"""Turing machines: stall-on-halt runs, budgets, word measures, dispatch.

Machines run on a one-sided tape (moving left at cell 0 stays at cell 0) and
stall forever once a final state is reached.  A word machine, run on a k-bit
seed, halts leaving letters 'u'/'d' on its tape; averaging the output word
over all 2^k seeds uniformly yields the machine's word measure at scale k.
A seed pair (x, y) drives a selector: y = 1^i chooses the i-th machine of a
fixed enumeration, empty y keeps the default, anything else is rejected.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .measures import WordMeasure
from .tiles import InputError

DESK_BUDGET_CAP = 10_000_000


class NonConformingError(RuntimeError):
    """A machine breached its step budget (or left a non-word output)."""

    def __init__(self, message: str, seed: Optional[str] = None):
        super().__init__(message)
        self.seed = seed


@dataclass(frozen=True)
class Machine:
    states: tuple
    initial: str
    finals: frozenset
    input_alphabet: tuple
    tape_alphabet: tuple
    blank: str
    delta: dict = field(hash=False)
    name: str = field(default="", compare=False)

    def __post_init__(self):
        # order of declaration is irrelevant; normalize so equality is semantic
        object.__setattr__(self, "states", tuple(sorted(set(self.states))))
        object.__setattr__(self, "input_alphabet",
                           tuple(sorted(set(self.input_alphabet))))
        object.__setattr__(self, "tape_alphabet",
                           tuple(sorted(set(self.tape_alphabet))))
        states = set(self.states)
        tape = set(self.tape_alphabet)
        if self.initial not in states:
            raise InputError("initial state unknown")
        if not self.finals <= states:
            raise InputError("final states unknown")
        if not set(self.input_alphabet) <= tape:
            raise InputError("input alphabet must sit inside the tape alphabet")
        if self.blank not in tape or self.blank in self.input_alphabet:
            raise InputError("blank must be a tape symbol outside the input alphabet")
        for (q, a), (q2, b, mv) in self.delta.items():
            if q not in states or q2 not in states:
                raise InputError(f"rule ({q},{a}) uses unknown state")
            if a not in tape or b not in tape:
                raise InputError(f"rule ({q},{a}) uses unknown symbol")
            if mv not in (-1, 1):
                raise InputError("moves are -1 or +1")
        for q in self.states:
            if q in self.finals:
                continue
            for a in self.tape_alphabet:
                if (q, a) not in self.delta:
                    raise InputError(f"missing rule for ({q}, {a})")


def machine_to_json(m: Machine) -> str:
    """Canonical serialization: sorted keys, rules sorted by (state, read)."""
    doc = {
        "states": sorted(m.states),
        "initial": m.initial,
        "final": sorted(m.finals),
        "input_alphabet": sorted(m.input_alphabet),
        "tape_alphabet": sorted(m.tape_alphabet),
        "blank": m.blank,
        "delta": [
            {"state": q, "read": a, "next": q2, "write": b, "move": mv}
            for (q, a), (q2, b, mv) in sorted(m.delta.items())
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def machine_from_json(text: str, name: str = "") -> Machine:
    try:
        doc = json.loads(text)
        delta = {}
        for row in doc["delta"]:
            key = (row["state"], row["read"])
            if key in delta:
                raise InputError(f"duplicate rule for {key}")
            delta[key] = (row["next"], row["write"], row["move"])
        return Machine(
            states=tuple(doc["states"]),
            initial=doc["initial"],
            finals=frozenset(doc["final"]),
            input_alphabet=tuple(doc["input_alphabet"]),
            tape_alphabet=tuple(doc["tape_alphabet"]),
            blank=doc["blank"],
            delta=delta,
            name=name,
        )
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed machine json: {exc}") from exc


@dataclass
class RunResult:
    state: str
    head: int
    steps: int
    halted: bool
    tape: dict
    blank: str

    def tape_word(self, length: int) -> str:
        return "".join(self.tape.get(i, self.blank) for i in range(length))

    def extent(self) -> int:
        return max(self.tape) + 1 if self.tape else 0


def _check_input(machine: Machine, word: str):
    for ch in word:
        if ch not in machine.input_alphabet:
            raise InputError(f"input symbol {ch!r} outside the input alphabet")


def run(machine: Machine, word: str, budget: int = DESK_BUDGET_CAP) -> RunResult:
    """Execute until halt or budget; the head clamps at the left edge."""
    _check_input(machine, word)
    return _resume(machine, machine.initial, 0, dict(enumerate(word)), 0, budget)


def _resume(machine: Machine, state: str, head: int, tape: dict, steps: int,
            budget: int) -> RunResult:
    """Continue a run from (state, head, tape, steps) until halt or budget."""
    finals = machine.finals
    delta = machine.delta
    blank = machine.blank
    while state not in finals:
        if steps >= budget:
            return RunResult(state, head, steps, False, tape, blank)
        sym = tape.get(head, blank)
        state, write, move = delta[(state, sym)]
        tape[head] = write
        head = max(0, head + move)
        steps += 1
    return RunResult(state, head, steps, True, tape, blank)


def b_read(k: int) -> int:
    """Letters read off a scale-k computation: max(1, floor(log2 max(k, 2)))."""
    return max(1, max(k, 2).bit_length() - 1)


def seed_budget(k: int) -> int:
    """Per-seed step budget 2^(3^k), capped at the desk limit."""
    e = 3 ** k
    if e >= DESK_BUDGET_CAP.bit_length() + 8:
        return DESK_BUDGET_CAP
    return min(2 ** e, DESK_BUDGET_CAP)


# Seeds run as numpy lanes in blocks of at most _BLOCK_LANES, which bounds the
# tape array's memory, for at most _LOCKSTEP_STEPS steps; a lane still running
# then continues alone on `_resume`, so a machine that never halts costs one
# interpreted run to its budget, not that many numpy steps.
_BLOCK_LANES = 1 << 12
_LOCKSTEP_STEPS = 1 << 12


class _Delta:
    """The delta as flat tables indexed by state row (state index * |tape
    alphabet|) + symbol code: next state row, written code, move, and
    whether the row's state is final."""

    def __init__(self, machine: Machine):
        self.symbols = machine.tape_alphabet
        self.code = {a: i for i, a in enumerate(self.symbols)}
        g = len(self.symbols)
        self.dtype = np.min_scalar_type(g - 1)
        row = {q: i * g for i, q in enumerate(machine.states)}
        size = len(machine.states) * g
        self.initial = row[machine.initial]
        self.next = np.zeros(size, np.intp)
        self.write = np.zeros(size, self.dtype)
        self.move = np.zeros(size, np.intp)
        for (q, a), (q2, b, mv) in machine.delta.items():
            i = row[q] + self.code[a]
            self.next[i], self.write[i], self.move[i] = row[q2], self.code[b], mv
        self.final = np.zeros(size, bool)
        self.final[[row[q] for q in machine.finals]] = True
        # a code is a letter when its symbol spells only 'u'/'d' characters
        self.letter = np.array([set(a) <= {"u", "d"} for a in self.symbols])


def _lockstep(machine: Machine, delta: _Delta, k: int, depth: int, budget: int,
              lo: int, hi: int):
    """Yield (word, count) over seeds lo..hi-1, run together as lanes.

    Raises at the lowest failing seed of the block, as `run` seed by seed
    would: a run past the budget, or a depth-prefix that is not a word.
    """
    symbols, blank = delta.symbols, delta.code[machine.blank]
    g = len(symbols)
    n = hi - lo
    d = max(depth, 0)
    width = max(k, d) + 1
    tape = np.full((n, width), blank, delta.dtype)
    # without '1' in the input alphabet the block is seed 0 alone: no 1 bits
    bit = np.array([delta.code["0"], delta.code.get("1", 0)], delta.dtype)
    seeds = np.arange(lo, hi)
    for j in range(k):               # column by column: no n x k temporaries
        tape[:, j] = bit[(seeds >> (k - 1 - j)) & 1]
    lanes = np.arange(n)             # seed - lo of each live lane
    state = np.full(n, delta.initial, np.intp)
    head = np.zeros(n, np.intp)
    base = lanes * width             # flat index of each live lane's cell 0
    flat = tape.reshape(-1)
    prefix = np.zeros((n, d), delta.dtype)  # depth-prefix, once halted
    steps = 0
    limit = min(budget, _LOCKSTEP_STEPS)
    while True:
        stop = delta.final.take(state)
        if stop.any():
            prefix[lanes[stop]] = tape[stop, :d]
            live = ~stop
            lanes, state, head, tape = lanes[live], state[live], head[live], tape[live]
            base, flat = np.arange(len(lanes)) * width, tape.reshape(-1)
        if not len(lanes) or steps >= limit:
            break
        at = base + head
        i = state + flat.take(at)
        flat[at] = delta.write.take(i)
        state = delta.next.take(i)
        head = np.maximum(head + delta.move.take(i), 0)
        steps += 1
        if steps >= width and head.max() >= width:
            tape = np.concatenate([tape, np.full_like(tape, blank)], axis=1)
            width *= 2
            base, flat = np.arange(len(lanes)) * width, tape.reshape(-1)
    halted = np.ones(n, bool)
    halted[lanes] = False
    bad = np.flatnonzero(halted & ~delta.letter[prefix].all(axis=1))
    first_bad = int(bad[0]) if len(bad) else n
    for j, lane in enumerate(lanes.tolist()):
        if lane > first_bad:
            break
        bits = format(lo + lane, f"0{k}b")
        res = _resume(machine, machine.states[state[j] // g], int(head[j]),
                      dict(enumerate(symbols[c] for c in tape[j].tolist())),
                      steps, budget)
        if not res.halted:
            raise NonConformingError(
                f"machine {machine.name or '?'} exceeded {budget} steps", seed=bits)
        prefix[lane] = [delta.code[res.tape.get(c, machine.blank)] for c in range(d)]
        if not delta.letter[prefix[lane]].all():
            first_bad = lane
    if first_bad < n:
        w = "".join(symbols[c] for c in prefix[first_bad].tolist())
        raise NonConformingError(
            f"machine {machine.name or '?'} left a non-word output {w!r}",
            seed=format(lo + first_bad, f"0{k}b"))
    # equal prefixes side by side (lexsort needs a key: with d = 0 every
    # prefix is the empty word already)
    prefix = prefix[np.lexsort(prefix.T)] if d else prefix
    starts = np.flatnonzero(np.r_[True, (prefix[1:] != prefix[:-1]).any(axis=1)])
    for row, count in zip(prefix[starts].tolist(), np.diff(np.r_[starts, n]).tolist()):
        yield "".join(symbols[c] for c in row), count


def word_measure(machine: Machine, k: int, depth: Optional[int] = None,
                 budget: Optional[int] = None) -> WordMeasure:
    """Average the output word over all 2^k seeds, exact rational weights.

    Seeds advance in lockstep, as numpy lanes over the compiled delta; the
    measure, and the error raised at the lowest failing seed, are those of
    running each seed through `run` in order.
    """
    if k < 1:
        raise InputError("scale k must be >= 1")
    if depth is None:
        depth = b_read(k)
    if budget is None:
        budget = seed_budget(k)
    total = 2 ** k
    alphabet = set(machine.input_alphabet)
    # the seeds before the first one holding a symbol outside the alphabet
    valid = total if {"0", "1"} <= alphabet else int("0" in alphabet)
    delta = _Delta(machine)
    counts = {}
    for lo in range(0, valid, _BLOCK_LANES):
        for w, c in _lockstep(machine, delta, k, depth, budget, lo,
                              min(valid, lo + _BLOCK_LANES)):
            counts[w] = counts.get(w, 0) + c
    if valid < total:
        _check_input(machine, format(valid, f"0{k}b"))
    return WordMeasure.from_dict(depth, {w: Fraction(c, total)
                                         for w, c in counts.items()})


# ---------------------------------------------------------------- corpus ---

def _total(delta, states, finals, tape):
    for q in states:
        if q in finals:
            continue
        for a in tape:
            delta.setdefault((q, a), (q, a, 1))
    return delta


def immediate_halt() -> Machine:
    return Machine(("h",), "h", frozenset(["h"]), ("0", "1"),
                   ("0", "1", "#"), "#", {}, name="immediate-halt")


def left_mover() -> Machine:
    tape = ("0", "1", "#")
    delta = {("m", a): ("m", a, -1) for a in tape}
    return Machine(("m",), "m", frozenset(), ("0", "1"), tape, "#", delta,
                   name="left-mover")


def incrementer() -> Machine:
    """Three states: run right, carry back, halt.  '011' becomes '100'."""
    tape = ("0", "1", "#")
    delta = {
        ("r", "0"): ("r", "0", 1),
        ("r", "1"): ("r", "1", 1),
        ("r", "#"): ("c", "#", -1),
        ("c", "1"): ("c", "0", -1),
        ("c", "0"): ("h", "1", 1),
        ("c", "#"): ("h", "#", 1),
    }
    return Machine(("r", "c", "h"), "r", frozenset(["h"]), ("0", "1"),
                   tape, "#", delta, name="incrementer")


def constant_writer(letter: str) -> Machine:
    """Overwrite the whole seed with one letter; ignores its input."""
    if letter not in ("u", "d"):
        raise InputError("constant writer emits 'u' or 'd'")
    tape = ("0", "1", "u", "d", "#")
    delta = {("w", a): ("w", letter, 1) for a in ("0", "1", "u", "d")}
    delta[("w", "#")] = ("h", "#", 1)
    return Machine(("w", "h"), "w", frozenset(["h"]), ("0", "1"), tape, "#",
                   delta, name=f"constant-{letter}")


def copier() -> Machine:
    """Spread the first seed bit over the whole seed (0 -> u, 1 -> d)."""
    tape = ("0", "1", "u", "d", "#")
    delta = {
        ("s", "0"): ("a", "u", 1),
        ("s", "1"): ("b", "d", 1),
    }
    for a in ("0", "1", "u", "d"):
        delta[("a", a)] = ("a", "u", 1)
        delta[("b", a)] = ("b", "d", 1)
    delta[("a", "#")] = ("h", "#", 1)
    delta[("b", "#")] = ("h", "#", 1)
    _total(delta, ("s",), set(), ("u", "d", "#"))
    return Machine(("s", "a", "b", "h"), "s", frozenset(["h"]), ("0", "1"),
                   tape, "#", delta, name="copier")


def parity_machine() -> Machine:
    """Spread the parity of the seed over the whole seed (even -> u, odd -> d)."""
    tape = ("0", "1", "u", "d", "#")
    delta = {
        ("p0", "0"): ("p0", "0", 1),
        ("p0", "1"): ("p1", "1", 1),
        ("p1", "0"): ("p1", "0", 1),
        ("p1", "1"): ("p0", "1", 1),
        ("p0", "#"): ("l0", "#", -1),
        ("p1", "#"): ("l1", "#", -1),
        ("l0", "0"): ("l0", "u", -1),
        ("l0", "1"): ("l0", "u", -1),
        ("l1", "0"): ("l1", "d", -1),
        ("l1", "1"): ("l1", "d", -1),
        # reading a written letter means the head clamped at cell 0: done
        ("l0", "u"): ("h", "u", 1),
        ("l1", "d"): ("h", "d", 1),
    }
    _total(delta, ("p0", "p1", "l0", "l1"), set(), tape)
    return Machine(("p0", "p1", "l0", "l1", "h"), "p0", frozenset(["h"]),
                   ("0", "1"), tape, "#", delta, name="parity")


def fair_coin() -> Machine:
    """Alias wiring: the copier already flips a fair coin on its first bit."""
    m = copier()
    return Machine(m.states, m.initial, m.finals, m.input_alphabet,
                   m.tape_alphabet, m.blank, m.delta, name="fair-coin")


def corpus() -> dict:
    ms = [immediate_halt(), left_mover(), incrementer(), constant_writer("u"),
          constant_writer("d"), copier(), parity_machine(), fair_coin()]
    return {m.name: m for m in ms}


def machine_enumeration() -> tuple:
    """Word machines in length-lexicographic order of canonical serialization.

    Returns (machines, version) where version fingerprints the artifact.
    """
    word_machines = [constant_writer("u"), constant_writer("d"), copier(),
                     parity_machine()]
    keyed = sorted(word_machines, key=lambda m: (len(machine_to_json(m)),
                                                 machine_to_json(m)))
    digest = hashlib.sha256(
        "\n".join(machine_to_json(m) for m in keyed).encode()).hexdigest()
    return tuple(keyed), f"sha256:{digest}"


# ------------------------------------------------------- universal runner ---

def simulate_universal(encoded: str, word: str,
                       budget: int = DESK_BUDGET_CAP) -> tuple:
    """Interpret an encoded machine, charging interpreter overhead per step.

    Each simulated step costs 1 + (number of rules) + (current tape extent),
    which models scanning the program and shuttling to the work zone.  Returns
    (RunResult, universal_steps); the result matches run() on the decoded
    machine exactly.
    """
    machine = machine_from_json(encoded)
    _check_input(machine, word)
    overhead = len(machine.delta)
    tape = {i: ch for i, ch in enumerate(word)}
    extent = len(word)
    state = machine.initial
    head = 0
    steps = 0
    cost = 0
    while state not in machine.finals:
        if steps >= budget:
            return RunResult(state, head, steps, False, tape, machine.blank), cost
        sym = tape.get(head, machine.blank)
        state, write, move = machine.delta[(state, sym)]
        tape[head] = write
        head = max(0, head + move)
        extent = max(extent, head + 1)
        steps += 1
        cost += 1 + overhead + extent
    return RunResult(state, head, steps, True, tape, machine.blank), cost


def universal_cost_constant(machines: Sequence[Machine], inputs: Sequence[str],
                            budget: int = 100_000) -> Fraction:
    """Smallest rational c with cost <= c * steps^2 + c over all given runs."""
    worst = Fraction(0)
    for m in machines:
        enc = machine_to_json(m)
        for w in inputs:
            res, cost = simulate_universal(enc, w, budget)
            direct = run(m, w, budget)
            if res.halted != direct.halted or res.steps != direct.steps:
                raise InputError("universal simulation diverged from direct run")
            worst = max(worst, Fraction(cost, direct.steps ** 2 + 1))
    return worst


# ----------------------------------------------------------- seed selector ---

@dataclass(frozen=True)
class DispatchOutcome:
    kind: str                      # 'default' | 'selected' | 'forbidden'
    index: int                     # 1-based enumeration index, 0 for default
    machine: Optional[Machine]


def selector_dispatch(default_machine: Machine, enumeration: Sequence[Machine],
                      x: str, y: str) -> DispatchOutcome:
    """Route a seed pair: y = 1^i picks enumeration[i-1], empty picks default.

    Malformed y (anything not of the form 1^i #^j) is forbidden.  An index
    beyond the registered enumeration falls back to the default machine.
    """
    if any(c not in "01" for c in x):
        return DispatchOutcome("forbidden", -1, None)
    if y.lstrip("1").strip("#") != "" or len(y) > len(x):
        return DispatchOutcome("forbidden", -1, None)
    i = len(y) - len(y.lstrip("1"))
    if i == 0:
        return DispatchOutcome("default", 0, default_machine)
    if i <= len(enumeration):
        return DispatchOutcome("selected", i, enumeration[i - 1])
    return DispatchOutcome("default", 0, default_machine)


def selector_weights(k: int, n_machines: int) -> list:
    """Mixture weights over the 2^(k+1) - 1 seed words y of length <= k.

    Exactly one y of each length i in 1..min(k, n_machines) selects machine i
    (the all-ones word); every other y keeps the default.  Returns
    [(0, default weight)] + [(i, per-machine weight)...], summing to 1.
    """
    if k < 1:
        raise InputError("scale k must be >= 1")
    total = 2 ** (k + 1) - 1
    reach = min(k, n_machines)
    out = [(0, Fraction(total - reach, total))]
    for i in range(1, reach + 1):
        out.append((i, Fraction(1, total)))
    return out
