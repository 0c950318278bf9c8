"""Turing machines: stall-on-halt runs, budgets, word measures, routing.

Machines run on a one-sided tape (moving left at cell 0 stays at cell 0) and
stall forever once a final state is reached.  A word machine, run on a k-bit
seed, halts leaving letters 'u'/'d' on its tape; averaging the output word
over all 2^k seeds uniformly yields the machine's word measure at scale k.
A routing word y drives a selector: y = 1^i chooses the i-th machine of a
fixed enumeration, and any other y keeps the default (`selector_weights`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .measures import DEPTH_CAP, WordMeasure, _check_depth, word_index
from .tiles import InputError

DESK_BUDGET_CAP = 10_000_000


class NonConformingError(RuntimeError):
    """A machine breached its step budget on `seed`."""

    def __init__(self, message: str, seed: Optional[str] = None):
        super().__init__(message)
        self.seed = seed


class NonWordOutput(NonConformingError, InputError):
    """A machine halted on `seed` with a depth-prefix that is not a word: an
    input error, as the machine is not a word machine."""


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


# Seeds run as numpy lanes in aligned blocks of at most _BLOCK_LANES, a power
# of two, which bounds the tape array's memory, for at most _LOCKSTEP_STEPS
# steps; a lane still running then continues alone on `_resume`, so a machine
# that never halts costs one interpreted run to its budget, not that many
# numpy steps.  Below _SPLIT_LANES lanes a numpy step costs about the same
# whatever their number, so a split goes straight up to that many.
_BLOCK_LANES = 1 << 12
_LOCKSTEP_STEPS = 1 << 12
_SPLIT_LANES = 1 << 8


class _Delta:
    """The delta as flat tables indexed by state row (state index * |tape
    alphabet|) + symbol code: next state row, written code and move.  The
    final states are numbered last, from row `halt` on."""

    def __init__(self, machine: Machine):
        self.symbols = machine.tape_alphabet
        self.code = {a: i for i, a in enumerate(self.symbols)}
        self.blank = self.code[machine.blank]
        g = len(self.symbols)
        self.dtype = np.min_scalar_type(g - 1)
        self.states = sorted(machine.states, key=machine.finals.__contains__)
        row = {q: i * g for i, q in enumerate(self.states)}
        size = len(self.states) * g
        self.initial = row[machine.initial]
        self.halt = (len(self.states) - len(machine.finals)) * g
        self.next = np.zeros(size, np.intp)
        self.write = np.zeros(size, self.dtype)
        self.move = np.zeros(size, np.intp)
        for (q, a), (q2, b, mv) in machine.delta.items():
            i = row[q] + self.code[a]
            self.next[i], self.write[i], self.move[i] = row[q2], self.code[b], mv
        # a code is a letter when its symbol spells only 'u'/'d' characters;
        # as a word it has index `value` over `size` letters (index 0 past
        # DEPTH_CAP letters, as no word holds that many)
        self.letter = np.array([set(a) <= {"u", "d"} for a in self.symbols])
        self.value = np.array([word_index(a) if ok and len(a) <= DEPTH_CAP else 0
                               for a, ok in zip(self.symbols, self.letter)], np.int64)
        self.size = np.array([len(a) for a in self.symbols], np.int64)


def _compiled(machine: Machine) -> _Delta:
    """The machine's `_Delta`, compiled once per instance and again only when
    a field it reads no longer matches (the delta dict can be mutated)."""
    source = (machine.states, machine.initial, machine.finals,
              machine.tape_alphabet, machine.blank, machine.delta)
    cached = machine.__dict__.get("_tables")
    if cached is None or cached[0] != source:
        cached = (source[:-1] + (dict(machine.delta),), _Delta(machine))
        object.__setattr__(machine, "_tables", cached)
    return cached[1]


def _lockstep(machine: Machine, delta: _Delta, k: int, depth: int, budget: int,
              lo: int, hi: int) -> list:
    """The depth-prefix codes of seeds lo..hi-1 as (codes, span) pairs, each
    row of `codes` the prefix of `span` seeds, all seeds run as lanes.

    The block is aligned: its 2^b seeds share their first k - b cells, as
    `word_measure` cuts the seeds 0..valid-1, with valid 0, 1 or 2^k, into
    blocks of a power of two.  It starts as one lane holding its lowest
    seed.  A head can read only cells 0..s before step s, so every live lane
    splits on seed cell s just then; a lane split on its first `fixed` cells
    stands for the 2^(k - fixed) seeds sharing them, and so does its prefix
    (a seed cell past `fixed` in it is unread: a non-letter for them all,
    spelled as the lowest seed's).  Lanes still running after the lockstep
    phase split to one per seed and finish on `_resume`.

    Raises at the lowest failing seed of the block, as `run` seed by seed
    would: a run past the budget, or a depth-prefix that is not a word.
    """
    symbols, g = delta.symbols, len(delta.symbols)
    d = max(depth, 0)
    width = max(k, d) + 1
    fixed = k - (hi - lo).bit_length() + 1
    seeds = np.array([lo])
    tape = np.full((len(seeds), width), delta.blank, delta.dtype)
    # without '1' in the input alphabet the block is seed 0 alone: no 1 bits
    bit = np.array([delta.code["0"], delta.code.get("1", 0)], delta.dtype)
    tape[:, :k] = bit[(seeds[:, None] >> np.arange(k - 1, -1, -1)) & 1]
    # one column per lane: its lowest seed, state row and head cell
    lanes = np.zeros((3, len(seeds)), np.intp)
    lanes[0], lanes[1] = seeds, delta.initial
    halted = []                      # (lowest seeds, prefix codes, span)
    steps, edge = 0, width           # no head can reach cell `width` before `edge`
    limit = min(budget, _LOCKSTEP_STEPS)
    while True:
        if fixed < k and (fixed == steps or steps >= limit):
            # split on cell `fixed`, and on the next cells while lanes are
            # few; split down to one lane per seed once the phase is over
            room = (_SPLIT_LANES // lanes.shape[1]).bit_length() - 1
            r = k - fixed if steps >= limit else min(k - fixed, max(1, room))
            low = np.arange(1 << r)  # copy i of a lane holds bits i there
            lanes, tape = lanes.repeat(1 << r, axis=1), tape.repeat(1 << r, axis=0)
            lanes[0].reshape(-1, 1 << r)[:] += low << (k - fixed - r)
            tape.reshape(-1, 1 << r, width)[:, :, fixed:fixed + r] = bit[
                (low[:, None] >> np.arange(r - 1, -1, -1)) & 1]
            fixed += r
        seeds, state, pos = lanes
        base = np.arange(len(state)) * width
        pos += base                  # from head cell to flat index in `tape`
        flat = tape.reshape(-1)
        until = min(limit, edge, fixed if fixed < k else limit)
        while steps < until and state.max() < delta.halt:
            np.add(state, flat.take(pos), out=state)     # the row to apply
            flat[pos] = delta.write.take(state)
            pos += delta.move.take(state)
            np.maximum(pos, base, out=pos)
            delta.next.take(state, out=state)
            steps += 1
        pos -= base
        stop = state >= delta.halt
        if stop.all():
            halted.append((seeds, tape[:, :d], 1 << (k - fixed)))
            lanes = lanes[:, :0]
            break
        if stop.any():
            halted.append((seeds[stop], tape[stop, :d], 1 << (k - fixed)))
            lanes, tape = lanes[:, ~stop], tape[~stop]
        if steps >= limit and fixed == k:
            break
        if steps >= edge:            # heads move one cell a step
            reach = int(lanes[2].max())
            if reach >= width:
                tape = np.concatenate([tape, np.full_like(tape, delta.blank)], axis=1)
                width *= 2
            edge = steps + width - reach
    first, word = hi, None           # the lowest seed left with a non-word
    for low, codes, span in halted:
        if not delta.letter.take(codes).all():
            bad = np.flatnonzero(~delta.letter.take(codes).all(axis=1))[0]
            if low[bad] < first:
                first, word = int(low[bad]), codes[bad]
    seeds, state, head = lanes
    rest = np.zeros((len(seeds), d), delta.dtype)
    for j, seed in enumerate(seeds.tolist()):
        if seed > first:
            break
        bits = format(seed, f"0{k}b")
        res = _resume(machine, delta.states[state[j] // g], int(head[j]),
                      dict(enumerate(symbols[c] for c in tape[j].tolist())),
                      steps, budget)
        if not res.halted:
            raise NonConformingError(
                f"machine {machine.name or '?'} exceeded {budget} steps "
                f"at seed {bits}", seed=bits)
        rest[j] = [delta.code[res.tape.get(c, machine.blank)] for c in range(d)]
        if not delta.letter[rest[j]].all():
            first, word = seed, rest[j]
    if word is not None:
        w = "".join(symbols[c] for c in word.tolist())
        bits = format(first, f"0{k}b")
        raise NonWordOutput(f"machine {machine.name or '?'} left a non-word "
                            f"output {w!r} at seed {bits}", seed=bits)
    done = [(codes, span) for _, codes, span in halted]
    return done + [(rest, 1)] if len(rest) else done


def word_measure(machine: Machine, k: int, depth: Optional[int] = None,
                 budget: Optional[int] = None) -> WordMeasure:
    """Average the output word over all 2^k seeds, exact rational weights.

    Seeds advance in lockstep, as numpy lanes over the compiled delta, and
    the words of each block's halted lanes are tallied by index with one
    bincount per batch; the measure, and the error raised at the lowest
    failing seed, are those of running each seed through `run` in order.
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
    delta = _compiled(machine)
    # a bad depth or a word of another length is reported once every seed
    # has run, so that a failing seed is reported first
    tally = 1 <= depth <= DEPTH_CAP
    counts = np.zeros(2 ** depth if tally else 0, np.int64)
    mismatch = False
    # aligned blocks, as `_lockstep` needs: a power of two seeds each
    block = 1 << (_BLOCK_LANES.bit_length() - 1)
    for lo in range(0, valid, block):
        for codes, span in _lockstep(machine, delta, k, depth, budget, lo,
                                     min(valid, lo + block)):
            if not tally or mismatch:
                continue
            index = np.zeros(len(codes), np.int64)
            size = np.zeros(len(codes), np.int64)
            for col in codes.T:      # words spelled out letter by letter
                index = (index << delta.size[col]) | delta.value[col]
                size += delta.size[col]
            if (size != depth).any():
                mismatch = True
            else:
                counts += span * np.bincount(index, minlength=len(counts))
    if valid < total:
        _check_input(machine, format(valid, f"0{k}b"))
    _check_depth(depth)
    if mismatch:
        raise InputError("word depth mismatch")
    return WordMeasure.from_nums(depth, counts.tolist(), total)


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
    """Run an encoded machine, charging interpreter overhead per step.

    The run is `run` on the decoded machine; each of its steps costs
    1 + (number of rules) + (tape extent), which models scanning the program
    and shuttling to the work zone.  The extent is the run's final one, at
    most max(len(word), steps + 1), so the cost stays quadratic in the steps.
    Returns (RunResult, universal_steps).
    """
    machine = machine_from_json(encoded)
    res = run(machine, word, budget)
    extent = max(len(word), res.head + 1, res.extent())
    return res, res.steps * (1 + len(machine.delta) + extent)


def universal_cost_constant(machines: Sequence[Machine], inputs: Sequence[str],
                            budget: int = 100_000) -> Fraction:
    """Smallest rational c with cost <= c * steps^2 + c over all given runs."""
    worst = Fraction(0)
    for m in machines:
        enc = machine_to_json(m)
        for w in inputs:
            res, cost = simulate_universal(enc, w, budget)
            worst = max(worst, Fraction(cost, res.steps ** 2 + 1))
    return worst


# ----------------------------------------------------------- seed selector ---

def routing_index(y: str) -> Optional[int]:
    """The i of a routing word y = 1^i #^j, or None for any other word."""
    rest = y.lstrip("1")
    return len(y) - len(rest) if rest.strip("#") == "" else None


def selector_weights(k: int, n_machines: int) -> list:
    """Mixture weights of the epsilon = 0 flow over the 2^(k+1) - 1 binary
    routing words y of length <= k, each equally likely.

    The rule at epsilon = 0: the all-ones word 1^i with 1 <= i <=
    min(k, n_machines) routes to machine i, and every other y, the empty word
    included, keeps the default machine; no word is forbidden.  Under a
    selector rule (epsilon > 0) `routing_index` instead pins y to 1^i #^*, as
    `perturbation.SelectorRule.admits` reads it.  Returns
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
