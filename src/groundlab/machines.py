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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .measures import WordMeasure, _check_depth, word_index
from .tiles import BudgetExceeded, InputError

DESK_BUDGET_CAP = 10_000_000


class NonConformingError(BudgetExceeded):
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
    delta: Mapping = field(hash=False)
    name: str = field(default="", compare=False)

    def __post_init__(self):
        # order of declaration is irrelevant; normalize so equality is semantic.
        # The rules are read-only, so the sweep built on them never goes stale
        object.__setattr__(self, "delta", MappingProxyType(dict(self.delta)))
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
            if type(mv) is not int or mv not in (-1, 1):
                raise InputError("moves are -1 or +1")
        for q in self.states:
            if q in self.finals:
                continue
            for a in self.tape_alphabet:
                if (q, a) not in self.delta:
                    raise InputError(f"missing rule for ({q}, {a})")

    @cached_property
    def _sweep(self) -> _Sweep:
        """The machine's word-measure sweep, built once per instance."""
        return _Sweep(self)


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


def run(machine: Machine, word: str, budget: int = DESK_BUDGET_CAP) -> RunResult:
    """Execute until halt or budget; the head clamps at the left edge."""
    for ch in word:
        if ch not in machine.input_alphabet:
            raise InputError(f"input symbol {ch!r} outside the input alphabet")
    finals, delta, blank = machine.finals, machine.delta, machine.blank
    state, head, tape, steps = machine.initial, 0, dict(enumerate(word)), 0
    while state not in finals:
        if steps >= budget:
            return RunResult(state, head, steps, False, tape, blank)
        state, tape[head], move = delta[(state, tape.get(head, blank))]
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


# a scale the sweep leaves open runs seed by seed, at most this many seeds
FALLBACK_SEEDS = 1 << 16


class _Sweep:
    """Word measures of one machine at every scale, by a forward sweep over
    the boundaries between tape cells (Hennie 1965; Shepherdson 1959).

    A node at boundary b, between cells b - 1 and b, is keyed (R, w): R is
    its crossing sequence, the states in which the head crosses b, rightward
    and leftward in turn, and w the final symbols of the cells below
    min(b, depth).  Its value is [seeds, steps]: how many b-bit seed
    prefixes lead to it and the most steps their runs make left of b.  Each
    cell's visits are replayed from its seed bit, or the blank past the
    seed, guessing the states the head comes back in; the next cell keeps
    only the guesses it can replay.  A run that halts has one such chain,
    so a scale is exact once its finished chains count all 2^k seeds.
    Nodes over the seed are shared by every scale of one (depth, budget)
    pass; scale k closes its nodes over blank cells, cached by (R, cells
    still needed).  One cell's replays are kept by (crossings, symbol), as
    the same crossing sequences recur at every boundary."""

    def __init__(self, machine: Machine):
        self.delta, self.finals = machine.delta, machine.finals
        self.initial, self.blank = machine.initial, machine.blank
        # the states a head can come back in: targets of left moves
        self.returns = tuple(sorted({q for q, _, mv in machine.delta.values()
                                     if mv < 0}))
        self.letters = {a for a in machine.tape_alphabet if set(a) <= {"u", "d"}}
        self.room = len(machine.states) * len(machine.tape_alphabet)
        self.passes = {}
        # (crossings, symbol) -> (ways, most steps the search reached,
        # guesses it spent) of each replay that met neither bound
        self.replays = {}

    def measure(self, k: int, depth: int, budget: int) -> Optional[dict]:
        """Word -> seed count over all 2^k seeds, or None if the sweep
        cannot settle scale k: a run past the budget, a depth-prefix that is
        not a word, or a bound of the sweep passed."""
        levels, ends = self.passes.setdefault((depth, budget), ([{(None, ()): [1, 0]}], {}))
        while len(levels) <= k and levels[-1] is not None:
            cell = len(levels) - 1
            levels.append(self._cross(levels[cell], "01", cell < depth, budget,
                                      self._bound(cell + 1)))
        if len(levels) <= k or levels[k] is None:
            return None
        need = max(0, depth - k)
        table, total = {}, 0
        for (crossings, w), (seeds, steps) in levels[k].items():
            if (crossings, need) not in ends:
                ends[crossings, need] = self._close(crossings, need, budget)
            end = ends[crossings, need]
            if end is not None and steps + end[1] <= budget:
                word = "".join(w + end[0])
                table[word] = table.get(word, 0) + seeds
                total += seeds
        return table if total == 1 << k else None

    def _bound(self, boundary: int) -> int:
        """Nodes, and guesses in all, past which a seed boundary is left
        open: max(2^boundary up to FALLBACK_SEEDS, |Q| |Γ|)."""
        return max(self.room, min(1 << boundary, FALLBACK_SEEDS))

    def _close(self, crossings: tuple, need: int, budget: int) -> Optional[tuple]:
        """(final symbols of the `need` cells past boundary k, steps made
        there) for a node with these crossings, its cells all blank, or None
        when no chain ends: each chain dies, the set of nodes repeats, or a
        bound is passed."""
        nodes, seen, cell = {(crossings, ()): [1, 0]}, set(), 0
        while nodes:
            for (rest, w), (_, steps) in nodes.items():
                if not rest:         # the head never passes this boundary
                    fill = max(0, need - cell)
                    if fill and self.blank not in self.letters:
                        return None
                    return w + (self.blank,) * fill, steps
            if cell >= need:
                keys = frozenset(nodes)
                if keys in seen:
                    return None
                seen.add(keys)
            nodes = self._cross(nodes, (self.blank,), cell < need, budget, self.room)
            cell += 1
        return None

    def _cross(self, nodes: dict, symbols, keep: bool, budget: int,
               limit: int) -> Optional[dict]:
        """The nodes one boundary on, past a cell holding one of `symbols`;
        its final symbol joins w when `keep`, and a non-letter there drops
        the chain.  None past `limit` nodes, or `limit` guesses in all."""
        out, left = {}, limit
        for (crossings, w), (seeds, steps) in nodes.items():
            for sym in symbols:
                ways, left = self._replay(crossings, sym, budget - steps, left)
                if ways is None:
                    return None
                for after, last, more in ways:
                    if keep and last not in self.letters:
                        continue
                    node = out.setdefault((after, w + (last,) if keep else w), [0, 0])
                    node[0] += seeds
                    node[1] = max(node[1], steps + more)
        return out if len(out) <= limit else None

    def _replay(self, crossings: Optional[tuple], sym: str, allowance: int,
                left: int) -> tuple:
        """Every way the visits to one cell can go, as (crossings on its
        right, final symbol, steps made in it), given the crossings on its
        left; None stands for cell 0, where the head starts and a left move
        keeps it in place.  At most `allowance` steps and `left` guesses:
        returns (ways, guesses left), or (None, 0) past them.  A kept replay
        answers any allowance past the most steps it reached: the search
        would repeat itself, spending the same guesses."""
        if crossings == ():          # the head never comes here
            return [((), sym, 0)], left
        key = crossings, sym
        if key in self.replays:
            ways, reached, spent = self.replays[key]
            if allowance > reached:
                left -= spent
                return (ways, left) if left >= 0 else (None, 0)
        delta, finals, returns = self.delta, self.finals, self.returns
        zero = crossings is None
        stack = [(self.initial, sym, 0, (), 0) if zero else (crossings[0], sym, 1, (), 0)]
        crossings = crossings or ()
        end, out, start, reached, capped = len(crossings), [], left, 0, False
        while stack:
            q, a, i, right, steps = stack.pop()
            stay = 0
            while True:
                if q in finals:      # the run halts in this cell
                    if i == end:
                        out.append((right, a, steps))
                    break
                if steps >= allowance:
                    capped = True
                    break
                q, a, move = delta[q, a]
                steps += 1
                if move < 0:
                    if zero:         # clamped: a loop once a (state, symbol) repeats
                        stay += 1
                        if stay > self.room:
                            break
                        continue
                    if i == end or crossings[i] != q:
                        break
                    i += 1
                    if i == end:     # halted on the left, or never back
                        out.append((right, a, steps))
                        break
                    if q in finals:
                        break
                    q, i = crossings[i], i + 1
                    continue
                right += (q,)
                if i == end:         # halts on the right, or never comes back
                    out.append((right, a, steps))
                if q in finals:
                    break
                left -= len(returns)
                if left < 0:
                    return None, 0
                stack.extend((s, a, i, right + (s,), steps) for s in returns)
                break
            reached = max(reached, steps)
        if not capped:
            self.replays[key] = out, reached, start - left
        return out, left


def _seed_by_seed(machine: Machine, k: int, depth: int, budget: int) -> dict:
    """Word -> seed count, each seed run through `run` in order, raising at
    the lowest failing one; BudgetExceeded past FALLBACK_SEEDS seeds."""
    name = machine.name or "?"
    table = {}
    for seed in range(2 ** k):
        if seed == FALLBACK_SEEDS:
            raise BudgetExceeded(f"machine {name} at scale {k}: the word measure "
                                 f"runs seed by seed, past {FALLBACK_SEEDS} seeds")
        bits = format(seed, f"0{k}b")
        res = run(machine, bits, budget)
        if not res.halted:
            raise NonConformingError(f"machine {name} exceeded {budget} steps "
                                     f"at seed {bits}", seed=bits)
        w = res.tape_word(depth)
        if any(c not in ("u", "d") for c in w):
            raise NonWordOutput(f"machine {name} left a non-word output {w!r} "
                                f"at seed {bits}", seed=bits)
        table[w] = table.get(w, 0) + 1
    return table


def word_measure(machine: Machine, k: int, depth: Optional[int] = None,
                 budget: Optional[int] = None) -> WordMeasure:
    """Average the output word over all 2^k seeds, exact rational weights.

    The machine's `_Sweep` counts the seeds by crossing sequences; a scale
    it leaves open, or a seed alphabet without both bits, runs seed by seed
    (`_seed_by_seed`).  Either way the measure, and the error raised at the
    lowest failing seed, are those of running each seed through `run`."""
    if k < 1:
        raise InputError("scale k must be >= 1")
    if depth is None:
        depth = b_read(k)
    _check_depth(depth)
    if budget is None:
        budget = seed_budget(k)
    table = None
    if {"0", "1"} <= set(machine.input_alphabet):
        table = machine._sweep.measure(k, depth, budget)
    if table is None:
        table = _seed_by_seed(machine, k, depth, budget)
    nums = [0] * 2 ** depth
    for word, seeds in table.items():
        if len(word) != depth:
            raise InputError("word depth mismatch")
        nums[word_index(word)] += seeds
    return WordMeasure.from_nums(depth, nums, 2 ** k)


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
    return replace(copier(), name="fair-coin")


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
    keyed = sorted(((machine_to_json(m), m) for m in word_machines),
                   key=lambda pair: (len(pair[0]), pair[0]))
    digest = hashlib.sha256("\n".join(text for text, _ in keyed).encode()).hexdigest()
    return tuple(m for _, m in keyed), f"sha256:{digest}"


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
