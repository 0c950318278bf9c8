import json
import random
import re
import time
from dataclasses import replace
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groundlab.machines as machines
import groundlab.perturbation as perturbation
import machines_oracle as oracle
from groundlab.measures import DEPTH_CAP
from groundlab.machines import (
    DESK_BUDGET_CAP,
    Machine,
    NonConformingError,
    NonWordOutput,
    b_read,
    constant_writer,
    copier,
    corpus,
    fair_coin,
    immediate_halt,
    incrementer,
    left_mover,
    machine_enumeration,
    machine_from_json,
    machine_to_json,
    parity_machine,
    routing_index,
    run,
    seed_budget,
    selector_weights,
    simulate_universal,
    universal_cost_constant,
    word_measure,
)
from groundlab.measures import WordMeasure
from groundlab.cli import main as cli_main
from groundlab.perturbation import make_selector
from groundlab.tiles import BudgetExceeded, InputError


def test_machine_validation():
    tape = ("0", "1", "#")
    with pytest.raises(InputError):  # missing rule
        Machine(("a",), "a", frozenset(), ("0", "1"), tape, "#",
                {("a", "0"): ("a", "0", 1), ("a", "1"): ("a", "1", 1)})
    with pytest.raises(InputError):  # unknown initial
        Machine(("a",), "b", frozenset(["a"]), ("0", "1"), tape, "#", {})
    with pytest.raises(InputError):  # blank inside input alphabet
        Machine(("a",), "a", frozenset(["a"]), ("0", "1", "#"), tape, "#", {})
    with pytest.raises(InputError):  # bad move
        Machine(("a",), "a", frozenset(), ("0",), ("0", "#"), "#",
                {("a", "0"): ("a", "0", 0), ("a", "#"): ("a", "#", 1)})
    for move in (True, 1.0):  # a JSON true or 1.0 is not the move +1
        with pytest.raises(InputError, match="moves are -1 or"):
            Machine(("a",), "a", frozenset(), ("0",), ("0", "#"), "#",
                    {("a", "0"): ("a", "0", move), ("a", "#"): ("a", "#", 1)})


def test_run_semantics():
    r = run(incrementer(), "011")
    assert r.halted and r.tape_word(3) == "100" and r.steps == 7
    r = run(incrementer(), "0")
    assert r.tape_word(1) == "1"
    r = run(immediate_halt(), "101")
    assert r.halted and r.steps == 0 and r.tape_word(3) == "101"


def test_left_edge_clamp():
    r = run(left_mover(), "01", budget=37)
    assert not r.halted
    assert r.head == 0
    assert r.steps == 37


def test_run_input_validation():
    with pytest.raises(InputError):
        run(incrementer(), "01x")
    with pytest.raises(InputError):
        run(incrementer(), "01#")


def test_stall_on_halt_is_stable():
    m = immediate_halt()
    a = run(m, "11", budget=5)
    b = run(m, "11", budget=500)
    assert a.state == b.state and a.steps == b.steps == 0
    assert a.tape_word(2) == b.tape_word(2)


def test_machine_json_roundtrip_and_canonical_form():
    for m in corpus().values():
        text = machine_to_json(m)
        back = machine_from_json(text, name=m.name)
        assert back == m
        assert machine_to_json(back) == text
    m = incrementer()
    shuffled = Machine(tuple(reversed(m.states)), m.initial, m.finals,
                       m.input_alphabet, m.tape_alphabet, m.blank, m.delta)
    assert machine_to_json(shuffled) == machine_to_json(m)
    with pytest.raises(InputError):
        machine_from_json("{not json")
    with pytest.raises(InputError):
        machine_from_json(json.dumps({"states": ["a"]}))


def test_b_read_values():
    assert [b_read(k) for k in range(1, 18)] == [
        1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4]


def test_seed_budget():
    assert seed_budget(1) == 8
    assert seed_budget(2) == 512
    assert seed_budget(3) == DESK_BUDGET_CAP
    assert seed_budget(50) == DESK_BUDGET_CAP


def test_word_measure_goldens():
    c = corpus()
    assert word_measure(c["copier"], 1).as_dict() == {
        "u": Fraction(1, 2), "d": Fraction(1, 2)}
    assert word_measure(c["parity"], 3).as_dict() == {
        "u": Fraction(1, 2), "d": Fraction(1, 2)}
    assert word_measure(c["constant-u"], 4).as_dict() == {"uu": Fraction(1)}
    assert word_measure(c["constant-d"], 2).as_dict() == {"d": Fraction(1)}
    assert word_measure(c["fair-coin"], 5, depth=2).as_dict() == {
        "uu": Fraction(1, 2), "dd": Fraction(1, 2)}


def test_word_measure_exhaustive_against_direct_loop():
    # independent accumulation over the seed space
    m = parity_machine()
    k = 5
    counts = {}
    for seed in range(2 ** k):
        bits = format(seed, f"0{k}b")
        out = "u" if bits.count("1") % 2 == 0 else "d"
        counts[out * 2] = counts.get(out * 2, 0) + 1
    want = {w: Fraction(v, 2 ** k) for w, v in counts.items()}
    assert word_measure(m, k).as_dict() == want


def test_word_measure_budget_breach():
    with pytest.raises(NonConformingError) as info:
        word_measure(left_mover(), 2)
    assert info.value.seed == "00"
    with pytest.raises(NonConformingError) as info:
        word_measure(copier(), 3, budget=1)
    assert info.value.seed == "000"
    assert str(info.value) == "machine copier exceeded 1 steps at seed 000"


def test_word_measure_budget_breach_on_a_long_run():
    # the head loops at cell 0 for all 20 000 steps: seed 0 is the one
    # reported, by the runs seed by seed
    with pytest.raises(NonConformingError) as info:
        word_measure(left_mover(), 6, budget=20_000)
    assert info.value.seed == "000000"
    assert str(info.value) == "machine left-mover exceeded 20000 steps at seed 000000"


def _outcome(measure, machine, k, depth, budget):
    try:
        return measure(machine, k, depth, budget)
    except (InputError, NonConformingError) as exc:
        return type(exc), str(exc), getattr(exc, "seed", None)


def _longest_run(machine, k, cap=64):
    """Steps of the longest seed run, or None unless every seed halts by cap."""
    if not {"0", "1"} <= set(machine.input_alphabet):
        return None
    runs = [run(machine, format(s, f"0{k}b"), cap) for s in range(2 ** k)]
    return max(r.steps for r in runs) if all(r.halted for r in runs) else None


SYMBOLS = ("0", "1", "u", "d", "#", "x", "uu")


@st.composite
def total_machines(draw):
    """2-5 states, 3-5 tape symbols, every non-final rule present; the blank
    may be a letter and the input alphabet may lack 0/1.

    Loose machines draw every rule (finals may be absent); they mostly run
    out of budget or leave non-words.  A sweep writes letters left to right
    and stops at the blank.  A bounce runs right over the seed, writes
    letters back to the left edge and stops on the letter its head reads
    there once clamped at cell 0.  Both end in words."""
    kind = draw(st.sampled_from(["loose", "sweep", "bounce"]))
    states = [f"q{i}" for i in range(draw(st.integers(2 + (kind == "bounce"), 5)))]
    if kind == "loose":
        finals = draw(st.sets(st.sampled_from(states), max_size=2))
    else:
        finals = {states[-1]}
    running = [q for q in states if q not in finals]
    right = running[:draw(st.integers(1, len(running) - 1))] if kind == "bounce" else []
    left = [q for q in running if q not in right]
    blank = draw(st.sampled_from(["#", "#", "u"]))
    inputs = draw(st.sampled_from([("0", "1")] * 12 + [("0",), ("1",), ("1", "x"), ()]))
    if kind == "loose":
        others = [a for a in SYMBOLS if a != blank and a not in inputs]
        size = draw(st.integers(max(3, len(inputs) + 1), 5))
        extra = draw(st.permutations(others))[:size - len(inputs) - 1]
    else:
        extra = [a for a in ("u", "d", "x") if a != blank and a not in inputs][:2]
    tape = (*inputs, blank, *extra)
    # now and then a rule reading 1 writes a non-letter, so that seed 0 ends
    # in a word and a later seed may not
    spoil = tuple(a for a in tape if a not in ("u", "d"))[:1]

    def rule(q, a):
        letter = draw(st.sampled_from(("u", "d") + (spoil if a == "1" else ())))
        move = draw(st.sampled_from((-1, 1)))
        if kind == "loose":
            return draw(st.sampled_from(states)), draw(st.sampled_from(tape)), move
        if kind == "sweep":
            if a == blank:
                return states[-1], letter, move
            return draw(st.sampled_from(running)), letter, 1
        if q in right:
            if a in inputs:
                return draw(st.sampled_from(right)), a, 1
            return draw(st.sampled_from(left)), a, -1
        if a in ("u", "d"):
            return states[-1], a, 1
        return draw(st.sampled_from(left)), letter, -1

    delta = {(q, a): rule(q, a) for q in running for a in tape}
    initial = draw(st.sampled_from((right or running) if kind != "loose" else states))
    return Machine(tuple(states), initial, frozenset(finals), inputs, tape, blank,
                   delta, name=draw(st.sampled_from(["", "m"])))


@given(total_machines(), st.data())
@settings(max_examples=100, deadline=None)
def test_word_measure_matches_serial_oracle(machine, data):
    k = data.draw(st.sampled_from([*range(1, 9), 13]), "k")
    depth = data.draw(st.sampled_from([None, None, -1, 0, 1, 2, 3, 5, DEPTH_CAP + 1]),
                      "depth")
    budgets = [*range(40, -1, -1), *([None] if k <= 2 else [])]
    budget = data.draw(st.sampled_from(budgets), "budget")
    # a budget one step either side of the longest run is where a lost step
    # (an unclamped head, an off-by-one cap) changes the outcome
    longest = _longest_run(machine, k)
    if longest is not None and data.draw(st.booleans(), "tight"):
        budget = longest + data.draw(st.sampled_from([-1, 0]), "slack")
    want = _outcome(oracle.word_measure, machine, k, depth, budget)
    assert _outcome(word_measure, machine, k, depth, budget) == want


@given(total_machines(), st.data())
@settings(max_examples=100, deadline=None)
def test_word_measure_warm_replays_match_oracle(machine, data):
    # one machine keeps one sweep, and so one store of cell replays, across
    # calls: large budgets fill it first; budgets one step either side of
    # the longest run, and half the scale, which stops runs inside the seed,
    # read it; then a large budget again.  Both sweep and seed-by-seed
    # answers are exact, so a wrong replay mostly shows as the sweep going
    # on or declining where a cold sweep would not: the warm sweep's
    # boundaries must be a cold one's too
    scales = data.draw(st.lists(st.tuples(st.integers(1, 8), st.sampled_from([None, 1, 2, 3])),
                                min_size=1, max_size=3), "scales")
    calls = [(k, depth, budget) for budget in (64, 40) for k, depth in scales]
    for slack in (1, 0, -1):
        calls += [(k, depth, longest + slack) for k, depth in scales
                  if (longest := _longest_run(machine, k)) is not None]
    calls += [(k, depth, k // 2) for k, depth in scales]
    calls += [(k, depth, 48) for k, depth in scales]
    bound = data.draw(st.sampled_from([None, 1, 3, 8]), "bound")
    with mock.patch.object(machines._Sweep, "_bound",
                           machines._Sweep._bound if bound is None else lambda self, b: bound):
        for k, depth, budget in calls:
            want = _outcome(oracle.word_measure, machine, k, depth, budget)
            assert _outcome(word_measure, machine, k, depth, budget) == want
            if {"0", "1"} <= set(machine.input_alphabet):
                key = (depth or b_read(k), budget)
                cold = machines._Sweep(machine)
                cold.measure(k, *key)
                warm, cold = machine._sweep.passes[key][0], cold.passes[key][0]
                assert warm[:len(cold)] == cold[:len(warm)]


def test_word_measure_clamps_at_cell_zero():
    # parity stops on the letter it reads at cell 0 after its head clamped
    # there; its longest run, to the step, is the budget
    m = parity_machine()
    need = max(run(m, format(s, "04b")).steps for s in range(16))
    assert word_measure(m, 4, budget=need) == oracle.word_measure(m, 4, budget=need)
    assert (_outcome(word_measure, m, 4, None, need - 1)
            == _outcome(oracle.word_measure, m, 4, None, need - 1))


def test_word_measure_heads_run_past_the_seed():
    # the head writes three cells past the seed before it stops: each
    # scale's completion over blank cells carries it there, and below the
    # depth those cells are part of the word
    tape = ("0", "1", "u", "d", "#")
    trail = ["s", "t1", "t2", "t3", "h"]
    delta = {("s", "0"): ("s", "u", 1), ("s", "1"): ("s", "d", 1)}
    for q, after in zip(trail, trail[1:]):
        for a in tape:
            delta.setdefault((q, a), (after, "u", 1) if a == "#" else ("h", "#", 1))
    m = Machine(tuple(trail), "s", frozenset(["h"]), ("0", "1"), tape, "#", delta)
    for k in range(1, 9):
        assert word_measure(m, k) == oracle.word_measure(m, k)


def test_word_measure_halts_before_reading_its_seed():
    # the head writes one letter on cell 0 and halts: from k = 3 the sweep
    # replays cells the head never comes to, and past depth 1 the unread
    # seed bits are a non-word
    tape = ("0", "1", "#", "u", "d")
    m = Machine(("s", "h"), "s", frozenset(["h"]), ("0", "1"), tape, "#",
                {("s", a): ("h", "d" if a == "1" else "u", 1) for a in tape},
                name="halt-at-once")
    for k in range(1, 8):
        for depth in (1, 2, 3):
            assert (_outcome(word_measure, m, k, depth, None)
                    == _outcome(oracle.word_measure, m, k, depth, None))


def test_word_measure_fails_in_a_later_block():
    # the lowest failing seed is 2^12: the sweep leaves the scale open, and
    # the runs seed by seed report that seed
    tape = ("0", "1", "u", "d", "x", "#")
    delta = {("s", a): ("s", a, 1) for a in tape}
    delta.update({("w", a): ("w", "u", 1) for a in tape})
    delta.update({("s", "0"): ("w", "u", 1), ("s", "1"): ("w", "x", 1),
                  ("w", "#"): ("h", "#", 1)})
    m = Machine(("s", "w", "h"), "s", frozenset(["h"]), ("0", "1"), tape, "#",
                delta, name="first-bit")
    with pytest.raises(NonWordOutput) as info:
        word_measure(m, 13, depth=2)
    assert info.value.seed == "1" + "0" * 12
    assert str(info.value) == ("machine first-bit left a non-word output 'xu' "
                               "at seed 1000000000000")


def test_word_measure_non_word_output():
    # an input error, not a budget breach: the machine is no word machine
    with pytest.raises(NonWordOutput) as info:
        word_measure(incrementer(), 2)
    assert isinstance(info.value, InputError) and info.value.seed == "00"
    assert not isinstance(info.value, BudgetExceeded)
    assert str(info.value) == ("machine incrementer left a non-word output '0' "
                               "at seed 00")
    # the blank past the written cells is no letter, so the sweep cannot
    # pad the word with it and the error is that of the lone seed
    tape = ("0", "1", "#", "u")
    left = Machine(("s", "h"), "s", frozenset(["h"]), ("0", "1"), tape, "#",
                   {("s", a): ("h", "u", -1) for a in tape}, name="left")
    for measure in (word_measure, oracle.word_measure):
        with pytest.raises(NonWordOutput) as info:
            measure(left, 1, 2)
        assert str(info.value) == "machine left left a non-word output 'u#' at seed 0"


def _writer(*cells, spoil=None):
    """Write cells[0], cells[1], ... from cell 0 on, the last one over the
    rest of the seed (`spoil` at cell 0 on a seed that starts with 1), then
    halt at the blank: k + 1 steps on every seed."""
    tape = ("0", "1", "#", *sorted(set(cells) | {spoil} - {None}))
    states = [f"s{i}" for i in range(len(cells))]
    delta = {}
    for i, cell in enumerate(cells):
        after = states[min(i + 1, len(cells) - 1)]
        delta.update({(states[i], a): (after, cell, 1) for a in tape})
        delta[(states[i], "#")] = ("h", "#", 1)
    if spoil is not None:
        delta[("s0", "1")] = (states[min(1, len(cells) - 1)], spoil, 1)
    return Machine((*states, "h"), "s0", frozenset(["h"]), ("0", "1"), tape,
                   "#", delta, name="writer")


@pytest.mark.parametrize("machine, k, depth, budget", [
    # a multi-letter symbol spells a word of another length than the depth
    (_writer("uu", "d"), 3, 2, None),
    (_writer("uu", "d"), 3, 3, None),
    # letters of lengths 2, 1 and 0 that add up to the depth spell a word,
    # each shifted by the letters after it
    (_writer("uu", ""), 3, 2, None),
    (_writer("", "du"), 3, 2, None),
    (_writer("", "d", "du"), 3, 3, None),
    # a failing seed is reported before a word of another length, even one
    # of a lower seed; a bad depth is refused before any seed runs
    (_writer("uu", "d", spoil="x"), 3, 2, None),
    (_writer("u", "d"), 3, 0, 3),
    (_writer("u", "d"), 3, DEPTH_CAP + 1, 3),
    (_writer("u", "d"), 3, 0, None),
    (_writer("u", "d"), 3, DEPTH_CAP + 1, None),
])
# the sweep's bound per seed boundary patched small: it declines at once on
# most of these, and the runs seed by seed must give the same outcome
@pytest.mark.parametrize("bound", [1, 3, 4096])
def test_word_measure_tally_edges_match_oracle(machine, k, depth, budget, bound):
    want = _outcome(oracle.word_measure, machine, k, depth, budget)
    with mock.patch.object(machines._Sweep, "_bound", lambda self, b: bound):
        assert _outcome(word_measure, machine, k, depth, budget) == want


def _early_stop():
    """Seeds starting 0 write 'uu' over cells 0-1 and halt on cell 2; seeds
    starting 1 write 'd' on cell 0 and halt at once, their second seed bit
    unread, so the head never crosses boundary 2 and cell 1 keeps its seed
    bit: a non-word at depth 2 ('d' and that bit)."""
    tape = ("0", "1", "u", "d", "#")
    delta = {(q, a): ("h", a, 1) for q in ("s", "t") for a in tape}
    delta.update({("s", "0"): ("t", "u", 1), ("s", "1"): ("h", "d", 1),
                  ("t", "0"): ("h", "u", 1), ("t", "1"): ("h", "u", 1)})
    return Machine(("s", "t", "h"), "s", frozenset(["h"]), ("0", "1"), tape,
                   "#", delta, name="early-stop")


def _slow_ones():
    """Seeds starting 0 write 'u' and halt after one step; seeds starting 1
    run right over the whole seed and back, 2k + 1 steps."""
    tape = ("0", "1", "u", "d", "#")
    delta = {("s", "0"): ("h", "u", 1), ("s", "1"): ("r", "d", 1)}
    delta.update({("r", a): ("r", a, 1) for a in ("0", "1", "u", "d")})
    delta[("r", "#")] = ("l", "#", -1)
    delta.update({("l", a): ("l", a, -1) for a in ("0", "1", "u", "#")})
    delta[("l", "d")] = ("h", "d", 1)
    delta.update({("s", a): ("h", a, 1) for a in ("u", "d", "#")})
    return Machine(("s", "r", "l", "h"), "s", frozenset(["h"]), ("0", "1"), tape,
                   "#", delta, name="slow-ones")


def _zeros_only():
    """The constant-u writer, its input alphabet without '1'."""
    m = constant_writer("u")
    return Machine(m.states, m.initial, m.finals, ("0",), m.tape_alphabet,
                   m.blank, m.delta, name="zeros-only")


@pytest.mark.parametrize("machine, k, depth, budget", [
    # a run halts before reading every seed cell while its depth prefix
    # covers the unread ones: the non-word is its lowest seed's
    (_early_stop(), 5, 2, None),
    (_early_stop(), 13, 2, None),
    (immediate_halt(), 4, 3, None),
    # ... and the same runs at a depth they wrote in full: a measure
    (_early_stop(), 5, 1, None),
    # no '1' in the input alphabet: seed 0 runs, then seed 1 is refused,
    # unless seed 0 fails first
    (_zeros_only(), 3, 2, None),
    (_zeros_only(), 3, 2, 2),
    (Machine(("h",), "h", frozenset(["h"]), ("0",), ("0", "1", "#"), "#", {}),
     3, 2, None),
    # budgets below k stop runs before they read every seed cell: the
    # lowest seed past the budget is reported
    (_slow_ones(), 6, 1, 3),
    (_slow_ones(), 6, 1, 5),
    (_slow_ones(), 13, 1, 7),
    (constant_writer("d"), 6, 2, 4),
    # ... and a budget every seed keeps to
    (_slow_ones(), 6, 1, 14),
])
# the sweep's bound per seed boundary patched small, so that it declines at
# the first boundaries and the runs seed by seed answer; and the sweep first
# taken on to scale `warm`, so that scale k reads boundaries a call for a
# larger scale already swept
@pytest.mark.parametrize("bound", [1, 3, 4, 8, 4096])
@pytest.mark.parametrize("warm", [1, 256])
def test_word_measure_staged_edges_match_oracle(machine, k, depth, budget,
                                                bound, warm):
    want = _outcome(oracle.word_measure, machine, k, depth, budget)
    with mock.patch.object(machines._Sweep, "_bound", lambda self, b: bound):
        if {"0", "1"} <= set(machine.input_alphabet):
            machine._sweep.measure(
                warm, b_read(k) if depth is None else depth,
                seed_budget(k) if budget is None else budget)
        assert _outcome(word_measure, machine, k, depth, budget) == want


def test_one_compiled_delta_per_machine(tmp_path):
    # measure-flow runs the parity machine at 31 scales: one sweep for them,
    # built on the corpus instance from a fresh corpus
    corpus.cache_clear()
    machine_enumeration.cache_clear()
    built, calls = [], []
    real_sweep, real_measure = machines._Sweep, perturbation.word_measure

    def sweep(machine):
        built.append(machine)
        return real_sweep(machine)

    def measure(machine, *args):
        calls.append(machine)
        return real_measure(machine, *args)

    def flow(out):
        return ["measure-flow", "--machine", "parity", "--depth", "2", "--kmax",
                "32", "--csv", str(tmp_path / out)]

    with mock.patch.object(machines, "_Sweep", sweep), \
            mock.patch.object(perturbation, "word_measure", measure):
        assert cli_main(flow("flow.csv")) == 0
        assert len(calls) == 31
        assert len(built) == len({id(m) for m in calls}) == 1
        assert built[0] is corpus()["parity"]
        # a later command in the same process reads the same sweep
        assert cli_main(flow("again.csv")) == 0
        assert cli_main(["perturb", "--base", "parity", "--target", "parity",
                         "--depth", "2", "--horizon", "16", "--epsilon", "1/2",
                         "--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == 31 + 31 + 15
    assert len(built) == 1 and {id(m) for m in calls} == {id(built[0])}
    # one read-only corpus per process, and the enumeration holds its machines
    table = corpus()
    assert [id(m) for m in corpus().values()] == [id(m) for m in table.values()]
    with pytest.raises(TypeError):
        table["parity"] = constant_writer("u")
    enumeration, version = machine_enumeration()
    assert all(m is table[m.name] for m in enumeration)
    assert version == ("sha256:20fcc7c48a4c43c96b6193f67d201de1"
                       "dbcf75a74597e33e595671771e13d697")


def test_machine_rules_are_read_only():
    m = constant_writer("u")
    assert word_measure(m, 3).as_dict() == {"u": 1}
    # a rule cannot be rewritten in place under the machine's sweep
    with pytest.raises(TypeError):
        m.delta[("w", "0")] = ("w", "d", 1)
    assert word_measure(m, 3) == oracle.word_measure(m, 3)
    assert word_measure(m, 3).as_dict() == {"u": 1}
    # an equal machine has its own sweep
    equal = constant_writer("u")
    assert m == equal
    assert word_measure(equal, 3).as_dict() == {"u": 1}
    assert equal._sweep is not m._sweep


@pytest.mark.parametrize("name", ["constant-u", "constant-d", "copier",
                                  "parity", "fair-coin"])
def test_corpus_word_machines_never_run_seed_by_seed(name):
    m = replace(corpus()[name])      # an equal machine with a cold sweep
    letters = {"constant-u": "u", "constant-d": "d"}.get(name, "ud")
    with mock.patch.object(machines, "_seed_by_seed", side_effect=AssertionError):
        for k in range(16, 1, -1):   # one sweep, its largest scale first
            d = b_read(k)
            assert word_measure(m, k).as_dict() == {
                a * d: Fraction(1, len(letters)) for a in letters}
            assert word_measure(corpus()[name], k) == word_measure(m, k)


def test_word_measures_at_scale_1000_in_a_second():
    # each scale 1..1000 from one sweep per machine
    start = time.perf_counter()
    for m, depth in ((parity_machine(), None), (copier(), None),
                     (constant_writer("u"), None), (oracle.alternator(), 1)):
        for k in (1000, 999):
            got = word_measure(m, k, depth).as_dict()
            if m.name == "alternator":
                assert got == {"ud"[k % 2]: 1}
            elif m.name == "constant-u":
                assert got == {"u" * 9: 1}
            else:
                assert got == {"u" * 9: Fraction(1, 2), "d" * 9: Fraction(1, 2)}
    assert time.perf_counter() - start < 1


SWEEP_DECLINES = [(m, k, depth, budget)
                  for m in (*corpus().values(), _zeros_only(), oracle.alternator())
                  for k, depth, budget in ((1, None, None), (2, 1, None), (5, 2, 30),
                                           (6, 3, 12))]


@pytest.mark.parametrize("machine, k, depth, budget", SWEEP_DECLINES,
                         ids=[f"{m.name}-{k}-{d}-{b}" for m, k, d, b in SWEEP_DECLINES])
def test_seed_by_seed_matches_oracle(machine, k, depth, budget):
    want = _outcome(oracle.word_measure, machine, k, depth, budget)
    with mock.patch.object(machines._Sweep, "measure", return_value=None):
        assert _outcome(word_measure, machine, k, depth, budget) == want


def test_seed_by_seed_past_its_budget(tmp_path, capsys):
    with mock.patch.object(machines._Sweep, "measure", return_value=None), \
            mock.patch.object(machines, "FALLBACK_SEEDS", 8):
        assert word_measure(parity_machine(), 3) == oracle.word_measure(parity_machine(), 3)
        with pytest.raises(BudgetExceeded) as info:
            word_measure(parity_machine(), 4)
        assert str(info.value) == ("machine parity at scale 4: the word measure "
                                   "runs seed by seed, past 8 seeds")
        # a failing seed below the budget is still the one reported
        with pytest.raises(NonConformingError) as info:
            word_measure(left_mover(), 5, budget=100)
        assert info.value.seed == "00000"
        argv = ["measure-flow", "--machine", "parity", "--depth", "2", "--kmax",
                "6", "--csv", str(tmp_path / "flow.csv")]
        assert cli_main(argv) == 3
    assert "budget exceeded: measure-flow: machine parity at scale 6" in capsys.readouterr().err


def test_enumeration_is_length_lex_and_versioned():
    machines, version = machine_enumeration()
    texts = [machine_to_json(m) for m in machines]
    assert sorted(texts, key=lambda s: (len(s), s)) == texts
    # pinned: a change to how machines are held must not move the artifact
    assert version == ("sha256:20fcc7c48a4c43c96b6193f67d201de1"
                       "dbcf75a74597e33e595671771e13d697")
    again, version2 = machine_enumeration()
    assert version2 == version
    assert [m.name for m in again] == [m.name for m in machines]
    assert [m.name for m in machines] == [
        "constant-d", "constant-u", "copier", "parity"]


@given(st.text("01#x", max_size=10))
@settings(max_examples=300)
def test_routing_index_matches_the_word_pattern(y):
    m = re.fullmatch(r"(1*)#*", y)
    assert routing_index(y) == (len(m.group(1)) if m else None)


@st.composite
def seed_pairs(draw):
    """(k, x, y): x mostly binary, k mostly len(x), y often a routing word,
    sometimes of length len(x)."""
    x = draw(st.one_of(st.text("01", max_size=6), st.text("01x", max_size=6)))
    k = draw(st.one_of(st.just(len(x)), st.integers(0, 6)))
    y = draw(st.one_of(
        st.text("01#x", max_size=8),
        st.builds(lambda i, j: "1" * i + "#" * j, st.integers(0, 6), st.integers(0, 3)),
        st.integers(0, len(x)).map(lambda i: "1" * i + "#" * (len(x) - i))))
    return k, x, y


_ENUM = machine_enumeration()[0]
_RULES = [make_selector(i, _ENUM) for i in range(1, len(_ENUM) + 1)]


def _admits(k, x, y):
    return [rule.admits(x, y) for rule in _RULES]


# each caller of routing_index against its former inline check
ROUTING_CALLERS = {
    "SelectorRule.admits": (
        _admits, lambda k, x, y: [oracle.selector_admits(rule.index, x, y)
                                  for rule in _RULES]),
}


@pytest.mark.parametrize("caller", sorted(ROUTING_CALLERS))
@given(seed_pairs())
@settings(max_examples=300)
def test_routing_callers_accept_what_their_own_checks_did(caller, case):
    new, old = ROUTING_CALLERS[caller]
    assert new(*case) == old(*case)


def test_selector_weights():
    rows = selector_weights(3, 4)
    assert rows[0] == (0, Fraction(12, 15))
    assert rows[1:] == [(i, Fraction(1, 15)) for i in (1, 2, 3)]
    assert sum(w for _, w in rows) == 1
    rows2 = selector_weights(10, 2)
    assert len(rows2) == 3
    assert sum(w for _, w in rows2) == 1
    assert rows2[0][1] == 1 - Fraction(2, 2 ** 11 - 1)


def test_selector_weights_tally_every_routing_word():
    # the epsilon = 0 rule over every binary y of length <= k, each equally
    # likely: 1^i with 1 <= i <= n picks machine i, any other y keeps the default
    for k in range(1, 7):
        words = ["".join(y) for n in range(k + 1) for y in product("01", repeat=n)]
        for n_machines in range(6):
            tally = {}
            for y in words:
                i = len(y) if 1 <= len(y) <= n_machines and y == "1" * len(y) else 0
                tally[i] = tally.get(i, 0) + 1
            assert selector_weights(k, n_machines) == [
                (i, Fraction(c, len(words))) for i, c in sorted(tally.items())]


def test_universal_semantic_equality():
    inputs = ["0", "1", "01", "110", "0000", "10101"]
    for m in (incrementer(), copier(), parity_machine(), constant_writer("d"),
              immediate_halt()):
        enc = machine_to_json(m)
        for w in inputs:
            mine, cost = simulate_universal(enc, w)
            direct = run(m, w)
            assert mine.halted == direct.halted
            assert mine.steps == direct.steps
            assert mine.state == direct.state
            assert mine.tape_word(len(w) + 2) == direct.tape_word(len(w) + 2)
            assert cost >= direct.steps


def test_universal_quadratic_overhead():
    machines = [incrementer(), copier(), parity_machine(), constant_writer("u")]
    inputs = ["0", "111", "010101", "11110000"]
    c = universal_cost_constant(machines, inputs)
    assert c > 0
    for m in machines:
        enc = machine_to_json(m)
        for w in inputs:
            res, cost = simulate_universal(enc, w)
            assert Fraction(cost) <= c * res.steps ** 2 + c


def test_universal_cost_charges_the_final_extent():
    # incrementer on 011: 7 steps, 6 rules, the head reaches cell 3, so every
    # step costs 1 + 6 + 4
    res, cost = simulate_universal(machine_to_json(incrementer()), "011")
    assert res.halted and res.steps == 7 and res.tape_word(4) == "100#"
    assert cost == 7 * (1 + 6 + 4)


def test_universal_budget():
    enc = machine_to_json(left_mover())
    res, cost = simulate_universal(enc, "01", budget=9)
    assert not res.halted and res.steps == 9 and cost > 0


def test_corpus_names_are_stable():
    assert sorted(corpus()) == [
        "constant-d", "constant-u", "copier", "fair-coin", "immediate-halt",
        "incrementer", "left-mover", "parity"]
    assert fair_coin().delta == copier().delta
