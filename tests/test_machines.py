import json
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groundlab.machines as machines
import machines_oracle as oracle
from groundlab.measures import DEPTH_CAP
from groundlab.machines import (
    DESK_BUDGET_CAP,
    Machine,
    NonConformingError,
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
    run,
    seed_budget,
    selector_dispatch,
    selector_weights,
    simulate_universal,
    universal_cost_constant,
    word_measure,
)
from groundlab.measures import WordMeasure
from groundlab.tiles import InputError


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
    assert str(info.value) == "machine copier exceeded 1 steps"


def test_word_measure_budget_past_lockstep_phase():
    # 20 000 steps outlast the lanes' lockstep phase: seed 0 finishes on the
    # interpreter and is the one reported
    with pytest.raises(NonConformingError) as info:
        word_measure(left_mover(), 6, budget=20_000)
    assert info.value.seed == "000000"
    assert str(info.value) == "machine left-mover exceeded 20000 steps"


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


SYMBOLS = ("0", "1", "u", "d", "#", "x")


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
    # small blocks and a short lockstep phase put block offsets and the
    # hand-off to the interpreter within reach of small k; k = 13 runs two
    # blocks as they are
    lanes = data.draw(st.sampled_from([1, 3, machines._BLOCK_LANES] if k <= 8
                                      else [machines._BLOCK_LANES]), "lanes")
    phase = data.draw(st.sampled_from([0, 2, 7] + [machines._LOCKSTEP_STEPS] * 3), "phase")
    want = _outcome(oracle.word_measure, machine, k, depth, budget)
    with mock.patch.object(machines, "_BLOCK_LANES", lanes), \
            mock.patch.object(machines, "_LOCKSTEP_STEPS", phase):
        assert _outcome(word_measure, machine, k, depth, budget) == want


def test_word_measure_clamps_at_cell_zero():
    # parity stops on the letter it reads at cell 0 after its head clamped
    # there; its longest run, to the step, is the budget
    m = parity_machine()
    need = max(run(m, format(s, "04b")).steps for s in range(16))
    assert word_measure(m, 4, budget=need) == oracle.word_measure(m, 4, budget=need)
    assert (_outcome(word_measure, m, 4, None, need - 1)
            == _outcome(oracle.word_measure, m, 4, None, need - 1))


def test_word_measure_heads_run_past_the_seed():
    # the head writes three cells past the seed before it stops, so the lanes'
    # tape widens under it; a write past a lane's row would put '#' into the
    # next lane's word
    tape = ("0", "1", "u", "d", "#")
    trail = ["s", "t1", "t2", "t3", "h"]
    delta = {("s", "0"): ("s", "u", 1), ("s", "1"): ("s", "d", 1)}
    for q, after in zip(trail, trail[1:]):
        for a in tape:
            delta.setdefault((q, a), (after, "u", 1) if a == "#" else ("h", "#", 1))
    m = Machine(tuple(trail), "s", frozenset(["h"]), ("0", "1"), tape, "#", delta)
    for k in range(1, 9):
        assert word_measure(m, k) == oracle.word_measure(m, k)


def test_word_measure_fails_in_a_later_block():
    # the lowest failing seed is 2^12, the first seed of the second block
    tape = ("0", "1", "u", "d", "x", "#")
    delta = {("s", a): ("s", a, 1) for a in tape}
    delta.update({("w", a): ("w", "u", 1) for a in tape})
    delta.update({("s", "0"): ("w", "u", 1), ("s", "1"): ("w", "x", 1),
                  ("w", "#"): ("h", "#", 1)})
    m = Machine(("s", "w", "h"), "s", frozenset(["h"]), ("0", "1"), tape, "#",
                delta, name="first-bit")
    with pytest.raises(NonConformingError) as info:
        word_measure(m, 13, depth=2)
    assert info.value.seed == "1" + "0" * 12
    assert str(info.value) == "machine first-bit left a non-word output 'xu'"


def test_word_measure_non_word_output():
    with pytest.raises(NonConformingError):
        word_measure(incrementer(), 2)


def test_enumeration_is_length_lex_and_versioned():
    machines, version = machine_enumeration()
    texts = [machine_to_json(m) for m in machines]
    assert sorted(texts, key=lambda s: (len(s), s)) == texts
    assert version.startswith("sha256:")
    again, version2 = machine_enumeration()
    assert version2 == version
    assert [m.name for m in again] == [m.name for m in machines]
    assert [m.name for m in machines] == [
        "constant-d", "constant-u", "copier", "parity"]


def test_selector_dispatch():
    enum, _ = machine_enumeration()
    mx = constant_writer("u")
    assert selector_dispatch(mx, enum, "0101", "").kind == "default"
    assert selector_dispatch(mx, enum, "0101", "###").kind == "default"
    got = selector_dispatch(mx, enum, "0101", "11#")
    assert got.kind == "selected" and got.index == 2
    assert got.machine.name == enum[1].name
    assert selector_dispatch(mx, enum, "0101", "1#1").kind == "forbidden"
    assert selector_dispatch(mx, enum, "0x01", "1").kind == "forbidden"
    assert selector_dispatch(mx, enum, "01", "111").kind == "forbidden"
    deep = selector_dispatch(mx, enum, "1" * 9, "1" * 9)
    assert deep.kind == "default" and deep.machine is mx


def test_selector_weights():
    rows = selector_weights(3, 4)
    assert rows[0] == (0, Fraction(12, 15))
    assert rows[1:] == [(i, Fraction(1, 15)) for i in (1, 2, 3)]
    assert sum(w for _, w in rows) == 1
    rows2 = selector_weights(10, 2)
    assert len(rows2) == 3
    assert sum(w for _, w in rows2) == 1
    assert rows2[0][1] == 1 - Fraction(2, 2 ** 11 - 1)


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


def test_universal_budget():
    enc = machine_to_json(left_mover())
    res, cost = simulate_universal(enc, "01", budget=9)
    assert not res.halted and res.steps == 9 and cost > 0


def test_corpus_names_are_stable():
    assert sorted(corpus()) == [
        "constant-d", "constant-u", "copier", "fair-coin", "immediate-halt",
        "incrementer", "left-mover", "parity"]
    assert fair_coin().delta == copier().delta
