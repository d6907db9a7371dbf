"""Reference interpreter tests: golden facts, stepping rules, validation."""

from __future__ import annotations

import dataclasses
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from civutm.errors import MachineStuck, SpecError
from civutm.harness import random_tm
from civutm.tm import (
    HaltAction,
    Machine,
    TMConfig,
    TMSpec,
    Transition,
    builtin_program,
    canonical_tape,
    count_symbol,
    initial_config,
    run,
    spec_from_json,
    step_in_place,
    validate_spec,
)

from reference import Halted, reference_step, spec_to_json

# Golden facts for the three-state Busy Beaver, computed once with an
# independent brute-force interpreter and frozen here. The published figure
# text counts 11 instructions for the same run; the oracle counts 13 and the
# two are reported side by side, never reconciled.
BB3_STEPS = 13
BB3_ONES = 6
BB3_FINAL_HEAD = 0
BB3_CELLS = list(range(-3, 3))


def test_bb3_oracle_golden():
    spec = builtin_program("bb3")
    result = run(spec, initial_config(spec), 1000)
    final = result.trace[-1]
    assert result.outcome == "halted"
    assert result.steps == BB3_STEPS
    assert count_symbol(final, "1") == BB3_ONES
    assert final.head == BB3_FINAL_HEAD
    assert sorted(final.tape) == BB3_CELLS


def test_bb3_first_step():
    spec = builtin_program("bb3")
    machine = Machine.of(initial_config(spec))
    assert step_in_place(spec, machine) is False
    assert machine.config() == TMConfig(state="q1", tape={0: "1"}, head=1)


def test_halting_state_absorbs():
    spec = TMSpec(
        states=("a", "h"),
        alphabet=("0", "1"),
        blank="0",
        input_alphabet=("1",),
        initial="a",
        halting=("h",),
        transitions={("a", "0"): Transition("1", "R", "h")},
    )
    config = TMConfig(state="h", tape={0: "1"}, head=5)
    machine = Machine.of(config)
    assert step_in_place(spec, machine) is True
    assert machine.config() == config


def test_bb3_halt_entry_writes_then_stops():
    spec = builtin_program("bb3")
    machine = Machine("q2", {0: "1"}, 0)
    assert step_in_place(spec, machine) is True
    assert machine.head == 0  # the halt row's printed move is ignored
    assert machine.tape == {0: "1"}


def test_halt_entry_with_real_write():
    spec = TMSpec(
        states=("a",),
        alphabet=("0", "1"),
        blank="0",
        input_alphabet=("1",),
        initial="a",
        halting=(),
        transitions={("a", "0"): HaltAction(write="1")},
    )
    machine = Machine.of(initial_config(spec))
    assert step_in_place(validate_spec(spec), machine) is True
    assert machine.tape == {0: "1"}


def test_stuck_is_an_error_not_a_halt():
    spec = TMSpec(
        states=("a", "b"),
        alphabet=("0", "1"),
        blank="0",
        input_alphabet=("1",),
        initial="a",
        halting=(),
        transitions={("a", "0"): Transition("1", "R", "b")},
    )
    validate_spec(spec)
    with pytest.raises(MachineStuck):
        step_in_place(spec, Machine("b", {}, 0))
    result = run(spec, initial_config(spec), 10)
    assert result.outcome == "stuck"
    assert result.steps == 1


def test_run_zero_steps():
    spec = builtin_program("bb3")
    result = run(spec, initial_config(spec), 0)
    assert len(result.trace) == 1
    assert result.outcome == "step-limit"


def _valid_spec(**overrides) -> TMSpec:
    base = dict(
        states=("a", "h"),
        alphabet=("0", "1"),
        blank="0",
        input_alphabet=("1",),
        initial="a",
        halting=("h",),
        transitions={("a", "0"): Transition("1", "R", "h")},
    )
    base.update(overrides)
    return TMSpec(**base)


def test_validate_rejects_transition_from_halting_state():
    spec = _valid_spec(transitions={("h", "0"): Transition("1", "R", "h")})
    with pytest.raises(SpecError, match="halting state"):
        validate_spec(spec)


def test_validate_rejects_blank_in_input_alphabet():
    spec = _valid_spec(input_alphabet=("0", "1"))
    with pytest.raises(SpecError, match="blank"):
        validate_spec(spec)


@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(blank="x"), "blank"),
        (dict(initial="zz"), "initial"),
        (dict(halting=("zz",)), "halting"),
        (dict(transitions={("a", "0"): Transition("x", "R", "h")}), "write"),
        (dict(transitions={("a", "0"): Transition("1", "U", "h")}), "move"),
        (dict(transitions={("a", "0"): Transition("1", "R", "zz")}), "next state"),
        (dict(transitions={("a", "9"): Transition("1", "R", "h")}), "symbol"),
        (dict(states=("a", "a", "h")), "duplicate"),
    ],
)
def test_validate_rejects(overrides, message):
    with pytest.raises(SpecError, match=message):
        validate_spec(_valid_spec(**overrides))


def test_builtin_bb3_shape():
    spec = builtin_program("bb3")
    assert len(spec.states) == 3
    assert len(spec.alphabet) == 2
    assert len(spec.transitions) == 6
    halts = [r for r in spec.transitions.values() if isinstance(r, HaltAction)]
    assert len(halts) == 1


def test_builtin_rogozhin_10_3():
    spec = builtin_program("rogozhin_10_3")
    assert (len(spec.states), len(spec.alphabet)) == (10, 3)
    assert spec.transitions[("q0", "1")] == Transition("0", "L", "q1")
    assert len(spec.transitions) == 30


def test_builtin_rogozhin_24_2():
    spec = builtin_program("rogozhin_24_2")
    assert (len(spec.states), len(spec.alphabet)) == (24, 2)
    assert spec.transitions[("q11", "1")] == HaltAction(write=None)
    assert len(spec.transitions) == 48


def test_builtin_unknown_name():
    with pytest.raises(KeyError):
        builtin_program("bb4")


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@st.composite
def specs_and_configs(draw):
    n_states = draw(st.integers(2, 5))
    n_syms = draw(st.integers(2, 3))
    states = tuple(f"q{i}" for i in range(n_states))
    alphabet = ("0", "1", "b")[:n_syms]
    transitions = {}
    for state in states[:-1]:
        for sym in alphabet:
            transitions[(state, sym)] = Transition(
                write=draw(st.sampled_from(alphabet)),
                move=draw(st.sampled_from(("L", "R"))),
                next_state=draw(st.sampled_from(states)),
            )
    spec = validate_spec(
        TMSpec(
            states=states,
            alphabet=alphabet,
            blank="0",
            input_alphabet=alphabet[1:],
            initial=states[0],
            halting=(states[-1],),
            transitions=transitions,
        )
    )
    cells = draw(st.dictionaries(st.integers(-5, 5), st.sampled_from(alphabet[1:]), max_size=6))
    head = draw(st.integers(-5, 5))
    config = TMConfig(state=draw(st.sampled_from(states[:-1])), tape=canonical_tape(cells, "0"), head=head)
    return spec, config


@settings(max_examples=150, deadline=None)
@given(specs_and_configs())
def test_step_locality_and_canonicity(sc):
    spec, config = sc
    machine = Machine.of(config)
    halted = step_in_place(spec, machine)
    nxt = machine.config()
    if halted:
        assert nxt.head == config.head
    else:
        assert abs(nxt.head - config.head) == 1
    assert spec.blank not in nxt.tape.values()
    changed = {c for c in set(config.tape) | set(nxt.tape) if config.tape.get(c) != nxt.tape.get(c)}
    assert changed <= {config.head}


@settings(max_examples=50, deadline=None)
@given(specs_and_configs())
def test_step_determinism(sc):
    spec, config = sc

    def stepped():
        machine = Machine.of(config)
        return step_in_place(spec, machine), machine.config()

    assert stepped() == stepped()


# ---------------------------------------------------------------------------
# The in-place rule against the copying one: ``step_in_place`` updates one
# machine and ``run`` keeps deltas; ``reference_step`` and the reference run
# below build a fresh configuration per step and keep every one.
# ---------------------------------------------------------------------------


def _reference_run(spec, config, max_steps):
    """(trace, outcome, steps) with one full configuration per step."""
    trace = [config]
    steps = 0
    for _ in range(max_steps):
        cur = trace[-1]
        if cur.state in spec.halting:
            return tuple(trace), "halted", steps
        try:
            nxt = reference_step(spec, cur)
        except MachineStuck:
            return tuple(trace), "stuck", steps
        steps += 1
        if isinstance(nxt, Halted):
            if nxt.config != cur:
                trace.append(nxt.config)
            return tuple(trace), "halted", steps
        trace.append(nxt)
    if trace[-1].state in spec.halting:
        return tuple(trace), "halted", steps
    return tuple(trace), "step-limit", steps


@st.composite
def machines_with_gaps(draw):
    """A ``random_tm`` machine with some transitions dropped (stuck) and some
    turned into halt entries whose write is None, the blank, the read symbol
    or another symbol, plus a canonical tape around the head."""
    num_states = draw(st.integers(1, 6))
    spec = random_tm(draw(st.integers(0, 10**6)), num_states, draw(st.integers(1, 3)))
    transitions = {}
    for (state, read), rule in spec.transitions.items():
        kind = draw(st.sampled_from(("keep", "keep", "keep", "drop", "halt")))
        if kind == "keep":
            transitions[(state, read)] = rule
        elif kind == "halt":
            write = draw(st.sampled_from((None, spec.blank, read, *spec.alphabet)))
            transitions[(state, read)] = HaltAction(write=write)
    spec = validate_spec(dataclasses.replace(spec, transitions=transitions))
    cells = draw(st.dictionaries(st.integers(-6, 6), st.sampled_from(spec.alphabet), max_size=6))
    return spec, canonical_tape(cells, spec.blank)


def _applied(rule, *args):
    try:
        return rule(*args)
    except MachineStuck as stuck:
        return "stuck", stuck.args


@settings(max_examples=200, deadline=None)
@given(machines_with_gaps(), st.data())
def test_in_place_rule_agrees_with_the_copying_one(spec_and_tape, data):
    spec, tape = spec_and_tape
    config = TMConfig(state=data.draw(st.sampled_from(spec.states)), tape=tape, head=data.draw(st.integers(-7, 7)))
    before = dict(config.tape)
    expected = _applied(reference_step, spec, config)
    assert config.tape == before  # the copying rule leaves its argument alone
    machine = Machine.of(config)
    try:
        halted = step_in_place(spec, machine)
    except MachineStuck as stuck:
        assert expected == ("stuck", stuck.args)
        assert machine.config() == config  # a stuck machine is left as it was
    else:
        assert (halted, machine.config()) == ((True, expected.config) if halted else (False, expected))


@settings(max_examples=200, deadline=None)
@given(machines_with_gaps(), st.integers(0, 60), st.data())
def test_run_keeps_the_trace_of_the_copying_run(spec_and_tape, max_steps, data):
    spec, tape = spec_and_tape
    config = initial_config(spec, tape, head=data.draw(st.integers(-3, 3)))
    result = run(spec, config, max_steps)
    trace, outcome, steps = _reference_run(spec, config, max_steps)
    assert (result.outcome, result.steps, len(result.trace)) == (outcome, steps, len(trace))
    assert list(result.trace) == list(trace)
    assert result.trace[0] == trace[0] and result.trace[-1] == trace[-1]
    for index in data.draw(st.lists(st.integers(-len(trace), len(trace) - 1), max_size=5)):
        assert result.trace[index] == trace[index]
    for index in (len(trace), -len(trace) - 1):
        with pytest.raises(IndexError):
            result.trace[index]


def _right_runner() -> TMSpec:
    rule = Transition("1", "R", "a")
    return validate_spec(_valid_spec(states=("a",), halting=(), transitions={("a", "0"): rule, ("a", "1"): rule}))


def test_run_memory_grows_with_steps_not_with_steps_times_tape():
    # The right-runner writes a new cell every step; keeping one full
    # configuration per step took over 1 GB at 8,000 steps.
    spec = _right_runner()
    tracemalloc.start()
    try:
        result = run(spec, initial_config(spec), 8000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.outcome, result.steps, len(result.trace)) == ("step-limit", 8000, 8001)
    assert result.trace[-1] == TMConfig(state="a", tape={cell: "1" for cell in range(8000)}, head=8000)
    assert peak < 10 * 2**20


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["bb3", "rogozhin_10_3", "rogozhin_24_2"])
def test_spec_json_roundtrip(name):
    spec = builtin_program(name)
    assert spec_from_json(spec_to_json(spec)) == spec


def test_spec_json_rejects_unknown_fields():
    data = spec_to_json(builtin_program("bb3"))
    data["flavor"] = "crunchy"
    with pytest.raises(SpecError, match="unknown fields"):
        spec_from_json(data)


def test_spec_json_rejects_halt_with_move():
    data = spec_to_json(builtin_program("bb3"))
    data["transitions"][0] = {"state": "q0", "read": "0", "halt": True, "move": "R"}
    with pytest.raises(SpecError, match="halt record"):
        spec_from_json(data)


def test_spec_json_rejects_missing_fields():
    data = spec_to_json(builtin_program("bb3"))
    del data["blank"]
    with pytest.raises(SpecError, match="missing"):
        spec_from_json(data)
