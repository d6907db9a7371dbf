"""Reference Turing machine core: specs, validation, stepping, built-in programs.

This interpreter is the ground-truth oracle for every game-side equivalence
check, so it stays deliberately small and has one transition rule:
``step_in_place`` applies a transition to a :class:`Machine` (state, tape,
head) by writing one cell, moving the head and setting the state. Specs and
configurations are values, and ``run`` steps one machine and keeps its
trace as per-step deltas, so it costs no more than the cells a step touches.

Tapes are sparse maps from signed cell index to symbol; the blank symbol is
never stored explicitly (canonical form). State and alphabet declaration
order is meaningful: the compiler assigns state/symbol indices from it.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

from .errors import MachineStuck, SpecError

MOVES = ("L", "R")

HALTED = "halted"
STUCK = "stuck"
STEP_LIMIT = "step-limit"


@dataclass(frozen=True, slots=True)
class Transition:
    """One entry of the transition function: write, move the head, set state."""

    write: str
    move: str
    next_state: str


@dataclass(frozen=True, slots=True)
class HaltAction:
    """An explicit halt entry.

    ``write`` is applied before stopping (None leaves the cell untouched);
    the head never moves on a halt, even where a source table lists a
    direction next to the halt.
    """

    write: str | None = None


Rule = Transition | HaltAction


@dataclass(frozen=True)
class TMSpec:
    """A Turing machine description.

    ``states`` and ``alphabet`` are ordered tuples; the order doubles as the
    canonical index assignment used by the game-side compiler. ``transitions``
    maps (state, read symbol) to a :class:`Transition` or :class:`HaltAction`
    and may be partial.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    blank: str
    input_alphabet: tuple[str, ...]
    initial: str
    halting: tuple[str, ...]
    transitions: dict[tuple[str, str], Rule] = field(default_factory=dict)


@dataclass(frozen=True)
class TMConfig:
    """A machine configuration: state, sparse tape, head position."""

    state: str
    tape: dict[int, str] = field(default_factory=dict)
    head: int = 0


@dataclass(slots=True)
class Machine:
    """A configuration that ``step_in_place`` updates in place.

    Its tape is canonical, as a :class:`TMConfig`'s: the blank is never stored.
    """

    state: str
    tape: dict[int, str]
    head: int = 0

    @classmethod
    def of(cls, config: TMConfig) -> Machine:
        return cls(config.state, dict(config.tape), config.head)

    def config(self) -> TMConfig:
        return TMConfig(state=self.state, tape=dict(self.tape), head=self.head)


class Trace(Sequence):
    """The configurations of a run, as :class:`TMConfig` values.

    Stored as the first configuration, one delta per item after it (state,
    head, cell written, symbol written or None for the blank) and the last
    configuration, so ``trace[-1]`` is read in O(1). Iterating rebuilds the
    items in turn; ``trace[i]`` replays the first ``i`` deltas.
    """

    __slots__ = ("_first", "_deltas", "_last")

    def __init__(self, first: TMConfig, deltas: list[tuple[str, int, int, str | None]], last: TMConfig):
        self._first, self._deltas, self._last = first, deltas, last

    def __len__(self) -> int:
        return len(self._deltas) + 1

    def __getitem__(self, index: int) -> TMConfig:
        size = len(self._deltas) + 1
        position = index + size if index < 0 else index
        if not 0 <= position < size:
            raise IndexError("trace index out of range")
        if position == size - 1:
            return self._last
        if position == 0:
            return self._first
        tape = dict(self._first.tape)
        for state, head, cell, symbol in islice(self._deltas, position):
            _write(tape, cell, symbol)
        return TMConfig(state=state, tape=tape, head=head)

    def __iter__(self) -> Iterator[TMConfig]:
        yield self._first
        tape = dict(self._first.tape)
        for state, head, cell, symbol in self._deltas:
            _write(tape, cell, symbol)
            yield TMConfig(state=state, tape=dict(tape), head=head)


@dataclass(frozen=True)
class RunResult:
    """Outcome of ``run``: its trace, how it ended and how many steps it took."""

    trace: Trace  # the initial configuration, then one per application
    outcome: str  # HALTED | STUCK | STEP_LIMIT
    steps: int  # transition applications, the halting application included


def _write(tape: dict[int, str], cell: int, symbol: str | None) -> None:
    """Write ``symbol`` to ``cell``; None, the blank, leaves the cell unstored."""
    if symbol is None:
        tape.pop(cell, None)
    else:
        tape[cell] = symbol


def canonical_tape(tape: dict[int, str], blank: str) -> dict[int, str]:
    """Drop explicit blanks so equal tapes compare equal."""
    return {cell: sym for cell, sym in sorted(tape.items()) if sym != blank}


def validate_spec(spec: TMSpec) -> TMSpec:
    """Check every well-formedness rule, reporting the first violation."""
    if len(set(spec.states)) != len(spec.states):
        raise SpecError("duplicate state identifiers")
    if len(set(spec.alphabet)) != len(spec.alphabet):
        raise SpecError("duplicate alphabet symbols")
    states = set(spec.states)
    alphabet = set(spec.alphabet)
    if spec.blank not in alphabet:
        raise SpecError(f"blank symbol {spec.blank!r} not in alphabet")
    for sym in spec.input_alphabet:
        if sym not in alphabet:
            raise SpecError(f"input symbol {sym!r} not in alphabet")
    if spec.blank in spec.input_alphabet:
        raise SpecError(f"blank symbol {spec.blank!r} must not be in the input alphabet")
    if spec.initial not in states:
        raise SpecError(f"initial state {spec.initial!r} unknown")
    for st in spec.halting:
        if st not in states:
            raise SpecError(f"halting state {st!r} unknown")
    halting = set(spec.halting)
    for (state, read), rule in spec.transitions.items():
        if state not in states:
            raise SpecError(f"transition from unknown state {state!r}")
        if state in halting:
            raise SpecError(f"transition from halting state {state!r}")
        if read not in alphabet:
            raise SpecError(f"transition on symbol {read!r} outside alphabet")
        if isinstance(rule, HaltAction):
            if rule.write is not None and rule.write not in alphabet:
                raise SpecError(f"halt write symbol {rule.write!r} outside alphabet")
            continue
        if rule.write not in alphabet:
            raise SpecError(f"write symbol {rule.write!r} outside alphabet")
        if rule.move not in MOVES:
            raise SpecError(f"move {rule.move!r} is not L or R")
        if rule.next_state not in states:
            raise SpecError(f"next state {rule.next_state!r} unknown")
    return spec


def initial_config(spec: TMSpec, tape: dict[int, str] | None = None, head: int = 0) -> TMConfig:
    return TMConfig(state=spec.initial, tape=canonical_tape(tape or {}, spec.blank), head=head)


def validate_config(spec: TMSpec, config: TMConfig) -> TMConfig:
    if config.state not in spec.states:
        raise SpecError(f"configuration state {config.state!r} unknown")
    for cell, sym in config.tape.items():
        if sym not in spec.alphabet:
            raise SpecError(f"tape symbol {sym!r} at cell {cell} outside alphabet")
        if sym == spec.blank:
            raise SpecError(f"tape stores the blank symbol explicitly at cell {cell}")
    return config


def step_in_place(spec: TMSpec, machine: Machine) -> bool:
    """Apply one transition to ``machine``; True when it halted.

    A machine whose state is halting absorbs: nothing changes. An explicit
    halt entry applies its write and stops without moving the head. Raises
    :class:`MachineStuck` on an undefined (state, symbol) pair, leaving the
    machine as it was.
    """
    if machine.state in spec.halting:
        return True
    head = machine.head
    read = machine.tape.get(head, spec.blank)
    rule = spec.transitions.get((machine.state, read))
    if rule is None:
        raise MachineStuck(machine.state, read)
    if rule.write == spec.blank:
        machine.tape.pop(head, None)
    elif rule.write is not None:
        machine.tape[head] = rule.write
    if type(rule) is HaltAction:
        return True
    machine.head = head + (1 if rule.move == "R" else -1)
    machine.state = rule.next_state
    return False


def run(spec: TMSpec, config: TMConfig, max_steps: int) -> RunResult:
    """Run up to ``max_steps`` transition applications on one machine.

    A halt entry counts as one application (it may write); reaching a halting
    state costs none. The returned step count is the oracle's instruction
    count for lockstep comparisons. The trace holds ``config`` and one item
    per application after it, except a halt entry that changes nothing;
    each application is kept as the delta it made.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    validate_config(spec, config)
    machine = Machine.of(config)
    deltas: list[tuple[str, int, int, str | None]] = []
    outcome = STEP_LIMIT
    steps = 0
    for _ in range(max_steps):
        if machine.state in spec.halting:
            break
        cell = machine.head
        read = machine.tape.get(cell)
        try:
            halted = step_in_place(spec, machine)
        except MachineStuck:
            outcome = STUCK
            break
        steps += 1
        written = machine.tape.get(cell)
        if not halted or written != read:
            deltas.append((machine.state, machine.head, cell, written))
        if halted:
            outcome = HALTED
            break
    if machine.state in spec.halting:
        outcome = HALTED
    return RunResult(Trace(config, deltas, machine.config() if deltas else config), outcome, steps)


def count_symbol(config: TMConfig, symbol: str) -> int:
    return sum(1 for sym in config.tape.values() if sym == symbol)


# ---------------------------------------------------------------------------
# Built-in programs.
#
# Row grammar: "state read write move next" or "state read HALT [write]".
# ---------------------------------------------------------------------------

_BB3_ROWS = """
q0 0 1 R q1
q0 1 1 L q2
q1 0 1 L q0
q1 1 1 R q1
q2 0 1 L q1
q2 1 HALT 1
"""

_ROGOZHIN_10_3_ROWS = """
q0 0 1 R q0
q0 1 0 L q1
q0 b b R q3
q1 0 0 L q2
q1 1 0 L q1
q1 b b L q1
q2 0 0 L q1
q2 1 b L q5
q2 b b R q0
q3 0 1 R q0
q3 1 1 R q4
q3 b 1 L q3
q4 0 b L q2
q4 1 1 R q4
q4 b b R q4
q5 0 1 L q6
q5 1 1 L q5
q5 b b L q5
q6 0 0 R q7
q6 1 HALT
q6 b b L q8
q7 0 1 L q5
q7 1 1 R q7
q7 b b R q7
q8 0 1 L q9
q8 1 0 R q9
q8 b 0 L q3
q9 0 0 R q4
q9 1 0 R q9
q9 b b R q8
"""

_ROGOZHIN_24_2_ROWS = """
q1 0 0 R q5
q1 1 1 R q2
q2 0 1 R q1
q2 1 1 L q3
q3 0 0 L q4
q3 1 0 L q2
q4 0 1 L q12
q4 1 0 L q9
q5 0 1 R q1
q5 1 0 L q6
q6 0 0 L q7
q6 1 1 L q7
q7 0 1 L q8
q7 1 0 L q6
q8 0 0 L q7
q8 1 1 R q2
q9 0 0 R q19
q9 1 1 L q4
q10 0 1 L q4
q10 1 0 R q13
q11 0 0 L q4
q11 1 HALT
q12 0 0 R q19
q12 1 1 L q14
q13 0 0 R q10
q13 1 1 R q24
q14 0 0 L q15
q14 1 1 L q11
q15 0 0 R q16
q15 1 1 R q17
q16 0 0 R q15
q16 1 1 R q10
q17 0 0 R q16
q17 1 1 R q21
q18 0 0 R q19
q18 1 1 R q20
q19 0 1 L q3
q19 1 1 R q18
q20 0 1 R q18
q20 1 0 R q18
q21 0 0 R q22
q21 1 1 R q23
q22 0 1 L q10
q22 1 1 R q21
q23 0 1 R q21
q23 1 0 R q21
q24 0 0 R q13
q24 1 0 L q3
"""


def _parse_rows(text: str) -> dict[tuple[str, str], Rule]:
    transitions: dict[tuple[str, str], Rule] = {}
    for line in text.strip().splitlines():
        parts = line.split()
        state, read = parts[0], parts[1]
        if parts[2] == "HALT":
            transitions[(state, read)] = HaltAction(write=parts[3] if len(parts) > 3 else None)
        else:
            transitions[(state, read)] = Transition(write=parts[2], move=parts[3], next_state=parts[4])
    return transitions


# name -> (states, alphabet, initial, rows). The blank is "0" and the rest
# of the alphabet is the input alphabet.
_BUILTINS = {
    "bb3": (("q0", "q1", "q2"), ("0", "1"), "q0", _BB3_ROWS),
    "rogozhin_10_3": (tuple(f"q{i}" for i in range(10)), ("0", "1", "b"), "q0", _ROGOZHIN_10_3_ROWS),
    "rogozhin_24_2": (tuple(f"q{i}" for i in range(1, 25)), ("0", "1"), "q1", _ROGOZHIN_24_2_ROWS),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_program(name: str) -> TMSpec:
    """Return one of the shipped machines, transcribed row by row.

    ``bb3`` is the three-state Busy Beaver; ``rogozhin_10_3`` the 10-state,
    3-symbol universal machine; ``rogozhin_24_2`` the 24-state, 2-symbol one.
    """
    if name not in _BUILTINS:
        raise KeyError(f"unknown built-in program {name!r}")
    states, alphabet, initial, rows = _BUILTINS[name]
    return validate_spec(TMSpec(states, alphabet, "0", alphabet[1:], initial, (), _parse_rows(rows)))


# ---------------------------------------------------------------------------
# JSON file format. Exactly these fields; unknown fields are rejected.
# ---------------------------------------------------------------------------

_SPEC_FIELDS = {"states", "alphabet", "blank", "input_alphabet", "initial", "halting", "transitions"}


def spec_from_json(data: dict) -> TMSpec:
    if not isinstance(data, dict):
        raise SpecError("machine description must be a JSON object")
    unknown = set(data) - _SPEC_FIELDS
    if unknown:
        raise SpecError(f"unknown fields in machine description: {sorted(unknown)}")
    missing = _SPEC_FIELDS - set(data)
    if missing:
        raise SpecError(f"missing fields in machine description: {sorted(missing)}")
    for name in ("states", "alphabet", "input_alphabet", "halting"):
        if not isinstance(data[name], list) or not all(isinstance(item, str) for item in data[name]):
            raise SpecError(f"{name} must be a list of strings")
    for name in ("blank", "initial"):
        if not isinstance(data[name], str):
            raise SpecError(f"{name} must be a string")
    if not isinstance(data["transitions"], list):
        raise SpecError("transitions must be a list of records")
    transitions: dict[tuple[str, str], Rule] = {}
    for rec in data["transitions"]:
        if not isinstance(rec, dict):
            raise SpecError("transition record must be a JSON object")
        extra = set(rec) - {"state", "read", "write", "move", "next", "halt"}
        if extra:
            raise SpecError(f"unknown fields in transition record: {sorted(extra)}")
        halt = rec.get("halt", False)
        if not isinstance(halt, bool):
            raise SpecError("halt in a transition record must be true or false")
        for name, value in rec.items():
            # A halt record's null write leaves the cell as read.
            if name != "halt" and not isinstance(value, str) and not (halt and name == "write" and value is None):
                raise SpecError(f"{name} in a transition record must be a string")
        required = {"state", "read"} if halt else {"state", "read", "write", "move", "next"}
        if required - set(rec):
            raise SpecError(f"missing fields in transition record: {sorted(required - set(rec))}")
        key = (rec["state"], rec["read"])
        if key in transitions:
            raise SpecError(f"duplicate transition record for {key}")
        if halt:
            if "move" in rec or "next" in rec:
                raise SpecError(f"halt record for {key} must not carry move/next")
            transitions[key] = HaltAction(write=rec.get("write"))
        else:
            transitions[key] = Transition(write=rec["write"], move=rec["move"], next_state=rec["next"])
    spec = TMSpec(
        states=tuple(data["states"]),
        alphabet=tuple(data["alphabet"]),
        blank=data["blank"],
        input_alphabet=tuple(data["input_alphabet"]),
        initial=data["initial"],
        halting=tuple(data["halting"]),
        transitions=transitions,
    )
    return validate_spec(spec)


def load_spec(path: str | Path) -> TMSpec:
    return spec_from_json(json.loads(Path(path).read_text()))

