"""Plain references for the tests to check the fast paths against.

``tm.step_in_place`` updates one machine in place; ``reference_step`` builds
a fresh configuration per step and never touches its argument, so tests can
check the in-place rule, ``tm.run`` and ``harness.lockstep_verify`` against
a rule written without them.

``WorldState.event_log`` keeps a reference to the command, job or
instruction record it logs and renders it on read; an ``EagerLog`` builds
each entry's detail dict when it is appended instead, so a test can give a
world one (``with_eager_log``) and compare the exported logs.

``RulesetParams`` is frozen and refuses food params that starve a city;
``cut_floodplains_food`` breaks that on purpose, for the tests of the
starvation guard.

``spec_to_json`` writes a machine in the file format ``tm.spec_from_json``
reads, for the tests that feed machines to the CLI.

``run_instructions`` is the game side alone: it executes a compiled machine
instruction by instruction and checks nothing, so a test can read or decode
the world at each boundary itself, or drive the world past a point that
``harness.lockstep`` would refuse.

``check_vi_boundary`` asserts the invariant the README states for every VI
instruction boundary.

``tree_normal_form`` enumerates the small machines of the busy-beaver
census, each rule made only when a run first reads it.

``harness.random_tm`` draws no ``HaltAction``, so its machines never run a
halting macro that writes; ``with_halt_writer`` swaps one rule for one.
"""

from __future__ import annotations

import copy
import dataclasses
from collections.abc import Iterator
from dataclasses import dataclass

from civutm import harness
from civutm.controller import ControllerProgram, InstructionRecord
from civutm.errors import MachineStuck
from civutm.tm import HaltAction, TMConfig, TMSpec, Transition, validate_spec
from civutm import world as world_module
from civutm.world import TAPE_WORKER, Command, Job, WorldState


@dataclass(frozen=True)
class Halted:
    """Terminal outcome of ``reference_step``, carrying the final configuration."""

    config: TMConfig


def reference_step(spec: TMSpec, config: TMConfig) -> TMConfig | Halted:
    """One transition on a fresh copy of the tape, or the halt it reaches.

    A halting state absorbs; an explicit halt entry applies its write and
    keeps the head. Raises :class:`MachineStuck` on an undefined pair.
    """
    if config.state in spec.halting:
        return Halted(config)
    read = config.tape.get(config.head, spec.blank)
    rule = spec.transitions.get((config.state, read))
    if rule is None:
        raise MachineStuck(config.state, read)
    if isinstance(rule, HaltAction):
        tape = config.tape
        if rule.write is not None and rule.write != read:
            tape = _written(tape, config.head, rule.write, spec.blank)
        return Halted(TMConfig(state=config.state, tape=tape, head=config.head))
    tape = _written(config.tape, config.head, rule.write, spec.blank)
    head = config.head + (1 if rule.move == "R" else -1)
    return TMConfig(state=rule.next_state, tape=tape, head=head)


def _written(tape: dict[int, str], cell: int, symbol: str, blank: str) -> dict[int, str]:
    new = dict(tape)
    if symbol == blank:
        new.pop(cell, None)
    else:
        new[cell] = symbol
    return new


class EagerLog(list):
    """An event log that makes every detail a dict when it is appended: a
    job's command description plus ``completes_at``, a command's
    description, an instruction's start as its ``index``, ``state_index``
    and ``read``, and an instruction record's fields less ``state_index``,
    ``read`` and ``macro``."""

    def append(self, entry: tuple) -> None:
        turn, unit, command, detail = entry
        if isinstance(detail, Job):
            detail = {**detail.command.describe(), "completes_at": detail.completes_at}
        elif isinstance(detail, Command):
            detail = detail.describe()
        elif isinstance(detail, InstructionRecord) and command == "instruction_start":
            detail = {"index": detail.index, "state_index": detail.state_index, "read": detail.read}
        elif isinstance(detail, InstructionRecord):
            detail = dict(vars(detail))
            del detail["state_index"], detail["read"], detail["macro"]
        super().append((turn, unit, command, detail))


def with_eager_log(init_world):
    """``init_world`` whose worlds log into an :class:`EagerLog`."""

    def init(*args, **kwargs) -> WorldState:
        world = init_world(*args, **kwargs)
        world.event_log = EagerLog(world.event_log)
        return world

    return init


def cut_floodplains_food(world: WorldState) -> None:
    """Give the world a copy of its params with ``floodplains_food`` 0,
    which the params refuse when made, and re-derive every city's cached
    food delta, so the cities that work floodplains lose food from the next
    turn on. The copy keeps the cut from reaching the shared default params
    of every other world."""
    world.params = params = copy.copy(world.params)
    object.__setattr__(params, "floodplains_food", 0)
    for city in world.cities.values():
        world_module._rederive(world, city)


def with_halt_writer(spec: TMSpec, key: tuple[str, str], write: str) -> TMSpec:
    """``spec`` with its rule for ``key`` (state, read symbol) swapped for a
    halt that writes ``write``."""
    return validate_spec(dataclasses.replace(spec, transitions={**spec.transitions, key: HaltAction(write)}))


def spec_to_json(spec: TMSpec) -> dict:
    records = []
    for (state, read), rule in spec.transitions.items():
        if isinstance(rule, HaltAction):
            rec: dict = {"state": state, "read": read, "halt": True}
            if rule.write is not None:
                rec["write"] = rule.write
        else:
            rec = {"state": state, "read": read, "write": rule.write, "move": rule.move, "next": rule.next_state}
        records.append(rec)
    return {
        "states": list(spec.states),
        "alphabet": list(spec.alphabet),
        "blank": spec.blank,
        "input_alphabet": list(spec.input_alphabet),
        "initial": spec.initial,
        "halting": list(spec.halting),
        "transitions": records,
    }


def check_vi_boundary(world: WorldState) -> None:
    """Assert the VI boundary invariant: the world is at a boundary, its
    cities are contiguous, the head's city exists, and each end city is at
    its growth cap (so a tape extension never waits before it trains)."""
    assert world.at_boundary()
    indices = sorted(world.cities)
    assert indices == list(range(indices[0], indices[-1] + 1)), indices
    assert world.city_of_cell(world.units[TAPE_WORKER]) is not None, world.units[TAPE_WORKER]
    for end in (world.cities[indices[0]], world.cities[indices[-1]]):
        assert end.citizens == end.growth_cap, (end.index, end.citizens, end.growth_cap)


def run_instructions(world: WorldState, program: ControllerProgram, max_instructions: int):
    """Execute up to ``max_instructions`` instructions on ``world``.

    Yields each instruction's record with ``world`` at the boundary that
    follows, and stops after a halting record; :class:`MachineStuck`
    propagates. ``harness.execute_instruction`` is looked up at each call,
    so a test that patches it there patches this loop too.
    """
    for index in range(1, max_instructions + 1):
        record = harness.execute_instruction(world, program, index=index)
        yield record
        if record.halted:
            return


def tree_normal_form(num_states: int, budget: int) -> Iterator[tuple[TMSpec, bool]]:
    """Every 2-symbol machine of ``num_states`` states in tree normal form,
    with whether it halts within ``budget`` steps from the blank tape.

    A rule is made only when the run first reads its (state, symbol): either
    a halt, modelled as ``HaltAction("1")``, or any write and move to a
    state already used or the first one not yet used. A run is cut after
    ``budget`` steps, leaving the rules it never read undefined. The machine
    that halts at once is left out. A run steps its own tape in place, and
    each branch starts from a copy of the tape it branches from."""
    states = tuple(f"q{i}" for i in range(num_states))

    def spec(rules: dict) -> TMSpec:
        return TMSpec(states, ("0", "1"), "0", ("1",), states[0], (), rules)

    # Runs still to make: (rules, state, tape, head, steps taken, states used),
    # the next one last.
    runs = [({}, states[0], {}, 0, 0, 1)]
    while runs:
        rules, state, tape, head, steps, used = runs.pop()
        for steps in range(steps, budget):
            key = (state, tape.get(head, "0"))
            rule = rules.get(key)
            if rule is None:
                if rules:
                    yield spec({**rules, key: HaltAction("1")}), True
                branches = [
                    ({**rules, key: Transition(write, move, target)}, state, dict(tape), head, steps, max(used, index + 1))
                    for index, target in enumerate(states[: used + 1])
                    for write in ("0", "1")
                    for move in ("L", "R")
                ]
                runs += reversed(branches)
                break
            if rule.write == "0":
                tape.pop(head, None)
            else:
                tape[head] = rule.write
            head += 1 if rule.move == "R" else -1
            state = rule.next_state
        else:
            yield spec(rules), False
