"""Lockstep equivalence verification, overhead accounting, random machines.

``lockstep`` is the one loop that executes a compiled program; the verifier
and the CLI consume it. It runs the reference interpreter and the game
construction side by side and checks at every instruction boundary that the
world decodes to the oracle's configuration: state identifier, head index
and canonical sparse tape, exact equality, halting included. The oracle is
one :class:`~civutm.tm.Machine` stepped in place, so a step costs the cell
it writes, not the tape, and it is the only machine in the loop. The world
is decoded in full at the start; after each instruction it is read
(``codec.read_cells``) on its state, its head and the cells that can have
changed: those its tape recorded as written, and the one the oracle wrote.
Equal at the start and equal on every changed cell is equal on the whole
tape, so this is the full comparison at the cost of the cells written. A
failed compare is a divergence, and a full decode builds its report. A run
that did not diverge is decoded in full once more at the end, and
:class:`~civutm.errors.CivUtmError` is raised if that disagrees with the
oracle: a cell changed without being recorded. A divergence is a report
outcome, not an exception.

``overhead_report`` turns a completed run's records into per-instruction
turn counts and compares them against the published bounds (5T+M for BE,
4·B_rr+1 for V, C+S(L)+3 per tape extension for VI) and, on BE and V,
against a tight bound: ``macro_turns`` folds the ops that
``controller.tape_plan`` finds in the world's tape ops for a macro's (read,
write) over the world's own job durations. Turns the published bounds do not
count (movement, the extra pillage turn, growth waits) are itemized.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Iterator
from dataclasses import dataclass, field

from . import codec
from .controller import (
    CommandMacro,
    ControllerProgram,
    InstructionRecord,
    compile_program,
    execute_instruction,
    tape_plan,
)
from .errors import CivUtmError, CompileError, MachineStuck
from .tm import Machine, TMConfig, TMSpec, Transition, initial_config, validate_spec
from .tm import step_in_place as step  # looked up here at call time, so a tracer can wrap it
from .world import RULESET_BE, RULESET_V, RULESET_VI, TAPE_WORKER, RulesetParams, WorldState, init_world, move_turns, op_turns

EQUIVALENT = "equivalent"
DIVERGED = "diverged"
ORACLE_STUCK = "oracle-stuck"
STEP_LIMIT = "step-limit"


@dataclass
class LockstepReport:
    """Outcome of one side-by-side run of ``program``."""

    program: ControllerProgram
    outcome: str
    instructions_verified: int
    first_divergence: dict | None = None
    oracle_steps: int = 0
    final_config: TMConfig | None = None
    records: list[InstructionRecord] = field(default_factory=list)
    world: WorldState | None = None

    @property
    def halted(self) -> bool:
        return self.outcome == EQUIVALENT

    def to_json(self) -> dict:
        out = {
            "ruleset": self.program.ruleset,
            "outcome": self.outcome,
            "instructions_verified": self.instructions_verified,
            "halted": self.halted,
            "oracle_steps": self.oracle_steps,
        }
        if self.first_divergence is not None:
            out["first_divergence"] = self.first_divergence
        # VI only: the lowest stock of any city on any turn, skipped quiet
        # turns included (advance_turn raises Starvation below zero).
        if self.world is not None and self.world.min_food_observed is not None:
            out["min_food_stock"] = self.world.min_food_observed
        return out


def _config_json(config: TMConfig | Machine) -> dict:
    return {"state": config.state, "head": config.head, "tape": {str(k): v for k, v in sorted(config.tape.items())}}


def lockstep(
    program: ControllerProgram, initial_tape: dict[int, str] | None = None, max_instructions: int = 100
) -> tuple[LockstepReport, Iterator[tuple]]:
    """Set up a run of ``program`` in a world built with its params: (report, boundaries).

    The iterator yields ``(None, oracle, oracle.tape)`` at the start, then
    ``(record, oracle, changed)`` per instruction, each once the world has
    agreed with the oracle. ``oracle`` is the oracle's machine, live until
    the next step: read it before drawing the next boundary.
    ``changed`` maps the oracle's cell to its new symbol (None for the
    blank) when the step changed it, and is ``{}`` otherwise. The report is
    complete when the iterator ends. A negative budget raises ValueError.
    """
    if max_instructions < 0:
        raise ValueError("max_instructions must be >= 0")
    world = init_world(program.params.ruleset, codec.encode_tape(initial_tape or {}, program), program.params)
    report = LockstepReport(program=program, outcome=STEP_LIMIT, instructions_verified=0, world=world)
    return report, _boundaries(program, initial_config(program.spec, initial_tape or {}), max_instructions, report)


def _boundaries(program: ControllerProgram, start: TMConfig, max_instructions: int, report: LockstepReport):
    spec, world = program.spec, report.world

    def diverged(index: int, oracle_side, game_side) -> None:
        report.outcome = DIVERGED
        report.first_divergence = {"instruction": index, "oracle": oracle_side, "decoded": game_side}

    decoded = codec.decode(world, program)
    if decoded != start:
        diverged(0, _config_json(start), _config_json(decoded) if decoded else "mid-instruction")
        return
    world.tape.take_written()
    oracle = Machine.of(start)
    yield None, oracle, oracle.tape

    for index in range(1, max_instructions + 1):
        oracle_stuck = game_stuck = oracle_halted = False
        oracle_cell = oracle.head  # the only cell the oracle's step can change
        before = oracle.tape.get(oracle_cell)
        if oracle.state in spec.halting:
            oracle_halted = True  # absorbed; no application counted
        else:
            try:
                oracle_halted = step(spec, oracle)
            except MachineStuck:
                oracle_stuck = True
            else:
                report.oracle_steps += 1

        try:
            record = execute_instruction(world, program, index)
        except MachineStuck:
            game_stuck = True
        else:
            cells = world.tape.take_written()
            cells.add(oracle_cell)
            read = codec.read_cells(world, program, cells)
            agrees = read is not None and read[0] == oracle.state and read[2] == oracle.head
            if agrees:  # on the cells that can have changed: the oracle's, and those the world wrote
                for cell in cells:
                    if read[1].get(cell) != oracle.tape.get(cell):
                        agrees = False
                        break

        if oracle_stuck and game_stuck:
            report.outcome = ORACLE_STUCK
            break
        if oracle_stuck or game_stuck:
            diverged(index, "stuck" if oracle_stuck else _config_json(oracle), "stuck" if game_stuck else "ran")
            break
        report.records.append(record)

        if not agrees:
            decoded = codec.decode(world, program)
            diverged(index, _config_json(oracle), _config_json(decoded) if decoded else "mid-instruction")
            break
        if oracle_halted != record.halted:
            diverged(index, "halted" if oracle_halted else "running", "halted" if record.halted else "running")
            break
        report.instructions_verified = index
        after = oracle.tape.get(oracle_cell)
        yield record, oracle, {oracle_cell: after} if after != before else {}
        if oracle_halted:
            report.outcome = EQUIVALENT
            break

    report.final_config = oracle.config()
    if report.outcome != DIVERGED and codec.decode(world, program) != report.final_config:
        raise CivUtmError(
            f"the world no longer decodes to the configuration verified at instruction "
            f"{report.instructions_verified}: a tape cell changed without being recorded"
        )


def lockstep_verify(
    spec: TMSpec,
    ruleset: str,
    initial_tape: dict[int, str] | None = None,
    max_instructions: int = 100,
    program: ControllerProgram | None = None,
) -> LockstepReport:
    """Run :func:`lockstep` of ``program`` (``spec`` compiled for ``ruleset``
    when None) to its end; another machine's or ruleset's raises CompileError."""
    program = program or compile_program(spec, ruleset)
    if program.ruleset != ruleset or program.spec != spec:
        raise CompileError(f"the program was not compiled from this machine for ruleset {ruleset}")
    report, boundaries = lockstep(program, initial_tape, max_instructions)
    for _ in boundaries:
        pass
    return report


# ---------------------------------------------------------------------------
# Overhead accounting
# ---------------------------------------------------------------------------


def macro_turns(macro: CommandMacro, params: RulesetParams, read: str) -> int:
    """The turns a BE/V macro takes on ``read``, folded from ``world``'s
    durations: its plan's ops one after another, then the head's move unless
    it halts, against the state worker's |delta| builds or removals
    alongside. Exact but for a rover's pillage, which may overlap the move."""
    _, worker_ops, rover_ops = tape_plan(params.ruleset, read, macro.write_symbol)
    tape = sum(op_turns(params, op) for op in (*worker_ops, *rover_ops))
    move = 0 if macro.halt else move_turns(params, TAPE_WORKER, 1)
    state = abs(macro.state_delta) * op_turns(params, "build_state" if macro.state_delta > 0 else "remove_state")
    return max(tape + move, state)


def paper_instruction_bound(params: RulesetParams) -> int | None:
    """The published per-instruction overhead bound (movement not counted)."""
    if params.ruleset == RULESET_BE:
        return 5 * params.terrascape_build_turns + params.road_build_turns
    if params.ruleset == RULESET_V:
        return 4 * params.railroad_build_turns + 1
    return None  # VI's published bound is per tape extension, see below


def paper_extension_bound(params: RulesetParams, settler_cost_turns: int) -> int:
    """C + S(L) + 3: full growth of the new city (2 citizens to its cap of 4),
    the settler's training time in turns, and the founding turns."""
    grow = 2 * params.city_growth_turns
    return grow + settler_cost_turns + params.settler_found_turns


def derived_instruction_bound(program: ControllerProgram) -> int | None:
    """Tight per-instruction bound: the most ``macro_turns`` of any of the
    program's macros, under its params; None for VI."""
    if program.ruleset == RULESET_VI:
        return None
    return max((macro_turns(macro, program.params, read) for (_, read), macro in program.macros.items()), default=0)


def overhead_report(report: LockstepReport) -> dict:
    """Turn accounting for a completed run under its program's params, as ``cost`` prints it."""
    program, records = report.program, report.records
    per_instruction = []
    excesses = []
    extensions = []
    paper = paper_instruction_bound(program.params)
    derived = derived_instruction_bound(program)
    paper_ok = derived_ok = True

    for rec in records:
        entry = {
            "instruction": rec.index,
            "turns": rec.turns,
            "movement_turns": rec.movement_turns,
            "extension": rec.extension,
        }
        per_instruction.append(entry)

        if program.ruleset == RULESET_VI:
            if rec.extension:
                bound = paper_extension_bound(program.params, rec.settler_cost_turns)
                counted = rec.turns - rec.movement_turns - rec.pre_train_wait
                ext = {
                    "instruction": rec.index,
                    "turns": rec.turns,
                    "counted_turns": counted,
                    "paper_bound": bound,
                    "tape_length_before": rec.tape_length_before,
                    "settler_cost_production": rec.settler_cost_production,
                    "settler_cost_turns": rec.settler_cost_turns,
                    "itemized_excess": {
                        "settler_movement": rec.movement_turns,
                        "pre_train_wait": rec.pre_train_wait,
                    },
                }
                extensions.append(ext)
                if counted > bound:  # the derived check is the same: bound plus the itemized turns
                    paper_ok = derived_ok = False
            elif rec.turns > rec.movement_turns:
                derived_ok = False  # a non-extension VI instruction is pure movement
            continue

        if rec.turns - rec.movement_turns > paper:
            paper_ok = False
        if rec.turns > paper:
            excesses.append(
                {
                    "instruction": rec.index,
                    "turns": rec.turns,
                    "paper_bound": paper,
                    "itemized_excess": {"movement": rec.movement_turns},
                }
            )
        if rec.turns > derived:
            derived_ok = False

    return {
        "ruleset": program.ruleset,
        "per_instruction": per_instruction,
        "max_observed": max((rec.turns for rec in records), default=0),
        "paper_bound": paper,
        "derived_bound": derived,
        "paper_bound_satisfied": paper_ok,
        "derived_bound_satisfied": derived_ok,
        "excesses": excesses,
        "extensions": extensions,
    }


# ---------------------------------------------------------------------------
# Random machines
# ---------------------------------------------------------------------------


# Rules are values: random machines share one object per distinct rule.
_rule = functools.cache(Transition)


# Random machines share their (states, alphabet, input alphabet, halting)
# tuples, one set per (state count, symbol count) drawn, and their
# transition keys, one per (state, symbol) of those states and alphabets.
@functools.cache
def _random_shape(num_states: int, num_symbols: int) -> tuple[tuple[str, ...], ...]:
    states, alphabet = tuple(f"q{i}" for i in range(num_states)), ("0", "1", "b")[:num_symbols]
    return states, alphabet, alphabet[1:], (states[-1],) if num_states >= 2 else (states[0],)


@functools.cache
def _rule_key(state: str, sym: str) -> tuple[str, str]:
    return state, sym


def random_tm(seed: int, num_states: int, num_symbols: int) -> TMSpec:
    """A seeded, reproducible machine with a total transition function.

    States are ``q0..q{n-1}`` with ``q0`` initial; the last state is halting
    (for ``num_states >= 2``) and at least one transition targets it. The
    blank is symbol ``"0"``.
    """
    if not 1 <= num_symbols <= 3:
        raise ValueError("num_symbols must be between 1 and 3")
    if num_states < 1:
        raise ValueError("num_states must be >= 1")
    rng = random.Random(seed)
    states, alphabet, input_alphabet, halting = _random_shape(num_states, num_symbols)
    working = [st for st in states if st not in halting]
    transitions: dict[tuple[str, str], Transition] = {}
    for state in working:
        for sym in alphabet:
            transitions[_rule_key(state, sym)] = _rule(
                write=rng.choice(alphabet),
                move=rng.choice(("L", "R")),
                next_state=rng.choice(states),
            )
    if working:
        key = (rng.choice(working), rng.choice(alphabet))
        old = transitions[key]
        transitions[key] = _rule(write=old.write, move=old.move, next_state=halting[0])
    return validate_spec(TMSpec(states, alphabet, "0", input_alphabet, states[0], halting, transitions))
