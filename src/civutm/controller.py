"""The compiler and driver: machine transitions become worker-command macros.

``compile_program`` translates every (state, read symbol) transition into a
:class:`CommandMacro` (the symbol written, one head move, one signed
state-index change), with state indices in declaration order and the initial
state at index 0. A write's tape action and ops are looked up from (read,
write) in one table (``tape_plan``): an identity write is ``leave``, as the
games forbid rebuilding an improvement; a build over another removes it first.

``execute_instruction`` runs one macro against a world. Every wait is one
``_drive``: it issues the tape, state and movement commands to the workers
and moves the clock from event to event (``world.skip_quiet_turns`` moves
it over the quiet turns in between) until
``world.at_boundary()`` holds. For VI, a head move that leaves the built
strip extends the tape: the end city trains a Settler, and one drive founds
the new city and grows it to its cap.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .codec import _symbol_map
from .errors import CivUtmError, CompileError, DecodeError, IllegalCommand, MachineStuck
from .tm import HaltAction, TMSpec, validate_spec
from .world import (
    GAME_BLANK,
    PLAYER,
    ROVER,
    RULESET_BE,
    RULESET_V,
    RULESET_VI,
    SETTLER,
    STATE_WORKER,
    TAPE_WORKER,
    Command,
    RulesetParams,
    WorldState,
    advance_turn,
    apply_command,
    move_turns,
    params_for,
    skip_quiet_turns,
)

PROGRAM_FORMAT_VERSION = 1


@dataclass(frozen=True)
class CommandMacro:
    """What one machine instruction asks of the workers.

    A macro is a value: ``compile_program`` makes each distinct one once
    (``_macro``), so equal macros in different programs are one object.
    It has no slots: the benchmark digests records with ``json.dumps(...,
    default=vars)``, which needs a macro's ``__dict__``."""

    # Set by ``compile_program`` alone; every reader looks the action up from (read,
    # write). Kept for the benchmark's ``__dict__`` digest until ROADMAP item 13.
    tape_action: str
    head_move: str | None  # "L" | "R" | None on halt
    state_delta: int
    halt: bool = False
    read_symbol: str = ""  # copy of the key's game read, which every reader takes instead
    write_symbol: str = ""  # game symbol the cell holds afterwards


@dataclass(slots=True)
class ControllerProgram:
    """A compiled machine and all a run needs: the machine, the params (and
    ruleset) it was checked against, bijections, one macro per transition.

    The bijections follow from the machine's shape (states, initial state,
    alphabet, blank, ruleset) alone, so every program of one shape shares
    them, read-only. ``macros`` is the program's own dict."""

    spec: TMSpec
    params: RulesetParams
    state_index_of: Mapping[str, int]
    index_to_state: tuple[str, ...]
    symbol_of: Mapping[str, str]  # machine symbol -> game symbol
    symbol_from_game: Mapping[str, str]
    macros: dict[tuple[int, str], CommandMacro]  # (state index, game read symbol)
    ruleset = property(lambda self: self.params.ruleset)


# The one constructor of compiled macros: one shared object per distinct
# (tape action, move, state delta, halt, read, write).
_macro = functools.cache(CommandMacro)


# The one constructor of macro keys: one tuple per (state index, game
# symbol), at most the largest state count compiled times 6 game symbols.
@functools.cache
def _macro_key(idx: int, game_read: str) -> tuple[int, str]:
    return idx, game_read


# The one constructor of a program's bijections: (index_to_state,
# state_index_of, symbol_of, symbol_from_game), one per (states, initial,
# alphabet, blank, ruleset) compiled so far. Raises what ``_symbol_map`` does.
@functools.cache
def _shape(states: tuple[str, ...], initial: str, alphabet: tuple[str, ...], blank: str, ruleset: str) -> tuple:
    symbol_of = _symbol_map(alphabet, blank, ruleset)
    ordered = (initial,) + tuple(st for st in states if st != initial)
    state_index_of = MappingProxyType({state: i for i, state in enumerate(ordered)})
    return ordered, state_index_of, symbol_of, MappingProxyType({v: k for k, v in symbol_of.items()})


# The one description of a tape write: per ruleset, (read, write) -> (tape action,
# tape-worker ops, rover ops). A build over another improvement removes it first.
_TAPE_ACTIONS = {
    RULESET_BE: {
        ("none", "none"): ("leave", (), ()),
        ("none", "road"): ("build_road", ("build_road",), ()),
        ("none", "pillaged_road"): ("build_road_then_pillage", ("build_road",), ("pillage_road",)),
        ("road", "none"): ("remove_improvement", ("remove_improvement",), ()),
        ("road", "road"): ("leave", (), ()),
        ("road", "pillaged_road"): ("pillage_road", (), ("pillage_road",)),
        ("pillaged_road", "none"): ("remove_improvement", ("remove_improvement",), ()),
        ("pillaged_road", "road"): ("repair_road", ("repair_road",), ()),
        ("pillaged_road", "pillaged_road"): ("leave", (), ()),
    },
    RULESET_V: {
        ("none", "none"): ("leave", (), ()),
        ("none", "road"): ("build_road", ("build_road",), ()),
        ("none", "railroad"): ("build_railroad", ("build_railroad",), ()),
        ("road", "none"): ("remove_improvement", ("remove_improvement",), ()),
        ("road", "road"): ("leave", (), ()),
        ("road", "railroad"): ("build_railroad", ("remove_improvement", "build_railroad"), ()),
        ("railroad", "none"): ("remove_improvement", ("remove_improvement",), ()),
        ("railroad", "road"): ("build_road", ("remove_improvement", "build_road"), ()),
        ("railroad", "railroad"): ("leave", (), ()),
    },
    RULESET_VI: {
        ("unworked", "unworked"): ("leave", (), ()),
        ("unworked", "worked"): ("set_worked", (), ()),
        ("worked", "unworked"): ("set_unworked", (), ()),
        ("worked", "worked"): ("leave", (), ()),
    },
}


def tape_plan(ruleset: str, read: str, write: str) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """The ``_TAPE_ACTIONS`` row for writing ``write`` over ``read``, or IllegalCommand."""
    row = _TAPE_ACTIONS[ruleset].get((read, write))
    if row is None:
        raise IllegalCommand(f"writing {write} over {read} is not a tape action of ruleset {ruleset}")
    return row


def check_state_region(num_states: int, params: RulesetParams) -> None:
    """Raise :class:`CompileError` unless the params' state region holds
    ``num_states`` states: state index i stands for i tiles."""
    if num_states - 1 > params.state_region_tiles:
        raise CompileError(
            f"{num_states} states need a state region of at least {num_states - 1} tiles; "
            f"params provide {params.state_region_tiles}"
        )


def compile_program(spec: TMSpec, ruleset: str, params: RulesetParams | None = None) -> ControllerProgram:
    """Compile a machine for a ruleset, or raise :class:`CompileError`."""
    validate_spec(spec)
    params = params_for(ruleset, params)
    # Raises CompileError when the alphabet does not fit the ruleset.
    ordered, state_index_of, symbols, from_game = _shape(
        tuple(spec.states), spec.initial, tuple(spec.alphabet), spec.blank, ruleset
    )
    check_state_region(len(spec.states), params)

    rows = _TAPE_ACTIONS[ruleset]  # every pair of two of the ruleset's symbols has a row
    macros: dict[tuple[int, str], CommandMacro] = {}
    for (state, read), rule in spec.transitions.items():
        idx = state_index_of[state]
        halt = isinstance(rule, HaltAction)  # writes (or leaves the cell), never moves
        game_read, game_write = symbols[read], symbols[read if rule.write is None else rule.write]
        macros[_macro_key(idx, game_read)] = _macro(
            tape_action=rows[game_read, game_write][0],
            head_move=None if halt else rule.move,
            state_delta=0 if halt else state_index_of[rule.next_state] - idx,
            halt=halt,
            read_symbol=game_read,
            write_symbol=game_write,
        )

    return ControllerProgram(spec, params, state_index_of, ordered, symbols, from_game, macros)


# ---------------------------------------------------------------------------
# Paper-style rendering (used for program exports and table diffing)
# ---------------------------------------------------------------------------

PAPER_SYMBOL_NAMES = {
    RULESET_BE: {"none": "No Improvement", "road": "Road", "pillaged_road": "Pillaged Road"},
    RULESET_V: {"none": "No Improvement", "road": "Road", "railroad": "Railroad"},
    RULESET_VI: {"unworked": "Is Not Being Worked", "worked": "Is Being Worked"},
}

_TAPE_TEXT = {
    "leave": "No Improvement",
    "build_road": "Build a Road",
    "remove_improvement": "Remove Improvement",
    "pillage_road": "Pillage the Road",
    "repair_road": "Repair the Road",
    "build_railroad": "Build a Railroad",
    "build_road_then_pillage": "Build a Road, Pillage it,",
}


def vi_work_command(state_delta: int) -> tuple[str, int]:
    """Render a VI state change the way the source tables do.

    The tables count Monastery targets one past the index delta (and Farm
    targets one short of its magnitude); the executable delta stays the
    plain index difference.
    """
    if state_delta >= -1:
        return ("monasteries", state_delta + 1)
    return ("farms", -state_delta - 1)


def vi_state_delta(kind: str, count: int) -> int:
    """Inverse of :func:`vi_work_command`."""
    if kind == "monasteries":
        return count - 1
    if kind == "farms":
        return -(count + 1)
    raise ValueError(f"unknown work target {kind!r}")


def _state_text(ruleset: str, delta: int) -> str:
    if ruleset == RULESET_VI:
        kind, count = vi_work_command(delta)
        return f"Work {count} more {kind.capitalize()}"
    noun = "Terrascape" if ruleset == RULESET_BE else "Railroad"
    if delta == 0:
        return "No build"
    verb = "Build" if delta > 0 else "Remove"
    n = abs(delta)
    return f"{verb} a {noun}" if n == 1 else f"{verb} {n} {noun}s"


def macro_paper_command(macro: CommandMacro, ruleset: str, read: str) -> str:
    """The worker-command cell of a table row, from a macro firing on ``read``."""
    action = tape_plan(ruleset, read, macro.write_symbol)[0]
    if macro.halt and action == "leave":
        return "HALT"
    if ruleset == RULESET_VI:
        tape = PAPER_SYMBOL_NAMES[ruleset][macro.write_symbol]
        move = f", move {macro.head_move}" if macro.head_move else ""
    else:
        tape = _TAPE_TEXT[action]
        move = f" and move {macro.head_move}" if macro.head_move else ""
    return f"{tape}{move}; {_state_text(ruleset, macro.state_delta)}"


def program_to_json(program: ControllerProgram) -> dict:
    rows = []
    for (idx, game_read), macro in sorted(program.macros.items()):
        rows.append(
            {
                "state_index": idx,
                "read": game_read,
                "tape_action": tape_plan(program.ruleset, game_read, macro.write_symbol)[0],
                "move": macro.head_move,
                "state_delta": macro.state_delta,
                "halt": macro.halt,
                "paper_command": macro_paper_command(macro, program.ruleset, game_read),
            }
        )
    return {
        "format_version": PROGRAM_FORMAT_VERSION,
        "ruleset": program.ruleset,
        "states": list(program.index_to_state),
        "state_index_of": dict(sorted(program.state_index_of.items())),
        "symbol_of": dict(sorted(program.symbol_of.items())),
        "macros": rows,
    }


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class InstructionRecord:
    """What one executed instruction did and what it cost. Its
    ``instruction_start`` and ``instruction_end`` log entries both hold the
    record and render it on read: the start renders only the fields that
    never change, and the record is not mutated once its end is logged."""

    index: int
    state_index: int
    read: str
    macro: CommandMacro | None
    turns: int = 0
    movement_turns: int = 0
    pre_train_wait: int = 0
    extension: bool = False
    tape_length_before: int | None = None
    settler_cost_production: int | None = None
    settler_cost_turns: int | None = None
    halted: bool = False

    def describe_start(self) -> dict:
        """The ``instruction_start`` detail, from the three fields that are
        set when the record is made and never change."""
        return {"index": self.index, "state_index": self.state_index, "read": self.read}

    def describe(self) -> dict:
        """The ``instruction_end`` detail: every field but the three that
        ``instruction_start`` logs or that the log does not carry."""
        out = dict(vars(self))
        del out["state_index"], out["read"], out["macro"]
        return out


# Bounds the turns ``_drive`` takes with ``advance_turn``, not the turns that
# pass: each is an event turn, or one plain turn when nothing is pending.
_DRIVE_GUARD = 1_000_000

def _drive(world: WorldState, lanes: list[tuple]) -> None:
    """Issue each lane's commands as its unit frees up; move from event to
    event until the next instruction boundary. Called with no job pending.

    A lane is (unit id, its commands in reverse issue order, a gate or
    None), and the lanes are given in issue order. Each event turn takes one
    pass over them: a unit that exists, has commands left, no job in
    ``world.jobs`` and an open gate gets its next command, popped off the
    end of its list. The drive ends once no lane holds a command, no job is
    pending and ``world.at_boundary()`` holds (a new VI city has grown to its
    cap). Issuing only makes that unit busy, and units and gates change only
    on event turns, so a second pass would issue nothing and no command
    waits through a skipped turn."""
    jobs, units = world.jobs, world.units
    for _ in range(_DRIVE_GUARD):
        waiting = False
        for uid, queue, gate in lanes:
            if queue and uid not in jobs and uid in units and (gate is None or gate(world)):
                apply_command(world, uid, queue.pop())
            if queue:
                waiting = True
        if not waiting and not jobs and world.at_boundary():
            return
        skip_quiet_turns(world)
        advance_turn(world)
    raise CivUtmError("command schedule failed to converge")


def execute_instruction(world: WorldState, program: ControllerProgram, index: int = 0) -> InstructionRecord:
    """Execute one machine instruction on the world.

    Reads the symbol under the tape worker, looks up the macro for the
    decoded state, issues the commands, and advances turns until the next
    instruction boundary. Raises :class:`MachineStuck` when no macro covers
    the pair; a world-level :class:`IllegalCommand` escaping from here means
    a compiler bug and is never swallowed.
    """
    if not world.at_boundary():
        raise DecodeError("execute_instruction requires an instruction boundary")
    idx = world.state_count
    state = program.index_to_state[idx]
    head = world.units[TAPE_WORKER]
    ruleset = program.params.ruleset
    game_read = world.tape.get(head, GAME_BLANK[ruleset])

    if state in program.spec.halting:
        world.event_log.append((world.turn, "controller", "instruction_halt", {"index": index, "state_index": idx}))
        return InstructionRecord(index, idx, game_read, None, halted=True)

    macro = program.macros.get((idx, game_read))
    if macro is None:
        raise MachineStuck(state, program.symbol_from_game.get(game_read, game_read))

    start_turn = world.turn
    record = InstructionRecord(index, idx, game_read, macro)  # positional: keywords double its cost
    record.halted = macro.halt
    world.event_log.append((start_turn, "controller", "instruction_start", record))

    if ruleset == RULESET_VI:
        _execute_vi(world, macro, head, game_read, record)
    else:
        _execute_be_v(world, macro, head, game_read, record)

    record.turns = world.turn - start_turn
    world.event_log.append((world.turn, "controller", "instruction_end", record))
    return record


def _execute_be_v(world: WorldState, macro: CommandMacro, head: int, read: str, record: InstructionRecord) -> None:
    # Each lane lists its commands in reverse issue order (see ``_drive``).
    _, worker_ops, rover_ops = tape_plan(world.params.ruleset, read, macro.write_symbol)
    worker = []
    if macro.head_move is not None:
        worker.append(Command("move", None, head + (1 if macro.head_move == "R" else -1)))
        record.movement_turns = move_turns(world.params, TAPE_WORKER, 1)
    for op in reversed(worker_ops):
        worker.append(Command(op, head))
    lanes = [(TAPE_WORKER, worker, None)] if worker else []
    if rover_ops:
        # The rover pillages the road the tape worker builds first, if any.
        rover = [Command(op, head) for op in reversed(rover_ops)]
        lanes.append((ROVER, rover, lambda w: w.tape.get(head) == "road"))
    delta = macro.state_delta
    if delta:
        # One command, issued |delta| times: a logged command is not mutated.
        lanes.append((STATE_WORKER, [Command("build_state" if delta > 0 else "remove_state")] * abs(delta), None))
    _drive(world, lanes)


def _execute_vi(world: WorldState, macro: CommandMacro, head: int, read: str, record: InstructionRecord) -> None:
    write = macro.write_symbol
    if write != read:
        # VI's one tape op is the player's; its row is checked inline, with no call.
        if (read, write) not in _TAPE_ACTIONS[RULESET_VI]:
            tape_plan(RULESET_VI, read, write)  # raises: the pair has no row
        apply_command(world, PLAYER, Command(op="set_worked", cell=head, worked=write == "worked"))
    if macro.state_delta:
        apply_command(world, PLAYER, Command(op="shift_monasteries", count=macro.state_delta))
    if macro.head_move is None:
        return
    target = head + (1 if macro.head_move == "R" else -1)
    if target // 2 in world.cities:
        # Within the head's city or into an existing neighbour: a plain move.
        _drive(world, [(TAPE_WORKER, [Command(op="move", to=target)], None)])
        record.movement_turns = move_turns(world.params, TAPE_WORKER, 1)
        return
    extend_tape(world, macro.head_move, record)


def extend_tape(world: WorldState, direction: str, record: InstructionRecord) -> None:
    """Extend the strip by one city in ``direction`` and carry the head onto it.

    The head must stand on the end city's outer cell, facing a city that does
    not exist yet; a move into an existing city is a plain move. The boundary
    holds the end city at its growth cap (4 unless it already extended the
    other way), so it trains a Settler at once. One ``_drive`` runs the rest:
    once the Settler exists the worker moves onto the new near cell and the
    Settler travels one spacing and founds the new city, and the drive ends
    at the boundary, once that city has grown to its cap of 4. The strip's
    end is found by which cities exist, not by population: an end city that
    has trained a Settler holds 3 Citizens. The extension's costs are filled
    into ``record``.
    """
    if world.params.ruleset != RULESET_VI:
        raise IllegalCommand("tape extension applies to ruleset VI only")
    if direction not in ("L", "R"):
        raise IllegalCommand(f"direction {direction!r} is not L or R")
    params = world.params
    head = world.units[TAPE_WORKER]
    target = head + (1 if direction == "R" else -1)
    src_index = head // 2
    new_index = target // 2
    if new_index in world.cities:
        raise IllegalCommand(f"city {new_index} already exists: the head move does not cross the strip boundary")

    src = world.cities.get(src_index)
    # The strip is contiguous: an end city lacks a neighbour on one side.
    if src is None or (src_index - 1 in world.cities and src_index + 1 in world.cities):
        raise IllegalCommand(f"cell {head} is not on the end city of the strip")

    tape_length = 2 * len(world.cities)
    apply_command(world, PLAYER, Command(op="train_settler", city=src.index))
    cost = src.training_cost
    settler = [Command(op="found_city", city=new_index), Command(op="move", to=params.city_spacing * new_index)]
    move = [Command(op="move", to=target)]
    _drive(world, [(TAPE_WORKER, move, lambda w: SETTLER in w.units), (SETTLER, settler, None)])

    record.extension = True
    record.movement_turns = move_turns(params, SETTLER, params.city_spacing)  # center to center
    record.tape_length_before = tape_length
    record.settler_cost_production = cost
    record.settler_cost_turns = -(-cost // params.production_per_turn)
