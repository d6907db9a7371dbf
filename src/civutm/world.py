"""Deterministic state machine for the abstracted game world.

Three rulesets share one model:

* ``BE``  — tape symbols are Road / Pillaged Road improvements, the machine
  state is the number of Terrascapes standing in a reserved tile region.
* ``V``   — tape symbols are Road / Railroad improvements, the state is the
  Railroad count in the reserved region.
* ``VI``  — tape symbols are the worked/unworked flags of city-owned
  grassland cells, the state is the number of worked Monasteries; Farms
  absorb every state-region Citizen not on a Monastery.

Geometry is reduced to a 1-D integer line for the tape plus an abstract
finite state region: the 2-D hex map adds nothing to the computation. A tape
cell holds its game symbol (one of ``GAME_SYMBOLS``) and the region is its
count, ``WorldState.state_count``, so the world stores each fact once. The
tape (a ``Tape``) has one write path, which records the cell, so a reader
can follow the world by the cells written since it last looked. Turn
counters and cell indices are unbounded.

A unit is its id (which gives its kind) and its cell, ``WorldState.units``;
its pending job lives in one table, ``WorldState.jobs`` (unit id ->
``Job``), so a busy check is a key lookup and a turn visits the pending
jobs, not every unit.

All operations mutate the passed ``WorldState`` in place and also return it;
they are deterministic functions of the state, and the append-only event log
records every accepted command and completion. ``advance_turn`` plays one
turn; ``skip_quiet_turns`` jumps over the turns before the next event in
closed form, leaving the same state those turns would.

The log holds references and renders them on read: an entry for a command,
a job or an instruction record keeps that object, which is not mutated once
logged (an instruction's start entry renders only the record's fields that
never change), and ``event_entries`` turns each entry into its dict only
when the log is read, so a run builds no descriptions it does not export.

A VI city's food changes by the same delta every turn until an event touches
the city (a cell of it set worked or not, a birth, a trained Settler, its
founding, the start of training), so each ``City`` caches its delta and holds
its stock as of the turn the delta last changed; ``food_stock`` reads it
through from the clock. The world keeps the sum of the deltas (the food
``yields`` reports) and the set of **live** cities: those training, below
their growth cap or losing food. Only a live city can raise an event, so a
turn or a skip visits the live cities alone and costs per event, not per
city.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import asdict, dataclass, field, fields
from typing import Iterator, NamedTuple

from .errors import IllegalCommand, Starvation

RULESET_BE = "BE"
RULESET_V = "V"
RULESET_VI = "VI"
RULESETS = (RULESET_BE, RULESET_V, RULESET_VI)

SNAPSHOT_FORMAT_VERSION = 1
EVENT_LOG_FORMAT_VERSION = 1

TAPE_WORKER = "tape_worker"
STATE_WORKER = "state_worker"
ROVER = "rover"
SETTLER = "settler"
PLAYER = "player"  # pseudo-unit for instant, player-level micromanagement

# The game symbols a tape cell may hold, per ruleset; the blank is what an
# unwritten cell holds.
GAME_BLANK = {RULESET_BE: "none", RULESET_V: "none", RULESET_VI: "unworked"}
GAME_SYMBOLS = {
    RULESET_BE: ("none", "road", "pillaged_road"),
    RULESET_V: ("none", "road", "railroad"),
    RULESET_VI: ("unworked", "worked"),
}

# Each unit's kind, as the snapshot names it, and the units each ruleset
# starts with; the Settler exists only between training and founding.
_KINDS = {TAPE_WORKER: "TapeWorker", STATE_WORKER: "StateWorker", ROVER: "Rover", SETTLER: "Settler"}
_START_UNITS = {RULESET_BE: (TAPE_WORKER, STATE_WORKER, ROVER), RULESET_V: (TAPE_WORKER, STATE_WORKER), RULESET_VI: (TAPE_WORKER,)}

# The most cities an initial VI tape may span: ``init_world`` founds one city
# per index between the outermost cells, about 0.7 KB each.
MAX_INITIAL_CITIES = 10_000


@dataclass(frozen=True)
class RulesetParams:
    """Per-game configuration: build durations, yields, population rules.

    Durations are in turns. ``city_growth_turns`` is the clock for one new
    Citizen; a freshly founded city (2 Citizens) therefore needs two clock
    periods to reach its cap of 4. ``settler_cost`` is in Production units,
    converted to turns through ``production_per_turn``. Params are frozen and
    checked when made (``dataclasses.replace`` checks a variant too).
    """

    ruleset: str
    road_build_turns: int = 1  # M
    terrascape_build_turns: int = 3  # T
    railroad_build_turns: int = 2  # B_rr, must be > 1
    remove_or_repair_turns: int = 1  # fixed: the published bounds assume 1
    terrascape_culture: int = 3
    base_culture: int = 1  # C_*
    monastery_faith: int = 2
    base_faith: int = 0  # F_*
    citizen_food_upkeep: int = 2
    city_base_food: int = 4  # base 2 + grassland center 2
    grassland_food: int = 2
    floodplains_food: int = 3
    city_growth_turns: int = 10  # C (per Citizen)
    settler_found_turns: int = 3
    city_spacing: int = 4
    worker_move_turns_per_hex: int = 1
    production_per_turn: int = 5
    state_region_tiles: int = 9

    @classmethod
    def defaults(cls, ruleset: str) -> "RulesetParams":
        """The ruleset's default params: one shared object per ruleset, made
        and checked once (params are frozen, so sharing is safe). Any other
        ruleset, unhashable ones included, goes to the constructor, which
        refuses it."""
        try:
            return _DEFAULTS[ruleset]
        except (KeyError, TypeError):
            return cls(ruleset=ruleset)

    def settler_cost(self, tape_length: int) -> int:
        """Production cost of a Settler when the tape is ``tape_length`` cells."""
        return 15 * tape_length + 50

    def __post_init__(self) -> None:
        if self.ruleset not in RULESETS:
            raise IllegalCommand(f"unknown ruleset {self.ruleset!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "ruleset" and (not isinstance(value, int) or isinstance(value, bool)):
                raise IllegalCommand(f"{f.name} must be an integer, not {value!r}")
        if self.railroad_build_turns <= 1:
            raise IllegalCommand("railroad_build_turns must be > 1")
        if self.remove_or_repair_turns != 1:
            raise IllegalCommand("remove_or_repair_turns is fixed at 1: the published V bound 4*B_rr+1 assumes it")
        for name in (
            "road_build_turns",
            "terrascape_build_turns",
            "city_growth_turns",
            "worker_move_turns_per_hex",
            "production_per_turn",
        ):
            if getattr(self, name) < 1:
                raise IllegalCommand(f"{name} must be >= 1")
        for name in (
            "terrascape_culture",
            "base_culture",
            "monastery_faith",
            "base_faith",
            "citizen_food_upkeep",
            "city_base_food",
            "grassland_food",
            "floodplains_food",
            "settler_found_turns",
            "state_region_tiles",
        ):
            if getattr(self, name) < 0:
                raise IllegalCommand(f"{name} must be >= 0")
        # In the games' construction each state tile adds to a yield: BE's
        # state is read from Culture and VI's from Faith, so a state tile
        # that yields nothing would hold no readable state.
        if self.ruleset == RULESET_BE and self.terrascape_culture < 1:
            raise IllegalCommand("terrascape_culture must be >= 1: BE's construction reads its state from Culture")
        if self.ruleset == RULESET_VI:
            if self.monastery_faith < 1:
                raise IllegalCommand("monastery_faith must be >= 1: VI's construction reads its state from Faith")
            if self.city_spacing < 2 or self.city_spacing % 2:
                raise IllegalCommand("city_spacing must be an even distance >= 2")
            # Cities hold 2 to 4 Citizens: one on the center, up to two on
            # the tape cells, the rest on floodplains. Every such city must
            # feed itself, or the construction starves.
            for citizens in (2, 3, 4):
                upkeep = self.citizen_food_upkeep * citizens
                for on_tape in range(min(2, citizens - 1) + 1):
                    income = (
                        self.city_base_food
                        + self.grassland_food * on_tape
                        + self.floodplains_food * (citizens - 1 - on_tape)
                    )
                    if income < upkeep:
                        raise IllegalCommand(
                            f"a city of {citizens} Citizens with {on_tape} on the tape starves: "
                            f"food {income} < upkeep {upkeep}"
                        )


_DEFAULTS = {r: RulesetParams(ruleset=r, state_region_tiles=23 if r == RULESET_VI else 9) for r in RULESETS}


@dataclass(slots=True)
class Command:
    """One primitive player command. Unused fields stay at their defaults.

    A logged command is not mutated: the event log renders it on read."""

    op: str
    cell: int | None = None
    to: int | None = None
    count: int = 0
    worked: bool | None = None
    city: int | None = None

    def describe(self) -> dict:
        """The op and every field that is neither None nor 0 (nor False),
        plus ``count`` for ``shift_monasteries``."""
        out = {"op": self.op}
        for name in ("cell", "to", "count", "worked", "city"):
            value = getattr(self, name)
            if value not in (None, 0) or (name == "count" and self.op == "shift_monasteries"):
                out[name] = value
        return out


@dataclass(slots=True)
class Job:
    """A unit's pending command, held in ``WorldState.jobs``. Its issue entry
    in the event log holds the job and its completion entry the command; both
    are rendered on read, so a logged job is not mutated."""

    command: Command
    completes_at: int

    def describe(self) -> dict:
        return {**self.command.describe(), "completes_at": self.completes_at}


@dataclass
class City:
    """A tape city (VI). ``index`` is signed; the city owns global tape cells
    ``2*index`` and ``2*index + 1`` and its center sits at
    ``city_spacing * index`` physical hexes.

    ``_delta`` caches ``_city_food_delta`` (income minus upkeep) and is
    re-derived only by ``_rederive``; ``_food`` is the stock at the end of
    turn ``_since``, and the delta is added for every turn after it. The
    clock is read through ``_world``, a weak proxy, so a world and its
    cities are freed as soon as the world is dropped, not by the cycle
    collector.
    """

    index: int
    citizens: int
    growth_cap: int
    production_stock: int = 0
    growth_progress: int = 0
    training_cost: int | None = None
    _world: WorldState | None = field(default=None, repr=False, compare=False)
    _food: int = 0
    _since: int = 0
    _delta: int = 0

    @property
    def food_stock(self) -> int:
        return self._food + self._delta * (self._world.turn - self._since)

    @property
    def tape_cells(self) -> tuple[int, int]:
        return (2 * self.index, 2 * self.index + 1)


class Tape:
    """Tape cells: cell -> game symbol; unwritten cells hold the blank.

    ``tape[cell] = symbol`` is the one write path, and it records the cell,
    so ``harness.lockstep`` reads only the cells written since it last looked
    (``take_written`` hands the set over and starts a new one). ``get`` and
    ``items`` are the cells dict's own methods, so reads cost what a plain
    ``dict`` read costs. Cells given to the constructor are not recorded.
    """

    __slots__ = ("_cells", "_written", "get", "items")

    def __init__(self, cells: dict[int, str]):
        self._cells = dict(cells)
        self._written: set[int] = set()
        self.get = self._cells.get
        self.items = self._cells.items

    def __setitem__(self, cell: int, symbol: str) -> None:
        self._written.add(cell)
        self._cells[cell] = symbol

    def __len__(self) -> int:
        return len(self._cells)

    def take_written(self) -> set[int]:
        written, self._written = self._written, set()
        return written


@dataclass
class WorldState:
    """The whole world. ``units`` maps a unit id to its cell (a Settler's
    to its physical hex) and ``jobs`` a unit id to its pending job: the one
    place a job is held, so a unit is busy exactly when its id is a key.

    ``state_count`` is how many of the state region's
    ``params.state_region_tiles`` tiles stand or are worked (Terrascapes for
    BE, Railroads for V, Monasteries for VI). Builds take the lowest free
    tile and removals the highest, so those tiles are always a prefix and the
    count is the whole state. VI's worked Farms follow from it too: the
    region's Citizens all work something (see ``world_snapshot``).
    """

    params: RulesetParams
    tape: Tape
    units: dict[str, int]
    cities: dict[int, City]
    state_count: int = 0
    turn: int = 0
    event_log: list[tuple] = field(default_factory=list)  # see ``log``
    jobs: dict[str, Job] = field(default_factory=dict)
    min_food_observed: int | None = None
    # VI food cache: the live cities' indices and the sum of every city's
    # cached delta.
    _live: set[int] = field(default_factory=set, repr=False)
    _food_total: int = 0

    def symbol_at(self, cell: int) -> str:
        return self.tape.get(cell, GAME_BLANK[self.params.ruleset])

    def city_of_cell(self, cell: int) -> City | None:
        return self.cities.get(cell // 2)

    def at_boundary(self) -> bool:
        """True at an instruction boundary: no unit has a pending job and no
        city is training (a training city is live, so BE and V, which have
        no cities, test the jobs table alone)."""
        if self.jobs:
            return False
        for index in self._live:
            if self.cities[index].training_cost is not None:
                return False
        return True

    def log(self, unit: str, command: str, detail) -> None:
        """Append ``(turn, unit, command, detail)``. ``detail`` is a dict or an
        object whose ``describe()`` renders it on read (see
        ``event_entries``); that object is not mutated once logged, except
        for the fields an ``instruction_start`` entry does not render."""
        self.event_log.append((self.turn, unit, command, detail))


# ---------------------------------------------------------------------------
# World construction
# ---------------------------------------------------------------------------

def params_for(ruleset: str, params: RulesetParams | None) -> RulesetParams:
    """``params`` (the ruleset's defaults when None), refused if of another ruleset."""
    params = params or RulesetParams.defaults(ruleset)
    if params.ruleset != ruleset:
        raise IllegalCommand(f"params are for ruleset {params.ruleset!r}, not {ruleset!r}")
    return params


def init_world(ruleset: str, initial_content: dict[int, str] | None = None, params: RulesetParams | None = None) -> WorldState:
    """Build a world whose tape encodes ``initial_content`` and whose state
    region encodes state index 0.

    ``initial_content`` maps cell index to a non-blank game symbol (see
    ``GAME_SYMBOLS``); blank cells are simply absent. Units start at cell 0.
    For VI, enough cities are founded to cover cell 0 and every initial cell,
    at most ``MAX_INITIAL_CITIES``; the end cities start at 4 Citizens
    (growth cap 4), interior ones at 3.
    """
    params = params_for(ruleset, params)
    content = initial_content or {}
    for cell, symbol in content.items():
        if symbol not in GAME_SYMBOLS[ruleset] or symbol == GAME_BLANK[ruleset]:
            raise IllegalCommand(f"symbol {symbol!r} at cell {cell} is illegal for ruleset {ruleset}")

    world = WorldState(params=params, tape=Tape(content), units=dict.fromkeys(_START_UNITS[ruleset], 0), cities={})
    if ruleset == RULESET_VI:
        cells = set(content) | {0, 1}
        lo, hi = min(cells) // 2, max(cells) // 2
        if hi - lo + 1 > MAX_INITIAL_CITIES:
            raise IllegalCommand(
                f"an initial VI tape from cell {min(cells)} to {max(cells)} needs {hi - lo + 1} cities, "
                f"more than {MAX_INITIAL_CITIES}"
            )
        for index in range(lo, hi + 1):
            end_city = index in (lo, hi)
            world.cities[index] = city = City(
                index=index,
                citizens=4 if end_city else 3,
                growth_cap=4 if end_city else 3,
                _world=weakref.proxy(world),
            )
            _rederive(world, city)
    world.log("world", "init", {"ruleset": ruleset, "cells": {str(k): v for k, v in sorted(content.items())}})
    return world


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

_INSTANT_OPS = ("set_worked", "shift_monasteries", "train_settler")


class _TapeOp(NamedTuple):
    """How one tape-improvement command is checked, timed and completed."""

    verb: str  # for error messages: "cannot {verb} ..."
    rulesets: tuple[str, ...]
    unit: str | None  # the only unit allowed to issue it; None for any unit
    requires: tuple[str, ...]  # what the cell must hold beforehand
    duration: str  # the RulesetParams field giving its turns
    result: str  # what the cell holds once the job completes


_TAPE_OPS = {
    # Building over a standing improvement is forbidden: a Road may not be
    # rebuilt on a Road, and in V a Railroad must be removed first.
    "build_road": _TapeOp("build a road", (RULESET_BE, RULESET_V), None, ("none",), "road_build_turns", "road"),
    "build_railroad": _TapeOp("build a railroad", (RULESET_V,), None, ("none",), "railroad_build_turns", "railroad"),
    "remove_improvement": _TapeOp(
        "remove an improvement",
        (RULESET_BE, RULESET_V),
        None,
        ("road", "pillaged_road", "railroad"),
        "remove_or_repair_turns",
        "none",
    ),
    "pillage_road": _TapeOp("pillage a road", (RULESET_BE,), ROVER, ("road",), "remove_or_repair_turns", "pillaged_road"),
    "repair_road": _TapeOp("repair a road", (RULESET_BE,), None, ("pillaged_road",), "remove_or_repair_turns", "road"),
}


# The log name of each job's completion; found_city logs city_founded instead.
_DONE = {op: f"{op}_done" for op in (*_TAPE_OPS, "build_state", "remove_state", "move")}


def move_turns(params: RulesetParams, uid: str, cells: int) -> int:
    """The one move rule: the turns unit ``uid`` takes to move ``cells``
    cells. A cell is a hex, but a VI tape worker's spans ``city_spacing // 2``
    (tape cells sit at city center +/- 1, centers ``city_spacing`` apart)."""
    if uid == TAPE_WORKER and params.ruleset == RULESET_VI:
        cells *= params.city_spacing // 2
    return cells * params.worker_move_turns_per_hex


def _command_duration(world: WorldState, uid: str, command: Command, tape_op: _TapeOp | None) -> int:
    p = world.params
    op = command.op
    if tape_op is not None:
        return getattr(p, tape_op.duration)
    if op == "remove_state":
        return p.remove_or_repair_turns
    if op == "build_state":
        return p.terrascape_build_turns if p.ruleset == RULESET_BE else p.railroad_build_turns
    if op == "move":
        return move_turns(p, uid, abs(command.to - world.units[uid]))
    if op == "found_city":
        return p.settler_found_turns
    raise IllegalCommand(f"unknown command {op!r}")


def _mistyped(command: Command, name: str, kind: type) -> IllegalCommand:
    """The refusal of a command whose field ``name`` is not exactly a
    ``kind``. Fields are tested with ``type(...) is``, so an ``int`` field
    takes no ``bool``."""
    return IllegalCommand(f"{command.op} needs {name} to be {kind.__name__}, not {getattr(command, name)!r}")


def _check_legality(world: WorldState, unit_id: str, command: Command, tape_op: _TapeOp | None) -> None:
    op = command.op
    ruleset = world.params.ruleset

    if tape_op is not None:
        if ruleset not in tape_op.rulesets:
            raise IllegalCommand(f"cannot {tape_op.verb} in ruleset {ruleset}")
        if tape_op.unit is not None and unit_id != tape_op.unit:
            raise IllegalCommand(f"only the {tape_op.unit} can {tape_op.verb}")
        if type(command.cell) is not int:
            raise _mistyped(command, "cell", int)
        symbol = world.symbol_at(command.cell)
        if symbol not in tape_op.requires:
            raise IllegalCommand(f"cannot {tape_op.verb} on {symbol} at cell {command.cell}")
    elif op in ("build_state", "remove_state"):
        build = op == "build_state"
        if ruleset == RULESET_VI:
            raise IllegalCommand("VI encodes state via citizen reassignment, not builds")
        if unit_id != STATE_WORKER:
            raise IllegalCommand(f"only the {STATE_WORKER} can {'build in' if build else 'remove from'} the state region")
        if world.state_count == (world.params.state_region_tiles if build else 0):
            raise IllegalCommand(f"state region is {'full' if build else 'empty'}")
    elif op == "set_worked":
        if ruleset != RULESET_VI:
            raise IllegalCommand("citizen assignment exists only in ruleset VI")
        if type(command.cell) is not int:
            raise _mistyped(command, "cell", int)
        if type(command.worked) is not bool:
            raise _mistyped(command, "worked", bool)
        city = world.city_of_cell(command.cell)
        if city is None:
            raise IllegalCommand(f"cell {command.cell} is not owned by any city")
        if command.worked:
            if world.tape.get(command.cell) != "worked" and _worked_tape_cells(world, city) >= city.citizens - 1:
                raise IllegalCommand(f"city {city.index} has no free citizen to work cell {command.cell}")
    elif op == "shift_monasteries":
        if ruleset != RULESET_VI:
            raise IllegalCommand("monasteries exist only in ruleset VI")
        if type(command.count) is not int:
            raise _mistyped(command, "count", int)
        new_count = world.state_count + command.count
        if not 0 <= new_count <= world.params.state_region_tiles:
            raise IllegalCommand(f"cannot work {new_count} monasteries in a region of {world.params.state_region_tiles}")
    elif op == "train_settler":
        if ruleset != RULESET_VI:
            raise IllegalCommand("settlers exist only in ruleset VI")
        if type(command.city) is not int:
            raise _mistyped(command, "city", int)
        city = world.cities.get(command.city)
        if city is None:
            raise IllegalCommand(f"no city at index {command.city}")
        if city.citizens <= 1:
            raise IllegalCommand("no settler can be trained in a one-citizen city")
        if city.training_cost is not None:
            raise IllegalCommand(f"city {city.index} is already training a settler")
        if SETTLER in world.units:
            raise IllegalCommand("a settler is already in the field")
    elif op == "found_city":
        if unit_id != SETTLER:
            raise IllegalCommand("only a settler can found a city")
        if type(command.city) is not int:
            raise _mistyped(command, "city", int)
        index = command.city
        if index in world.cities:
            raise IllegalCommand(f"city {index} already exists")
        # The strip is contiguous, so a new city next to one of its cities
        # extends it at an end. Centers are spacing*index, so contiguous
        # extension keeps every pair of adjacent centers city_spacing apart.
        if world.cities and index - 1 not in world.cities and index + 1 not in world.cities:
            raise IllegalCommand(f"city {index} would not extend the strip contiguously")
    elif op == "move":
        if type(command.to) is not int:
            raise _mistyped(command, "to", int)
    else:
        raise IllegalCommand(f"unknown command {op!r}")


def apply_command(world: WorldState, unit_id: str, command: Command) -> WorldState:
    """Validate and accept a command.

    Instant commands (citizen reassignment, starting settler training) take
    effect in the same turn. Everything else becomes the unit's single
    pending job in ``world.jobs``, completing in ``advance_turn`` after its
    duration.
    """
    if unit_id != PLAYER:
        if unit_id not in world.units:
            raise IllegalCommand(f"no unit {unit_id!r}")
        job = world.jobs.get(unit_id)
        if job is not None:
            raise IllegalCommand(f"unit {unit_id} is busy until turn {job.completes_at}")
    elif command.op not in _INSTANT_OPS:
        raise IllegalCommand(f"{command.op} must be issued to a unit")

    tape_op = _TAPE_OPS.get(command.op)  # one lookup for the legality check and the duration
    _check_legality(world, unit_id, command, tape_op)

    if command.op == "set_worked":
        # An unworked cell keeps its entry: the snapshot lists every cell
        # ever written.
        world.tape[command.cell] = "worked" if command.worked else "unworked"
        _rederive(world, world.city_of_cell(command.cell))
        world.log(unit_id, command.op, command)
    elif command.op == "shift_monasteries":
        world.state_count += command.count
        world.log(unit_id, command.op, command)
    elif command.op == "train_settler":
        city = world.cities[command.city]
        city.training_cost = world.params.settler_cost(2 * len(world.cities))
        _rederive(world, city)
        world.log(unit_id, command.op, {"city": city.index, "cost": city.training_cost})
    else:
        job = world.jobs[unit_id] = Job(command, world.turn + _command_duration(world, unit_id, command, tape_op))
        world.log(unit_id, command.op, job)
    return world


def _complete_if_due(world: WorldState, uid: str) -> None:
    job = world.jobs[uid]
    if job.completes_at > world.turn:
        return
    del world.jobs[uid]
    command = job.command
    op = command.op
    tape_op = _TAPE_OPS.get(op)
    if tape_op is not None:
        world.tape[command.cell] = tape_op.result
    elif op == "build_state":
        world.state_count += 1
    elif op == "remove_state":
        world.state_count -= 1
    elif op == "move":
        world.units[uid] = command.to
        if uid == TAPE_WORKER and ROVER in world.units:
            # The rover shadows the tape worker: both arrive together.
            world.units[ROVER] = command.to
    elif op == "found_city":
        index = command.city
        city = world.cities[index] = City(index=index, citizens=2, growth_cap=4, _world=weakref.proxy(world))
        _rederive(world, city)
        city._since -= 1  # founded before this turn's harvest, it collects this turn's food
        del world.units[SETTLER]
        world.log("world", "city_founded", {"city": index, "citizens": 2})
        return
    world.log(uid, _DONE[op], command)


def _worked_tape_cells(world: WorldState, city: City) -> int:
    """How many of ``city``'s two tape cells are set worked."""
    return sum(1 for c in city.tape_cells if world.tape.get(c) == "worked")


def _city_food_delta(world: WorldState, city: City) -> tuple[int, int]:
    """(income, upkeep) for one turn. One citizen is locked to the center
    (its yield is inside city_base_food); citizens the tape demands work the
    grassland cells; everyone else works a floodplain."""
    p = world.params
    tape_workers = min(_worked_tape_cells(world, city), city.citizens - 1)
    idle = city.citizens - 1 - tape_workers
    income = p.city_base_food + p.grassland_food * tape_workers + p.floodplains_food * idle
    upkeep = p.citizen_food_upkeep * city.citizens
    return income, upkeep


def _rederive(world: WorldState, city: City) -> None:
    """Re-derive ``city``'s cached food delta after an event touched it.

    The stock so far is held as of this turn, so the new delta counts from
    the next one; the world's food total and live set follow.
    """
    city._food, city._since = city.food_stock, world.turn
    income, upkeep = _city_food_delta(world, city)
    delta = income - upkeep
    world._food_total += delta - city._delta
    city._delta = delta
    if city.training_cost is not None or city.citizens < city.growth_cap or delta < 0:
        world._live.add(city.index)
    else:
        world._live.discard(city.index)


def _visited(world: WorldState):
    """The cities a turn visits: the live ones, or every city while no turn
    has passed. A city outside the live set only gains food, so once a turn
    has observed its stock, every later stock is at least one already seen
    and ``min_food_observed`` needs no visit to it."""
    return world.cities if world.min_food_observed is None else world._live


def advance_turn(world: WorldState) -> WorldState:
    """Advance one turn: jobs whose time has come take effect in unit-id
    order, then the live cities, in index order, collect food (a stock below
    zero raises ``Starvation``), make training progress and grow toward their
    caps. Every other city is at its cap, not training and gaining food, so
    its stock reads through from the clock and the turn does not visit it.
    A lone job has no order to keep, so only two or more jobs are sorted."""
    world.turn += 1
    jobs = world.jobs
    if len(jobs) > 1:
        for uid in sorted(jobs):
            _complete_if_due(world, uid)
    elif jobs:
        (uid,) = jobs
        _complete_if_due(world, uid)

    if world.params.ruleset != RULESET_VI:
        return world

    p = world.params
    for index in sorted(_visited(world)):
        city = world.cities[index]
        stock = city.food_stock
        if world.min_food_observed is None or stock < world.min_food_observed:
            world.min_food_observed = stock
        if stock < 0:
            for later in world.cities.values():
                if later.index > index:
                    later._since += 1  # not fed this turn
            raise Starvation(f"city {city.index} food stock fell to {stock} on turn {world.turn}")
        if city.training_cost is not None:
            city.production_stock += p.production_per_turn
            if city.production_stock >= city.training_cost:
                city.production_stock = 0
                city.training_cost = None
                city.citizens -= 1
                city.growth_cap = 3
                _rederive(world, city)
                world.units[SETTLER] = p.city_spacing * city.index  # the city's center
                world.log("world", "settler_trained", {"city": city.index, "citizens": city.citizens})
        if city.citizens < city.growth_cap:
            city.growth_progress += 1
            if city.growth_progress >= p.city_growth_turns:
                city.growth_progress = 0
                city.citizens += 1
                _rederive(world, city)
                world.log("world", "citizen_born", {"city": city.index, "citizens": city.citizens})
        else:
            city.growth_progress = 0
    return world


def skip_quiet_turns(world: WorldState) -> WorldState:
    """Move the clock to the turn just before the next event, applying the
    skipped turns in closed form.

    An event is a job completing, a city finishing its Settler, a Citizen
    born or a food stock falling below zero; only a live city can raise one
    of the last three, so only the live cities are visited; BE and V have
    none, so there the jobs table alone is read. Between events, food,
    training and growth change by the same amount each turn, so the skipped
    span leaves the world exactly as that many ``advance_turn`` calls would,
    logging nothing. With no event pending, or the next one on the coming
    turn, the world is left as it is. The event turn, Starvation included,
    is ``advance_turn``'s."""
    p = world.params
    turn = world.turn
    nearest = None  # the next event's turn; a job's is its completes_at
    for job in world.jobs.values():
        if nearest is None or job.completes_at < nearest:
            nearest = job.completes_at
    vi = p.ruleset == RULESET_VI
    if vi:
        events = [] if nearest is None else [nearest]
        for index in world._live:
            city = world.cities[index]
            if city.training_cost is not None:
                events.append(turn - (city.production_stock - city.training_cost) // p.production_per_turn)
            if city.citizens < city.growth_cap:
                events.append(turn + p.city_growth_turns - city.growth_progress)
            if city._delta < 0:
                events.append(turn + city.food_stock // -city._delta + 1)
        nearest = min(events, default=None)
    quiet = -1 if nearest is None else nearest - turn - 1
    if quiet < 1:
        return world
    if vi:
        for index in _visited(world):
            city = world.cities[index]
            # Food is linear over the span: its lowest stock is at one end.
            lowest = city.food_stock + city._delta * (1 if city._delta >= 0 else quiet)
            if world.min_food_observed is None or lowest < world.min_food_observed:
                world.min_food_observed = lowest
            if city.training_cost is not None:
                city.production_stock += p.production_per_turn * quiet
            city.growth_progress = city.growth_progress + quiet if city.citizens < city.growth_cap else 0
    world.turn += quiet
    return world


def yields(world: WorldState) -> dict[str, int]:
    """Per-turn resource income as a pure function of the state (VI food is
    the cached total of the cities' deltas)."""
    p = world.params
    if p.ruleset == RULESET_VI:
        return {"faith": p.base_faith + p.monastery_faith * world.state_count, "food": world._food_total}
    culture = p.base_culture + (p.terrascape_culture * world.state_count if p.ruleset == RULESET_BE else 0)
    return {"culture": culture}


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def world_snapshot(world: WorldState) -> dict:
    p = world.params
    vi = p.ruleset == RULESET_VI
    terrain = "grassland" if vi else "flat"
    tape = {
        str(cell): {"improvement": "none" if vi else symbol, "worked": symbol == "worked", "terrain": terrain}
        for cell, symbol in sorted(world.tape.items())
    }
    n, count = p.state_region_tiles, world.state_count
    region = {
        "kind": {RULESET_BE: "terrascape", RULESET_V: "railroad", RULESET_VI: "monastery"}[p.ruleset],
        "tiles": [i < count for i in range(n)],
        "base_yield": p.base_faith if vi else p.base_culture,
    }
    if vi:
        # Farms release from the top while Monasteries fill from the bottom,
        # so worked Farms are a prefix, not the complement of ``tiles``.
        region["farm_tiles"] = [i < n - count for i in range(n)]
    units = {}
    for uid, position in sorted(world.units.items()):
        job = world.jobs.get(uid)
        units[uid] = {
            "kind": _KINDS[uid],
            "position": position,
            "busy_until": job.completes_at if job else None,
            "job": job.command.describe() if job else None,
        }
    cities = [
        {
            "index": c.index,
            "citizens": c.citizens,
            "growth_cap": c.growth_cap,
            "food_stock": c.food_stock,
            "production_stock": c.production_stock,
            "training_cost": c.training_cost,
            "tape_cells": list(c.tape_cells),
        }
        for _, c in sorted(world.cities.items())
    ]
    return {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "params": asdict(p),
        "tape": tape,
        "state_region": region,
        "units": units,
        "cities": cities,
        "turn": world.turn,
    }


def event_entries(world: WorldState) -> Iterator[dict]:
    """Yield the event log's entries as dicts (turn, unit, command, detail),
    rendering each logged object's detail through its ``describe()``, or
    an ``instruction_start`` record's through its ``describe_start()``."""
    for turn, unit, command, detail in world.event_log:
        if type(detail) is not dict:
            detail = detail.describe_start() if command == "instruction_start" else detail.describe()
        yield {"turn": turn, "unit": unit, "command": command, "detail": detail}


def event_log_lines(world: WorldState) -> list[str]:
    header = {"format_version": EVENT_LOG_FORMAT_VERSION, "kind": "event_log"}
    lines = [json.dumps(header, sort_keys=True)]
    lines += [json.dumps(event, sort_keys=True) for event in event_entries(world)]
    return lines
