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

A unit is its id (which gives its kind) and its cell, ``WorldState.units``,
and it acts where it stands: a tape op must be on its unit's cell, and a
Settler founds a city only on that city's center. A unit's pending job lives
in one table, ``WorldState.jobs`` (unit id -> ``Job``), so a busy check is a
key lookup and a turn visits the pending jobs, not every unit.

All operations mutate the passed ``WorldState`` in place and also return it;
they are deterministic functions of the state, and the append-only event log
records every accepted command and completion. ``advance_turn`` plays one
turn; ``skip_quiet_turns`` jumps over the turns before the next event by
moving the clock alone, as everything that changes between events reads
through the turn.

The log holds references and renders them on read: an entry for a command,
a job or an instruction record keeps that object, which is not mutated once
logged (an instruction's start entry renders only the record's fields that
never change), and ``event_entries`` turns each entry into its dict only
when the log is read, so a run builds no descriptions it does not export.

A VI city's food changes by the same delta every turn until an event touches
the city (a cell of it set worked or not, a birth, a trained Settler, its
founding, the start of training), so each ``City`` caches its delta and holds
its stock as a linear function of the turn; ``food_stock(turn)`` evaluates
it. A city's training and growth are anchored on the turns they began, so
they read through the clock too. The world keeps the set of **live** cities:
those training, below their growth cap or losing food. Only a live city can
raise an event, so a turn or a skip visits the live cities alone and costs
per event, not per city.
"""

from __future__ import annotations

import json
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

    def food_balance(self, citizens: int, on_tape: int) -> tuple[int, int]:
        """(income, upkeep) for one turn of a city of ``citizens`` Citizens,
        ``on_tape`` of them on its tape cells. One is locked to the center
        (its yield is inside ``city_base_food``); everyone else works a
        floodplain."""
        idle = citizens - 1 - on_tape
        income = self.city_base_food + self.grassland_food * on_tape + self.floodplains_food * idle
        return income, self.citizen_food_upkeep * citizens

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
                for on_tape in range(min(2, citizens - 1) + 1):
                    income, upkeep = self.food_balance(citizens, on_tape)
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

    ``_delta`` caches the food balance (income minus upkeep) and is
    re-derived only by ``_rederive``. Between two re-derivations the stock
    grows by ``_delta`` a turn, so ``_food`` holds it extrapolated back to
    turn 0 and the stock at the end of a turn is ``food_stock(turn)``.

    Training and growth are read through the clock the same way. While a
    Settler trains, ``production_per_turn * (turn - training_since)``
    Production is in; below its cap the city has grown ``turn -
    growing_since`` turns toward its next Citizen.
    """

    index: int
    citizens: int
    growth_cap: int
    training_cost: int | None = None
    training_since: int = 0
    growing_since: int = 0
    _food: int = 0
    _delta: int = 0

    def food_stock(self, turn: int) -> int:
        return self._food + self._delta * turn

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
    # (turn, unit, command, detail). A detail that is not a dict renders on
    # read through ``describe()`` (see ``event_entries``) and is not mutated
    # once logged, but for the fields an ``instruction_start`` entry omits.
    event_log: list[tuple] = field(default_factory=list)
    jobs: dict[str, Job] = field(default_factory=dict)
    min_food_observed: int | None = None
    # VI food cache: the live cities' indices.
    _live: set[int] = field(default_factory=set, repr=False)

    def symbol_at(self, cell: int) -> str:
        return self.tape.get(cell, GAME_BLANK[self.params.ruleset])

    def city_of_cell(self, cell: int) -> City | None:
        return self.cities.get(cell // 2)

    def at_boundary(self) -> bool:
        """True at an instruction boundary: no unit has a pending job and no
        city trains or is below its cap (a city only losing food may). Such
        a city is live, so BE and V, with no cities, test the jobs alone."""
        if self.jobs:
            return False
        for index in self._live:
            city = self.cities[index]
            if city.training_cost is not None or city.citizens < city.growth_cap:
                return False
        return True


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
            )
            _rederive(world, city)
    detail = {"ruleset": ruleset, "cells": {str(k): v for k, v in sorted(content.items())}}
    world.event_log.append((world.turn, "world", "init", detail))
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


def op_turns(params: RulesetParams, op: str) -> int:
    """The turns of a job that is not a move: a tape op, a state-region build
    (a Terrascape on BE, a Railroad on V) or removal, or founding a city."""
    tape_op = _TAPE_OPS.get(op)
    if tape_op is not None:
        return getattr(params, tape_op.duration)
    if op == "build_state":
        return params.terrascape_build_turns if params.ruleset == RULESET_BE else params.railroad_build_turns
    if op == "remove_state":
        return params.remove_or_repair_turns
    if op == "found_city":
        return params.settler_found_turns
    raise IllegalCommand(f"unknown command {op!r}")


def _mistyped(command: Command, name: str, kind: type) -> IllegalCommand:
    """The refusal of a command whose field ``name`` is not exactly a
    ``kind``. Fields are tested with ``type(...) is``, so an ``int`` field
    takes no ``bool``."""
    return IllegalCommand(f"{command.op} needs {name} to be {kind.__name__}, not {getattr(command, name)!r}")


def apply_command(world: WorldState, unit_id: str, command: Command) -> WorldState:
    """Check and accept a command, dispatching on its op once.

    Each op's branch raises every refusal before it changes anything. An
    instant op (citizen reassignment, a Monastery shift, starting Settler
    training) then takes effect in the same turn, is logged and returns. Any
    other op sets its ``turns`` through ``op_turns`` or ``move_turns`` and
    becomes the unit's single pending job in ``world.jobs``, completing in
    ``advance_turn`` after its duration; BE and V issue only these, so the
    tape ops are tested first.
    """
    op = command.op
    if unit_id != PLAYER:
        if unit_id not in world.units:
            raise IllegalCommand(f"no unit {unit_id!r}")
        if op in _INSTANT_OPS:
            raise IllegalCommand(f"{op} must be issued by the {PLAYER}")
        job = world.jobs.get(unit_id)
        if job is not None:
            raise IllegalCommand(f"unit {unit_id} is busy until turn {job.completes_at}")
    elif op not in _INSTANT_OPS:
        raise IllegalCommand(f"{op} must be issued to a unit")
    ruleset = world.params.ruleset

    tape_op = _TAPE_OPS.get(op)
    if tape_op is not None:
        if ruleset not in tape_op.rulesets:
            raise IllegalCommand(f"cannot {tape_op.verb} in ruleset {ruleset}")
        if tape_op.unit is not None and unit_id != tape_op.unit:
            raise IllegalCommand(f"only the {tape_op.unit} can {tape_op.verb}")
        if type(command.cell) is not int:
            raise _mistyped(command, "cell", int)
        if world.units[unit_id] != command.cell:
            raise IllegalCommand(f"the {unit_id} at cell {world.units[unit_id]} cannot {tape_op.verb} at cell {command.cell}")
        symbol = world.symbol_at(command.cell)
        if symbol not in tape_op.requires:
            raise IllegalCommand(f"cannot {tape_op.verb} on {symbol} at cell {command.cell}")
        turns = op_turns(world.params, op)
    elif op == "move":
        if type(command.to) is not int:
            raise _mistyped(command, "to", int)
        turns = move_turns(world.params, unit_id, abs(command.to - world.units[unit_id]))
    elif op == "shift_monasteries":
        if ruleset != RULESET_VI:
            raise IllegalCommand("monasteries exist only in ruleset VI")
        if type(command.count) is not int:
            raise _mistyped(command, "count", int)
        new_count = world.state_count + command.count
        if not 0 <= new_count <= world.params.state_region_tiles:
            raise IllegalCommand(f"cannot work {new_count} monasteries in a region of {world.params.state_region_tiles}")
        world.state_count = new_count
        world.event_log.append((world.turn, unit_id, op, command))
        return world
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
        if command.worked and world.tape.get(command.cell) != "worked":
            if list(map(world.tape.get, city.tape_cells)).count("worked") >= city.citizens - 1:
                raise IllegalCommand(f"city {city.index} has no free citizen to work cell {command.cell}")
        # An unworked cell keeps its entry: the snapshot lists every cell
        # ever written.
        world.tape[command.cell] = "worked" if command.worked else "unworked"
        _rederive(world, city)
        world.event_log.append((world.turn, unit_id, op, command))
        return world
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
        city.training_cost = world.params.settler_cost(2 * len(world.cities))
        city.training_since = world.turn
        _rederive(world, city)
        world.event_log.append((world.turn, unit_id, op, {"city": city.index, "cost": city.training_cost}))
        return world
    elif op == "found_city":
        if unit_id != SETTLER:
            raise IllegalCommand("only a settler can found a city")
        if type(command.city) is not int:
            raise _mistyped(command, "city", int)
        index = command.city
        if world.units[SETTLER] != world.params.city_spacing * index:
            raise IllegalCommand(f"the settler at hex {world.units[SETTLER]} is not on city {index}'s center")
        if index in world.cities:
            raise IllegalCommand(f"city {index} already exists")
        # The strip is contiguous, so a new city next to one of its cities
        # extends it at an end. Centers are spacing*index, so contiguous
        # extension keeps every pair of adjacent centers city_spacing apart.
        if world.cities and index - 1 not in world.cities and index + 1 not in world.cities:
            raise IllegalCommand(f"city {index} would not extend the strip contiguously")
        turns = op_turns(world.params, op)
    elif op in ("build_state", "remove_state"):
        build = op == "build_state"
        if ruleset == RULESET_VI:
            raise IllegalCommand("VI encodes state via citizen reassignment, not builds")
        if unit_id != STATE_WORKER:
            raise IllegalCommand(f"only the {STATE_WORKER} can {'build in' if build else 'remove from'} the state region")
        if world.state_count == (world.params.state_region_tiles if build else 0):
            raise IllegalCommand(f"state region is {'full' if build else 'empty'}")
        turns = op_turns(world.params, op)
    else:
        raise IllegalCommand(f"unknown command {op!r}")
    job = world.jobs[unit_id] = Job(command, world.turn + turns)
    world.event_log.append((world.turn, unit_id, op, job))
    return world


def _complete_if_due(world: WorldState, uid: str) -> None:
    job = world.jobs[uid]
    if job.completes_at > world.turn:
        return
    del world.jobs[uid]
    command = job.command
    op = command.op
    if op == "move":
        world.units[uid] = command.to
        if uid == TAPE_WORKER and ROVER in world.units:
            # The rover shadows the tape worker: both arrive together.
            world.units[ROVER] = command.to
    elif op == "build_state":
        world.state_count += 1
    elif op == "remove_state":
        world.state_count -= 1
    elif op == "found_city":
        index = command.city
        city = world.cities[index] = City(index=index, citizens=2, growth_cap=4, growing_since=world.turn - 1)
        _rederive(world, city)
        city._food += city._delta  # founded before this turn's harvest and growth, it has both
        del world.units[SETTLER]
        world.event_log.append((world.turn, "world", "city_founded", {"city": index, "citizens": 2}))
        return
    else:  # a tape op
        world.tape[command.cell] = _TAPE_OPS[op].result
    world.event_log.append((world.turn, uid, _DONE[op], command))


def _rederive(world: WorldState, city: City) -> None:
    """Re-derive ``city``'s cached food delta after an event touched it.

    Citizens the tape demands work its grassland cells, read directly, as
    this runs on every event that touches a city. This turn's stock stands
    and the new delta counts from the next turn, so ``_food`` moves to put
    this turn's stock on the new line; the live set follows.
    """
    stock = city.food_stock(world.turn)
    get, cell = world.tape.get, 2 * city.index
    on_tape = min((get(cell) == "worked") + (get(cell + 1) == "worked"), city.citizens - 1)
    income, upkeep = world.params.food_balance(city.citizens, on_tape)
    delta = income - upkeep
    city._food, city._delta = stock - delta * world.turn, delta
    if city.training_cost is not None or city.citizens < city.growth_cap or delta < 0:
        world._live.add(city.index)
    else:
        world._live.discard(city.index)


def advance_turn(world: WorldState) -> WorldState:
    """Advance one turn: jobs whose time has come take effect in unit-id
    order, then the live cities (every city while no turn has passed), in
    index order, have their food stock observed (below zero it raises
    ``Starvation``), finish a Settler once its cost is in and bear a Citizen
    once due. Any other city is at its cap, not training and gaining food:
    its stock is never below one already observed. Only two or more jobs or
    cities are sorted; a lone city is still copied, as ``_rederive`` edits
    the live set during the loop."""
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
    visited = world.cities if world.min_food_observed is None else world._live
    for index in sorted(visited) if len(visited) > 1 else list(visited):
        city = world.cities[index]
        stock = city.food_stock(world.turn)
        if world.min_food_observed is None or stock < world.min_food_observed:
            world.min_food_observed = stock
        if stock < 0:
            for later in world.cities.values():
                if later.index > index:
                    later._food -= later._delta  # not fed this turn
            raise Starvation(f"city {city.index} food stock fell to {stock} on turn {world.turn}")
        if city.training_cost is not None:
            if p.production_per_turn * (world.turn - city.training_since) >= city.training_cost:
                if city.citizens == city.growth_cap:
                    city.growing_since = world.turn - 1  # at its cap until now, it grows from this turn
                city.training_cost = None
                city.citizens -= 1
                city.growth_cap = 3
                _rederive(world, city)
                world.units[SETTLER] = p.city_spacing * city.index  # the city's center
                world.event_log.append((world.turn, "world", "settler_trained", {"city": city.index, "citizens": city.citizens}))
        if city.citizens < city.growth_cap:
            if world.turn - city.growing_since >= p.city_growth_turns:
                city.growing_since = world.turn
                city.citizens += 1
                _rederive(world, city)
                world.event_log.append((world.turn, "world", "citizen_born", {"city": city.index, "citizens": city.citizens}))
    return world


def skip_quiet_turns(world: WorldState) -> WorldState:
    """Move the clock to the turn just before the next event.

    An event is a job completing, a city finishing its Settler, a Citizen
    born or a food stock falling below zero. The next one is a running
    minimum over the jobs and, in VI, the live cities, the only ones that
    can raise the last three (BE and V read the jobs table alone). Food,
    Production and growth read through from the clock, so the skipped span
    leaves the world exactly as that many ``advance_turn`` calls would,
    logging nothing. Nor does a lowest food stock go unobserved: a growing
    stock is lowest on the first skipped turn, which a world's first skip
    observes (later, a lower one is already observed), and a falling one on
    the event turn, which the next ``advance_turn`` reads for every live
    city before an event touches it. With no event pending, or the next one
    on the coming turn, the world is left as it is. The event turn,
    Starvation included, is ``advance_turn``'s."""
    p = world.params
    turn = world.turn
    nearest = None  # the next event's turn; a job's is its completes_at
    for job in world.jobs.values():
        if nearest is None or job.completes_at < nearest:
            nearest = job.completes_at
    vi = p.ruleset == RULESET_VI
    if vi:
        for index in world._live:
            city = world.cities[index]
            if city.training_cost is not None:
                event = city.training_since - -city.training_cost // p.production_per_turn  # + ceil(cost / ppt)
                if nearest is None or event < nearest:
                    nearest = event
            if city.citizens < city.growth_cap:
                event = city.growing_since + p.city_growth_turns
                if nearest is None or event < nearest:
                    nearest = event
            if city._delta < 0:
                event = turn + city.food_stock(turn) // -city._delta + 1
                if nearest is None or event < nearest:
                    nearest = event
    quiet = -1 if nearest is None else nearest - turn - 1
    if quiet < 1:
        return world
    if vi and world.min_food_observed is None:
        world.min_food_observed = min(city.food_stock(turn + 1) for city in world.cities.values())
    world.turn += quiet
    return world


def yields(world: WorldState) -> dict[str, int]:
    """Per-turn resource income as a pure function of the state (VI food is
    the sum of the cities' cached deltas)."""
    p = world.params
    if p.ruleset == RULESET_VI:
        food = sum(city._delta for city in world.cities.values())
        return {"faith": p.base_faith + p.monastery_faith * world.state_count, "food": food}
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
            "food_stock": c.food_stock(world.turn),
            "production_stock": 0 if c.training_cost is None else p.production_per_turn * (world.turn - c.training_since),
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
