"""Bidirectional mapping between worlds and machine configurations.

Decoding reads the machine state as the state region's count (Terrascapes,
Railroads or worked Monasteries), the head as the tape worker's cell and the
tape as the cells' improvements or worked flags; the yields are not read.
It is read-only and only meaningful at instruction boundaries, i.e. when no
unit has a pending job and no city is training. A ``Reader`` follows a world
from boundary to boundary: one full ``decode`` at the start, then only the
state, the head and the cells the world's tape recorded as written, with
the same symbol rule and the same errors, and a full ``decode`` at the end
that fails closed on a cell changed without being recorded.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from types import MappingProxyType
from typing import TYPE_CHECKING

from .errors import CivUtmError, CompileError, DecodeError
from .tm import Machine, TMConfig, TMSpec, _write
from .world import GAME_BLANK, GAME_SYMBOLS, TAPE_WORKER, WorldState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .controller import ControllerProgram


def symbol_map(spec: TMSpec, ruleset: str) -> Mapping[str, str]:
    """Canonical machine-symbol -> game-symbol bijection.

    The blank always maps to the game blank (no improvement / not worked);
    the remaining symbols take the ruleset's non-blank encodings in alphabet
    declaration order. The mapping is shared by every machine with the same
    alphabet and blank on the ruleset, so it is read-only.
    """
    return _symbol_map(tuple(spec.alphabet), spec.blank, ruleset)


# One mapping per (alphabet, blank, ruleset) seen so far.
@functools.cache
def _symbol_map(alphabet: tuple[str, ...], blank: str, ruleset: str) -> Mapping[str, str]:
    nonblank = [sym for sym in alphabet if sym != blank]
    slots = [gs for gs in GAME_SYMBOLS[ruleset] if gs != GAME_BLANK[ruleset]]
    if len(nonblank) > len(slots):
        raise CompileError(
            f"alphabet of {len(alphabet)} symbols does not fit ruleset {ruleset} "
            f"({len(slots) + 1} encodings available)"
        )
    mapping = {blank: GAME_BLANK[ruleset]}
    for sym, slot in zip(nonblank, slots):
        mapping[sym] = slot
    return MappingProxyType(mapping)


def encode_tape(tm_tape: dict[int, str], program: "ControllerProgram") -> dict[int, str]:
    """Map a sparse machine tape to initial world content (blanks dropped)."""
    spec = program.spec
    content: dict[int, str] = {}
    for cell, sym in tm_tape.items():
        if sym not in program.symbol_of:
            raise CompileError(f"symbol {sym!r} at cell {cell} is not in the machine alphabet")
        if sym == spec.blank:
            continue
        content[cell] = program.symbol_of[sym]
    return content


def decode(world: WorldState, program: "ControllerProgram") -> TMConfig | None:
    """Decode an instruction-boundary world into (state, tape, head); None
    when the world is not at an instruction boundary."""
    if not world.at_boundary():
        return None
    state = _state(program, world.state_count)
    tape = _machine_cells(world, program, sorted(world.tape.items()))
    return TMConfig(state=state, tape=tape, head=world.units[TAPE_WORKER])


def _state(program: "ControllerProgram", index: int) -> str:
    if index >= len(program.index_to_state):
        raise DecodeError(f"state index {index} out of range for {len(program.index_to_state)} states")
    return program.index_to_state[index]


def _machine_cells(world: WorldState, program: "ControllerProgram", cells) -> dict[int, str]:
    """Machine symbols of ``(cell, game symbol)`` pairs, in their order; the
    blank is left out, as in a canonical tape."""
    tape: dict[int, str] = {}
    blank_game = GAME_BLANK[world.params.ruleset]
    for cell, game_sym in cells:
        if game_sym == blank_game:
            continue
        sym = program.symbol_from_game.get(game_sym)
        if sym is None:
            raise DecodeError(f"cell {cell} holds {game_sym!r}, outside the machine alphabet")
        tape[cell] = sym
    return tape


class Reader:
    """Follows a world from one instruction boundary to the next.

    Made with one full ``decode`` of the world; ``machine`` holds the
    configuration read. ``advance`` reads the next boundary as ``decode``
    would, but only the state, the head and the cells the world's tape
    recorded as written since the last read: equal at the start and read on
    every written cell is the whole tape. ``close`` decodes in full once
    more to check that no cell changed without being recorded.
    """

    def __init__(self, world: WorldState, program: "ControllerProgram"):
        config = decode(world, program)
        if config is None:
            raise DecodeError("the world is not at an instruction boundary")
        self.world, self.program = world, program
        self.machine = Machine.of(config)
        world.tape.take_written()

    def advance(self) -> dict[int, str | None] | None:
        """Read the boundary after an instruction into ``machine``.

        Returns the cells whose machine symbol changed (None for the blank),
        or None when the world is not at a boundary. Raises what ``decode``
        would raise on the state and on the cells read; cells not written
        since the last read are not read.
        """
        world, program, machine = self.world, self.program, self.machine
        if not world.at_boundary():
            return None
        machine.state = _state(program, world.state_count)
        machine.head = world.units[TAPE_WORKER]
        written = world.tape.take_written()
        if not written:
            return {}
        cells = sorted(written)
        symbols = _machine_cells(world, program, [(cell, world.symbol_at(cell)) for cell in cells])
        changed = {}
        for cell in cells:
            symbol = symbols.get(cell)
            if symbol != machine.tape.get(cell):
                changed[cell] = symbol
                _write(machine.tape, cell, symbol)
        return changed

    def close(self, instruction: int) -> None:
        """Decode the world in full and raise :class:`CivUtmError` unless it
        gives ``machine``, the configuration read at ``instruction``."""
        if decode(self.world, self.program) != self.machine.config():
            raise CivUtmError(
                f"the world no longer decodes to the configuration verified at instruction "
                f"{instruction}: a tape cell changed without being recorded"
            )
