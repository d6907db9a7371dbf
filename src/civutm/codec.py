"""Bidirectional mapping between worlds and machine configurations.

Decoding reads the machine state as the state region's count (Terrascapes,
Railroads or worked Monasteries), the head as the tape worker's cell and the
tape as the cells' improvements or worked flags; the yields are not read.
It is read-only and only meaningful at instruction boundaries, i.e. when no
unit has a pending job and no city is training. ``read_cells`` holds the
one symbol rule: it reads the state, the head and the cells it is given,
and ``decode`` is that read over every tape cell. ``harness.lockstep``
reads a world in full at the start and the end, and in between only on the
cells its tape recorded as written and the oracle's cell.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from types import MappingProxyType
from typing import TYPE_CHECKING

from .errors import CompileError, DecodeError
from .tm import TMConfig
from .world import GAME_BLANK, GAME_SYMBOLS, TAPE_WORKER, WorldState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .controller import ControllerProgram


# One mapping per (alphabet, blank, ruleset) seen so far.
@functools.cache
def _symbol_map(alphabet: tuple[str, ...], blank: str, ruleset: str) -> Mapping[str, str]:
    """Canonical machine-symbol -> game-symbol bijection.

    The blank always maps to the game blank (no improvement / not worked);
    the remaining symbols take the ruleset's non-blank encodings in alphabet
    declaration order. The mapping is shared by every machine with the same
    alphabet and blank on the ruleset, so it is read-only.
    """
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
    read = read_cells(world, program, sorted(cell for cell, _ in world.tape.items()))
    return None if read is None else TMConfig(*read)


def read_cells(world: WorldState, program: "ControllerProgram", cells) -> tuple[str, dict[int, str], int] | None:
    """Read an instruction-boundary world on ``cells`` alone: (state, machine
    symbols of those cells in their order with the blank left out, head);
    None when the world is not at an instruction boundary. Raises
    :class:`DecodeError` on a state index out of range or on a cell read
    that holds a symbol outside the machine alphabet."""
    if not world.at_boundary():
        return None
    index = world.state_count
    if index >= len(program.index_to_state):
        raise DecodeError(f"state index {index} out of range for {len(program.index_to_state)} states")
    tape: dict[int, str] = {}
    blank_game = GAME_BLANK[world.params.ruleset]
    read, machine_symbol = world.tape.get, program.symbol_from_game.get
    for cell in cells:
        game_sym = read(cell, blank_game)
        if game_sym == blank_game:
            continue
        sym = machine_symbol(game_sym)
        if sym is None:
            raise DecodeError(f"cell {cell} holds {game_sym!r}, outside the machine alphabet")
        tape[cell] = sym
    return program.index_to_state[index], tape, world.units[TAPE_WORKER]
