"""Bidirectional mapping between worlds and machine configurations.

Decoding reads improvement / worked-flag counts directly and cross-checks
them against the yield arithmetic (Culture or Faith deltas over the player's
baseline); a mismatch between the two routes signals world corruption. It is
read-only and only meaningful at instruction boundaries, i.e. when no unit
has a pending job and no city is training. ``boundary_matches`` makes the
same check against an expected configuration on a given set of cells only,
with the same symbol rule and the same errors; ``read_boundary`` and
``cell_symbols`` are its two halves, for a reader that follows the world
without an expected configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CompileError, DecodeError
from .tm import Machine, TMConfig, TMSpec
from .world import (
    GAME_BLANK,
    GAME_SYMBOLS,
    RULESET_BE,
    RULESET_V,
    TAPE_WORKER,
    WorldState,
    yields,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .controller import ControllerProgram


@dataclass(frozen=True)
class DecodedConfig:
    """A decoded machine configuration plus the raw observation behind it."""

    config: TMConfig | None  # None when the world is not at an instruction boundary
    state_evidence: dict


def symbol_map(spec: TMSpec, ruleset: str) -> dict[str, str]:
    """Canonical machine-symbol -> game-symbol bijection.

    The blank always maps to the game blank (no improvement / not worked);
    the remaining symbols take the ruleset's non-blank encodings in alphabet
    declaration order.
    """
    nonblank = [sym for sym in spec.alphabet if sym != spec.blank]
    slots = [gs for gs in GAME_SYMBOLS[ruleset] if gs != GAME_BLANK[ruleset]]
    if len(nonblank) > len(slots):
        raise CompileError(
            f"alphabet of {len(spec.alphabet)} symbols does not fit ruleset {ruleset} "
            f"({len(slots) + 1} encodings available)"
        )
    mapping = {spec.blank: GAME_BLANK[ruleset]}
    for sym, slot in zip(nonblank, slots):
        mapping[sym] = slot
    return mapping


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


def state_index(world: WorldState) -> tuple[int, dict]:
    """Machine state index read from the region, cross-checked via yields."""
    region_count = world.region.count
    income = yields(world)
    p = world.params
    if p.ruleset == RULESET_BE:
        delta = income["culture"] - world.region.base_yield
        if delta % p.terrascape_culture:
            raise DecodeError(f"culture delta {delta} is not a multiple of {p.terrascape_culture}")
        via_yield = delta // p.terrascape_culture
        evidence = {"terrascapes": region_count, "culture_delta": delta}
    elif p.ruleset == RULESET_V:
        via_yield = region_count  # railroads carry no yield; the count is the state
        evidence = {"railroads": region_count}
    else:
        delta = income["faith"] - world.region.base_yield
        if delta % p.monastery_faith:
            raise DecodeError(f"faith delta {delta} is not a multiple of {p.monastery_faith}")
        via_yield = delta // p.monastery_faith
        evidence = {"worked_monasteries": region_count, "faith_delta": delta}
    if via_yield != region_count:
        raise DecodeError(f"yield-decoded state {via_yield} disagrees with region count {region_count}")
    return region_count, evidence


def decode(world: WorldState, program: "ControllerProgram") -> DecodedConfig:
    """Decode an instruction-boundary world into (state, tape, head)."""
    index, evidence = state_index(world)
    if world.any_busy() or world.any_training():
        return DecodedConfig(config=None, state_evidence=evidence)
    if index >= len(program.index_to_state):
        raise DecodeError(f"state index {index} out of range for {len(program.index_to_state)} states")
    state = program.index_to_state[index]

    tape = _machine_cells(world, program, sorted(world.tape.items()))
    head = world.units[TAPE_WORKER].position
    return DecodedConfig(config=TMConfig(state=state, tape=tape, head=head), state_evidence=evidence)


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


def read_boundary(world: WorldState, program: "ControllerProgram") -> tuple[str, int, dict] | None:
    """(state, head, state evidence) of a world at an instruction boundary.

    The state is read from the region and cross-checked via yields, as
    ``decode`` reads it. None when the world is not at a boundary or the
    state index is out of range, where ``decode`` gives no configuration
    or raises.
    """
    index, evidence = state_index(world)
    if world.any_busy() or world.any_training() or index >= len(program.index_to_state):
        return None
    return program.index_to_state[index], world.units[TAPE_WORKER].position, evidence


def cell_symbols(world: WorldState, program: "ControllerProgram", cells) -> dict[int, str]:
    """Machine symbols on ``cells`` as ``decode`` reads them, blanks left out."""
    return _machine_cells(world, program, [(cell, world.symbol_at(cell)) for cell in sorted(cells)])


def boundary_matches(world: WorldState, program: "ControllerProgram", config: TMConfig | Machine, cells: set[int]) -> bool:
    """True when ``decode`` would give ``config`` as far as ``cells`` show.

    The world must be at an instruction boundary with ``config``'s state
    (read from the region, cross-checked via yields) and head, and every one
    of ``cells`` must decode to what ``config`` holds there. Cells outside
    ``cells`` are not read: the caller vouches that they decode and agree
    with ``config``. Given that, it raises what ``decode`` would raise, and
    False means ``decode`` raises or returns another configuration.
    """
    read = read_boundary(world, program)
    if read is None or read[0] != config.state or read[1] != config.head:
        return False
    tape = cell_symbols(world, program, cells)
    return all(tape.get(cell) == config.tape.get(cell) for cell in cells)
