"""Codec tests: round-trips, state decoding, corruption detection."""

from __future__ import annotations

import random

import pytest

from civutm.codec import decode, encode_tape, read_cells
from civutm.controller import compile_program
from civutm.errors import CompileError, DecodeError
from civutm.tm import TMConfig, builtin_program
from civutm.world import (
    RULESET_BE,
    RULESET_V,
    RULESET_VI,
    STATE_WORKER,
    TAPE_WORKER,
    Command,
    advance_turn,
    apply_command,
    init_world,
    world_snapshot,
    yields,
)


def test_symbol_map_order_and_blank():
    spec = builtin_program("rogozhin_10_3")
    assert compile_program(spec, RULESET_BE).symbol_of == {"0": "none", "1": "road", "b": "pillaged_road"}
    assert compile_program(spec, RULESET_V).symbol_of == {"0": "none", "1": "road", "b": "railroad"}
    bb3 = builtin_program("bb3")
    assert compile_program(bb3, RULESET_VI).symbol_of == {"0": "unworked", "1": "worked"}


def test_symbol_map_rejects_oversized_alphabet():
    with pytest.raises(CompileError, match="alphabet of 3 symbols does not fit ruleset VI"):
        compile_program(builtin_program("rogozhin_10_3"), RULESET_VI)


RULESETS_SEEDS = {RULESET_BE: 101, RULESET_V: 102, RULESET_VI: 103}


def _machine_for(ruleset: str):
    return builtin_program("rogozhin_10_3" if ruleset != RULESET_VI else "rogozhin_24_2")


@pytest.mark.parametrize("ruleset", [RULESET_BE, RULESET_V, RULESET_VI])
def test_roundtrip_random_tapes(ruleset):
    spec = _machine_for(ruleset)
    program = compile_program(spec, ruleset)
    rng = random.Random(RULESETS_SEEDS[ruleset])
    symbols = [s for s in spec.alphabet if s != spec.blank]
    for _ in range(100):
        tape = {rng.randint(-6, 6): rng.choice(symbols) for _ in range(rng.randint(0, 6))}
        world = init_world(ruleset, encode_tape(tape, program))
        assert decode(world, program) == TMConfig(state=spec.initial, tape=dict(sorted(tape.items())), head=0)


def test_encode_drops_blanks():
    program = compile_program(builtin_program("bb3"), RULESET_BE)
    assert encode_tape({0: "1", 2: "0"}, program) == {0: "road"}


def test_encode_rejects_unknown_symbol():
    program = compile_program(builtin_program("bb3"), RULESET_BE)
    with pytest.raises(CompileError):
        encode_tape({0: "z"}, program)


def test_decode_is_read_only():
    program = compile_program(builtin_program("rogozhin_10_3"), RULESET_BE)
    world = init_world(RULESET_BE, {0: "road", 2: "pillaged_road"})
    before = world_snapshot(world)
    decode(world, program)
    assert world_snapshot(world) == before


def test_be_state_from_culture_delta():
    # Two terrascapes over a base culture of 1 put the total at 7 -> state 2.
    world = init_world(RULESET_BE, {})
    for _ in range(2):
        apply_command(world, STATE_WORKER, Command(op="build_state"))
        for _ in range(world.params.terrascape_build_turns):
            advance_turn(world)
    assert yields(world)["culture"] == 7
    assert yields(world)["culture"] - world.params.base_culture == 2 * world.params.terrascape_culture
    assert world.state_count == 2


def test_v_state_from_railroad_count():
    world = init_world(RULESET_V, {})
    for _ in range(2):
        apply_command(world, STATE_WORKER, Command(op="build_state"))
        for _ in range(world.params.railroad_build_turns):
            advance_turn(world)
    assert yields(world)["culture"] == world.params.base_culture  # Railroads yield nothing
    assert world.state_count == 2


def test_vi_state_from_worked_monasteries():
    world = init_world(RULESET_VI, {})
    apply_command(world, "player", Command(op="shift_monasteries", count=23))
    assert yields(world)["faith"] - world.params.base_faith == 46
    assert world.state_count == 23


def test_decode_not_at_boundary():
    program = compile_program(builtin_program("bb3"), RULESET_BE)
    world = init_world(RULESET_BE, {})
    apply_command(world, TAPE_WORKER, Command(op="build_road", cell=0))
    assert decode(world, program) is None


def test_decode_rejects_state_out_of_range():
    program = compile_program(builtin_program("bb3"), RULESET_BE)
    world = init_world(RULESET_BE, {})
    world.state_count = 5
    with pytest.raises(DecodeError, match="out of range"):
        decode(world, program)


def test_decode_rejects_symbol_outside_alphabet():
    program = compile_program(builtin_program("bb3"), RULESET_BE)
    world = init_world(RULESET_BE, {})
    world.tape[0] = "pillaged_road"
    with pytest.raises(DecodeError, match="outside the machine alphabet"):
        decode(world, program)


def test_read_cells_reads_what_decode_gives_on_the_cells_given():
    # State, head and the cells asked for are read as decode reads them,
    # with the same DecodeError; a cell not asked for is not read.
    program = compile_program(builtin_program("bb3"), RULESET_BE)
    world = init_world(RULESET_BE, {2: "road"})
    full = decode(world, program)
    assert read_cells(world, program, [2]) == (full.state, full.tape, full.head) == ("q0", {2: "1"}, 0)
    world.tape[2] = "none"
    world.tape[5] = "road"
    world.tape[6] = "none"  # the blank is left out, as decode leaves it out
    world.state_count = 1
    world.units[TAPE_WORKER] = 3
    full = decode(world, program)
    assert read_cells(world, program, [2, 5, 6]) == (full.state, full.tape, full.head) == ("q1", {5: "1"}, 3)
    assert full.state == program.index_to_state[1]
    world.tape[4] = "pillaged_road"
    assert read_cells(world, program, [5]) == (full.state, full.tape, full.head)  # cell 4 is not read
    for read in (lambda: decode(world, program), lambda: read_cells(world, program, [4])):
        with pytest.raises(DecodeError, match="cell 4 holds 'pillaged_road'"):
            read()
    world.state_count = 5
    for read in (lambda: decode(world, program), lambda: read_cells(world, program, [])):
        with pytest.raises(DecodeError, match="state index 5 out of range"):
            read()
    apply_command(world, TAPE_WORKER, Command(op="build_road", cell=3))
    # Off a boundary there is no configuration, and nothing is read.
    assert read_cells(world, program, [4]) is None and decode(world, program) is None


def test_vi_head_is_global_cell_index():
    program = compile_program(builtin_program("rogozhin_24_2"), RULESET_VI)
    world = init_world(RULESET_VI, {-3: "worked"})
    world.units[TAPE_WORKER] = -3
    config = decode(world, program)
    assert config.head == -3
    assert world.symbol_at(-3) == "worked"
    assert config.tape == {-3: "1"}
