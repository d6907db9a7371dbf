"""Compiler and executor tests: macros, table fidelity, tape extension."""

from __future__ import annotations

import dataclasses
import re
import tracemalloc

import pytest

from civutm import controller
from civutm.codec import _symbol_map, decode
from civutm.controller import (
    CommandMacro,
    InstructionRecord,
    compile_program,
    execute_instruction,
    extend_tape,
    macro_paper_command,
    program_to_json,
    tape_plan,
    vi_state_delta,
    vi_work_command,
)
from civutm.errors import CivUtmError, CompileError, DecodeError, IllegalCommand, MachineStuck
from civutm.harness import derived_instruction_bound, lockstep_verify, random_tm
from civutm.tables import FIXTURE_FOR, load_fixture, table_fidelity
from civutm.tm import HaltAction, TMConfig, TMSpec, Transition, builtin_program
from civutm.world import (
    GAME_BLANK,
    GAME_SYMBOLS,
    PLAYER,
    RULESET_BE,
    RULESET_V,
    RULESET_VI,
    SETTLER,
    TAPE_WORKER,
    Command,
    RulesetParams,
    apply_command,
    event_entries,
    event_log_lines,
    init_world,
)


def test_compile_bb3_be_macros():
    program = compile_program(builtin_program("bb3"), RULESET_BE)
    assert len(program.macros) == 6
    m = program.macros[(0, "none")]
    assert (m.tape_action, m.head_move, m.state_delta, m.halt) == ("build_road", "R", 1, False)
    # Write-equals-read normalizes to leave: rebuilding a standing road is illegal.
    m = program.macros[(0, "road")]
    assert (m.tape_action, m.head_move, m.state_delta) == ("leave", "L", 2)
    m = program.macros[(2, "road")]
    assert m.halt and m.head_move is None and m.state_delta == 0


def test_compiled_programs_share_equal_macros():
    programs = [compile_program(builtin_program(name), RULESET_BE) for name in ("bb3", "bb3", "rogozhin_10_3")]
    macros = [(i, m) for i, p in enumerate(programs) for m in p.macros.values()]
    shared = [(a, b) for i, a in macros for j, b in macros if i < j and a == b]
    assert len(shared) > len(programs[0].macros)  # bb3 with itself, and across machines
    assert all(a is b for a, b in shared)
    with pytest.raises(dataclasses.FrozenInstanceError):
        programs[0].macros[(0, "none")].state_delta = 5


def test_initial_state_gets_index_zero():
    for name, ruleset in (("bb3", RULESET_BE), ("rogozhin_10_3", RULESET_V), ("rogozhin_24_2", RULESET_VI)):
        program = compile_program(builtin_program(name), ruleset)
        assert program.state_index_of[program.spec.initial] == 0
        assert program.index_to_state[0] == program.spec.initial


def _shape_cases():
    """(spec, ruleset) for the built-ins and 50 random machines, on every
    ruleset each fits with the default params."""
    cases = [(builtin_program("bb3"), ruleset) for ruleset in (RULESET_BE, RULESET_V, RULESET_VI)]
    cases += [(builtin_program("rogozhin_10_3"), ruleset) for ruleset in (RULESET_BE, RULESET_V)]
    cases.append((builtin_program("rogozhin_24_2"), RULESET_VI))
    for seed in range(50):
        spec = random_tm(seed, 2 + seed % 7, 2 + seed % 2)
        cases += [(spec, ruleset) for ruleset in (RULESET_BE, RULESET_V, RULESET_VI)[: 5 - len(spec.alphabet)]]
    return cases


def test_shared_shape_tables_match_the_plain_path():
    programs = [compile_program(spec, ruleset) for spec, ruleset in _shape_cases()]
    first_of_shape = {}
    for program in programs:
        spec, ruleset = program.spec, program.ruleset
        assert program.index_to_state == (spec.initial,) + tuple(st for st in spec.states if st != spec.initial)
        assert program.state_index_of == {state: i for i, state in enumerate(program.index_to_state)}
        # Blank to game blank, then the rest in declaration order.
        game = [GAME_BLANK[ruleset]] + [sym for sym in GAME_SYMBOLS[ruleset] if sym != GAME_BLANK[ruleset]]
        machine = [spec.blank] + [sym for sym in spec.alphabet if sym != spec.blank]
        assert program.symbol_of == dict(zip(machine, game))
        assert program.symbol_from_game == dict(zip(game, machine))
        assert _symbol_map(tuple(spec.alphabet), spec.blank, ruleset) is program.symbol_of
        # Equal shapes share every table; the macros are each program's own.
        first = first_of_shape.setdefault((spec.states, spec.initial, spec.alphabet, spec.blank, ruleset), program)
        for name in ("index_to_state", "state_index_of", "symbol_of", "symbol_from_game"):
            assert getattr(program, name) is getattr(first, name)
        assert program is first or program.macros is not first.macros
    assert len(first_of_shape) < len(programs) // 2


def test_shared_shape_tables_are_read_only():
    program = compile_program(builtin_program("bb3"), RULESET_BE)
    twin = compile_program(builtin_program("bb3"), RULESET_BE)
    tables = (
        (program.index_to_state, 0),
        (program.state_index_of, "q0"),
        (program.symbol_of, "0"),
        (program.symbol_from_game, "none"),
    )
    for table, key in tables:
        with pytest.raises(TypeError):
            table[key] = table[key]
    with pytest.raises(AttributeError):
        program.scratch = {}  # a program has slots, no __dict__
    program.macros[(0, "none")] = program.macros[(0, "road")]
    assert twin.macros[(0, "none")] is not program.macros[(0, "none")]


def test_list_typed_spec_compiles_to_equal_tables():
    for spec, ruleset in ((builtin_program("bb3"), RULESET_VI), (builtin_program("rogozhin_10_3"), RULESET_V)):
        listed = dataclasses.replace(spec, states=list(spec.states), alphabet=list(spec.alphabet))
        plain, from_lists = compile_program(spec, ruleset), compile_program(listed, ruleset)
        for name in ("index_to_state", "state_index_of", "symbol_of", "symbol_from_game", "macros"):
            assert getattr(from_lists, name) == getattr(plain, name)


def test_compiled_programs_keep_only_their_own_macros():
    # A memory guard. The bijections, the macros, the rules and the random
    # machines' names and keys are shared, so a program keeps its macros
    # dict, its spec's transitions and itself: 889 bytes each on Python
    # 3.11, against 2,489 when every program built its own tables.
    def build():
        specs = [random_tm(seed, 2 + seed % 7, 3) for seed in range(200)]
        return [compile_program(spec, ruleset) for spec in specs for ruleset in (RULESET_BE, RULESET_V)]

    build()  # fill the shared caches, so only what each program keeps is counted
    tracemalloc.start()
    try:
        programs = build()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept / len(programs) < 1333


def test_compile_appendix_spot_checks():
    be = compile_program(builtin_program("rogozhin_10_3"), RULESET_BE)
    m = be.macros[(0, "road")]
    assert (m.tape_action, m.head_move, m.state_delta) == ("remove_improvement", "L", 1)
    m = be.macros[(4, "none")]
    assert (m.tape_action, m.head_move, m.state_delta) == ("build_road_then_pillage", "L", -2)
    vi = compile_program(builtin_program("rogozhin_24_2"), RULESET_VI)
    m = vi.macros[(0, "unworked")]
    assert (m.tape_action, m.head_move, m.state_delta) == ("leave", "R", 4)
    assert macro_paper_command(m, RULESET_VI, "unworked") == "Is Not Being Worked, move R; Work 5 more Monasteries"


def test_vi_work_command_convention_roundtrip():
    for delta in range(-22, 23):
        kind, count = vi_work_command(delta)
        assert vi_state_delta(kind, count) == delta
        assert count >= 0


@pytest.mark.parametrize("ruleset,name", [(r, n) for (r, n) in FIXTURE_FOR])
def test_table_fidelity_zero_differences(ruleset, name):
    program = compile_program(builtin_program(name), ruleset, _params_for(ruleset, name))
    fixture = load_fixture(FIXTURE_FOR[(ruleset, name)])
    assert table_fidelity(program, fixture) == []


def _params_for(ruleset, name):
    return None  # defaults suffice for all three shipped tables


def test_table_fidelity_catches_corruption():
    program = compile_program(builtin_program("rogozhin_10_3"), RULESET_BE)
    fixture = load_fixture("civ_be_rogozhin_10_3")
    key = (0, "road")
    macro = program.macros[key]
    program.macros[key] = type(macro)(
        tape_action=macro.tape_action,
        head_move=macro.head_move,
        state_delta=macro.state_delta + 1,
        halt=macro.halt,
        read_symbol=macro.read_symbol,
        write_symbol=macro.write_symbol,
    )
    diffs = table_fidelity(program, fixture)
    assert any(d["field"] == "state_delta" for d in diffs)


# One change per field table_fidelity compares (state_delta is covered
# above), to the fixture's first row or to the program: (change, the one
# difference it must report).
_ROW0 = "state 0 reading No Improvement"


def _fixture_row(**changes):
    def change(fixture, program):
        fixture["rows"][0].update(changes)

    return change


def _fixture_tm(fixture, program):
    fixture["rows"][0]["tm"]["next"] = "q1"


def _macro_missing(fixture, program):
    del program.macros[(0, "none")]


def _macro_extra(fixture, program):
    program.macros[(10, "none")] = program.macros[(0, "none")]


def _wrong_ruleset(fixture, program):
    fixture["ruleset"] = RULESET_V


FIDELITY_PERTURBATIONS = {
    "halt": (_fixture_row(halt=True), {"row": _ROW0, "field": "halt", "expected": True, "actual": False}),
    "tape": (_fixture_row(tape="leave"), {"row": _ROW0, "field": "tape", "expected": "leave", "actual": "build_road"}),
    "move": (_fixture_row(move="L"), {"row": _ROW0, "field": "move", "expected": "L", "actual": "R"}),
    "tm": (
        _fixture_tm,
        {
            "row": _ROW0,
            "field": "tm",
            "expected": {"move": "R", "next": "q1", "read": "0", "state": "q0", "write": "1"},
            "actual": repr(Transition("1", "R", "q0")),
        },
    ),
    "missing row": (_macro_missing, {"row": _ROW0, "field": "macro", "expected": "present", "actual": "missing"}),
    "extra macro": (
        _macro_extra,
        {"row": "state 10 reading none", "field": "row", "expected": "absent", "actual": "extra macro"},
    ),
    "wrong ruleset": (_wrong_ruleset, {"row": None, "field": "ruleset", "expected": RULESET_V, "actual": RULESET_BE}),
}


@pytest.mark.parametrize("field", sorted(FIDELITY_PERTURBATIONS))
def test_table_fidelity_names_the_row_and_field_that_differ(field):
    program = compile_program(builtin_program("rogozhin_10_3"), RULESET_BE)
    fixture = load_fixture("civ_be_rogozhin_10_3")
    change, difference = FIDELITY_PERTURBATIONS[field]
    change(fixture, program)
    assert table_fidelity(program, fixture) == [difference]


def test_write_normalization_soundness():
    # No compiled macro ever asks for an improvement the cell already has.
    for name, ruleset in (("rogozhin_10_3", RULESET_BE), ("rogozhin_10_3", RULESET_V), ("rogozhin_24_2", RULESET_VI), ("bb3", RULESET_BE)):
        program = compile_program(builtin_program(name), ruleset)
        for (idx, read), macro in program.macros.items():
            if macro.tape_action == "build_road":
                assert read != "road"
            if macro.tape_action == "build_railroad":
                assert read != "railroad"
            if macro.tape_action == "leave":
                assert macro.write_symbol == read


def test_compile_alphabet_bound():
    with pytest.raises(CompileError, match="alphabet"):
        compile_program(builtin_program("rogozhin_10_3"), RULESET_VI)


def test_compile_refuses_params_of_another_ruleset():
    # compile_program makes the check init_world makes of the params' ruleset.
    with pytest.raises(IllegalCommand, match="params are for ruleset 'V', not 'BE'"):
        compile_program(builtin_program("bb3"), RULESET_BE, RulesetParams.defaults(RULESET_V))


def test_compile_names_the_ruleset_not_the_region_of_foreign_params():
    # BE params hold 9 state tiles, fewer than rogozhin_24_2's 23 states
    # need; the refusal is that they are BE params, not that the region is short.
    with pytest.raises(IllegalCommand, match="params are for ruleset 'BE', not 'VI'"):
        compile_program(builtin_program("rogozhin_24_2"), RULESET_VI, RulesetParams.defaults(RULESET_BE))


def test_compile_region_bound():
    with pytest.raises(CompileError, match="state region"):
        compile_program(builtin_program("rogozhin_24_2"), RULESET_V)
    params = dataclasses.replace(RulesetParams.defaults(RULESET_V), state_region_tiles=23)
    program = compile_program(builtin_program("rogozhin_24_2"), RULESET_V, params)
    assert len(program.macros) == 48


def test_program_export_shape():
    program = compile_program(builtin_program("bb3"), RULESET_BE)
    export = program_to_json(program)
    assert export["format_version"] == 1
    assert len(export["macros"]) == 6
    assert export["macros"][0]["paper_command"]


def test_execute_one_instruction_be():
    # State 0 reading a road: remove the improvement, move left, one more
    # terrascape standing afterwards.
    spec = builtin_program("rogozhin_10_3")
    program = compile_program(spec, RULESET_BE)
    world = init_world(RULESET_BE, {0: "road"})
    record = execute_instruction(world, program, index=1)
    assert record.turns >= 1
    assert world.symbol_at(0) == "none"
    assert world.units[TAPE_WORKER] == -1
    assert world.state_count == 1
    assert decode(world, program) == TMConfig(state="q1", tape={}, head=-1)


def test_execute_halt_leaves_world_unchanged():
    spec = builtin_program("rogozhin_10_3")
    program = compile_program(spec, RULESET_BE)
    world = init_world(RULESET_BE, {0: "road"})
    world.state_count = 6  # state 6 reading a road: the halt row
    snapshot_tape = dict(world.tape.items())
    record = execute_instruction(world, program, index=1)
    assert record.halted and record.turns == 0
    assert world.units[TAPE_WORKER] == 0
    assert dict(world.tape.items()) == snapshot_tape


def test_execute_stuck_raises():
    program = compile_program(builtin_program("bb3"), RULESET_BE)
    world = init_world(RULESET_BE, {})
    world.tape[0] = "pillaged_road"
    with pytest.raises(MachineStuck):
        execute_instruction(world, program, index=1)


def test_execute_requires_boundary():
    program = compile_program(builtin_program("bb3"), RULESET_BE)
    world = init_world(RULESET_BE, {})
    world.units[TAPE_WORKER] = 3
    apply_command(world, TAPE_WORKER, Command(op="build_road", cell=3))
    with pytest.raises(DecodeError, match="boundary"):
        execute_instruction(world, program, index=1)


def test_a_training_city_holds_the_boundary_back():
    # No unit is busy, but city 0 trains a Settler: the world is not at an
    # instruction boundary, so it does not decode and runs no instruction.
    program = compile_program(builtin_program("bb3"), RULESET_VI)
    world = init_world(RULESET_VI, {})
    assert world.at_boundary() and decode(world, program) is not None
    apply_command(world, PLAYER, Command(op="train_settler", city=0))
    assert not world.jobs and world.cities[0].training_cost is not None
    assert not world.at_boundary()
    assert decode(world, program) is None
    with pytest.raises(DecodeError, match="boundary"):
        execute_instruction(world, program, index=1)


def test_a_city_below_its_cap_holds_the_boundary_back(monkeypatch):
    # Once an extension's Settler has founded city 1, no unit is busy and no
    # city trains, but the new city holds fewer Citizens than its cap: the
    # world is not at an instruction boundary until it has grown, so it
    # does not decode. Each event turn of the extension is looked at.
    program = compile_program(builtin_program("bb3"), RULESET_VI)
    world = init_world(RULESET_VI, {})
    world.units[TAPE_WORKER] = 1
    turn, seen = controller.advance_turn, []

    def looked_at(world):
        turn(world)
        city = world.cities.get(1)
        if city is not None and city.citizens < city.growth_cap:
            seen.append((dict(world.jobs), world.at_boundary(), decode(world, program)))
        return world

    monkeypatch.setattr(controller, "advance_turn", looked_at)
    extend_tape(world, "R", _blank_record())
    assert seen and all(view == ({}, False, None) for view in seen)
    assert world.at_boundary() and decode(world, program) is not None


def test_execute_halt_entry_with_write_applies_then_stops():
    spec = TMSpec(
        states=("a",),
        alphabet=("0", "1"),
        blank="0",
        input_alphabet=("1",),
        initial="a",
        halting=(),
        transitions={("a", "0"): HaltAction(write="1")},
    )
    program = compile_program(spec, RULESET_BE)
    world = init_world(RULESET_BE, {})
    record = execute_instruction(world, program, index=1)
    assert record.halted
    assert world.symbol_at(0) == "road"
    assert world.units[TAPE_WORKER] == 0


def test_rover_shadows_worker():
    spec = builtin_program("bb3")
    program = compile_program(spec, RULESET_BE)
    world = init_world(RULESET_BE, {})
    execute_instruction(world, program, index=1)
    assert world.units["rover"] == world.units[TAPE_WORKER] == 1


def test_drive_guard_raises_package_error(monkeypatch):
    # A schedule that never converges is reported inside the package's error
    # tree, so the CLI prints one JSON error line instead of a traceback.
    monkeypatch.setattr(controller, "_DRIVE_GUARD", 5)
    world = init_world(RULESET_BE, {})
    lanes = [(TAPE_WORKER, [Command(op="move", to=1)], lambda w: False)]
    with pytest.raises(CivUtmError, match="converge"):
        controller._drive(world, lanes)
    assert world.turn == 5


@pytest.mark.parametrize(
    "name,ruleset,max_instructions,turns",
    [
        ("rogozhin_24_2", RULESET_VI, 80, 6440),
        ("bb3", RULESET_BE, 100, 30),
        ("bb3", RULESET_V, 100, 24),
        ("bb3", RULESET_VI, 100, 162),
    ],
)
def test_turns_taken_grow_with_events(monkeypatch, name, ruleset, max_instructions, turns):
    # Quiet turns are skipped in closed form, so advance_turn runs only on
    # event turns: never more often than the log has entries. Playing every
    # turn took 6,440 calls against 761 entries for rogozhin_24_2.
    calls = 0
    advance_turn = controller.advance_turn

    def counted(world):
        nonlocal calls
        calls += 1
        return advance_turn(world)

    monkeypatch.setattr(controller, "advance_turn", counted)
    world = lockstep_verify(builtin_program(name), ruleset, {}, max_instructions).world
    assert world.turn == turns
    assert calls <= len(world.event_log)


def _blank_record() -> InstructionRecord:
    return InstructionRecord(index=1, state_index=0, read="unworked", macro=None)


def test_extend_tape_relocates_when_next_city_exists():
    # Crossing into an existing city is the same plain move as a move inside
    # a city: execute_instruction relocates the worker, extend_tape refuses.
    world = init_world(RULESET_VI, {3: "worked"})  # cities 0 and 1
    world.units[TAPE_WORKER] = 1
    before = len(world.cities)
    with pytest.raises(IllegalCommand, match="already exists"):
        extend_tape(world, "R", _blank_record())
    runner = TMSpec(
        states=("a",),
        alphabet=("0", "1"),
        blank="0",
        input_alphabet=("1",),
        initial="a",
        halting=(),
        transitions={("a", "0"): Transition("0", "R", "a"), ("a", "1"): Transition("1", "R", "a")},
    )
    record = execute_instruction(world, compile_program(runner, RULESET_VI), index=1)
    assert not record.extension
    assert record.turns == record.movement_turns == 2  # two hexes per tape cell
    assert world.units[TAPE_WORKER] == 2
    assert len(world.cities) == before
    assert SETTLER not in world.units


def test_extend_tape_settles_at_the_end():
    world = init_world(RULESET_VI, {})
    world.units[TAPE_WORKER] = 1
    record = _blank_record()
    extend_tape(world, "R", record)
    assert record.extension
    assert sorted(world.cities) == [0, 1]
    assert world.units[TAPE_WORKER] == 2
    assert world.cities[0].growth_cap == 3  # trained a settler, capped down
    assert world.cities[1].citizens == 4 and world.cities[1].growth_cap == 4
    assert record.tape_length_before == 2
    assert record.settler_cost_production == 80


def test_extend_tape_left_is_symmetric():
    world = init_world(RULESET_VI, {})
    record = _blank_record()
    extend_tape(world, "L", record)
    assert record.extension
    assert sorted(world.cities) == [-1, 0]
    assert world.units[TAPE_WORKER] == -1
    assert world.cities[-1].citizens == 4


def test_extend_tape_requires_crossing():
    world = init_world(RULESET_VI, {})
    with pytest.raises(IllegalCommand, match="boundary"):
        extend_tape(world, "R", _blank_record())  # head 0 -> 1 stays inside city 0


# The BE/V tape plans: every (read, write) pair of two symbols of BE or V has
# a row, and executing a macro that writes ``write`` over ``read`` issues the
# row's ops and writes ``write``.
_BE_V_WRITES = [
    (ruleset, read, write)
    for ruleset in (RULESET_BE, RULESET_V)
    for read in GAME_SYMBOLS[ruleset]
    for write in GAME_SYMBOLS[ruleset]
]


@pytest.mark.parametrize(("ruleset", "read", "write"), _BE_V_WRITES)
def test_tape_plan_writes_what_its_action_names(ruleset, read, write):
    action, worker_ops, rover_ops = tape_plan(ruleset, read, write)  # raises for a pair with no row
    macro = CommandMacro(tape_action=action, head_move=None, state_delta=0, read_symbol=read, write_symbol=write)
    world = init_world(ruleset, {} if read == "none" else {0: read})
    record = InstructionRecord(index=1, state_index=0, read=read, macro=macro)
    controller._execute_be_v(world, macro, 0, read, record)
    assert world.symbol_at(0) == write
    assert world.at_boundary()
    issued = [entry["command"] for entry in event_entries(world) if "completes_at" in entry["detail"]]
    assert issued == [*worker_ops, *rover_ops]
    if action == "leave":
        assert issued == []
    elif ruleset == RULESET_V and "none" not in (read, write):
        # Road over Railroad or Railroad over Road: the standing one is removed first.
        assert issued == ["remove_improvement", action]


# A macro's ``tape_action`` is a label that no reader trusts: each looks the
# action up from (read, write), so a program whose macros all carry another
# action's name runs, exports, renders and diffs as the compiled one does.
_ACTION_NAMES = sorted({row[0] for rows in controller._TAPE_ACTIONS.values() for row in rows.values()})


def _labelled(program, action):
    macros = {key: dataclasses.replace(macro, tape_action=action) for key, macro in program.macros.items()}
    return dataclasses.replace(program, macros=macros)


def _papers(program):
    """Every macro's paper command, in key order, each from its key's read."""
    return [macro_paper_command(macro, program.ruleset, read) for (_, read), macro in sorted(program.macros.items())]


def _what_a_run_shows(program):
    report = lockstep_verify(program.spec, program.ruleset, {}, 100, program=program)
    return report.to_json(), event_log_lines(report.world), program_to_json(program), _papers(program)


@pytest.mark.parametrize("action", _ACTION_NAMES)
@pytest.mark.parametrize("ruleset", [RULESET_BE, RULESET_V, RULESET_VI])
def test_a_macro_label_cannot_change_a_run(ruleset, action):
    program = compile_program(builtin_program("bb3"), ruleset)
    assert _what_a_run_shows(_labelled(program, action)) == _what_a_run_shows(program)


@pytest.mark.parametrize("action", _ACTION_NAMES)
@pytest.mark.parametrize("ruleset,name", sorted(FIXTURE_FOR))
def test_a_macro_label_cannot_change_table_fidelity(ruleset, name, action):
    program = _labelled(compile_program(builtin_program(name), ruleset), action)
    assert table_fidelity(program, load_fixture(FIXTURE_FOR[(ruleset, name)])) == []


def _paper_text_and_bound(program):
    return program_to_json(program), _papers(program), derived_instruction_bound(program)


@pytest.mark.parametrize("ruleset", [RULESET_BE, RULESET_V, RULESET_VI])
def test_a_macro_read_symbol_cannot_change_its_text_or_bound(ruleset):
    # A macro fires on its key's read: editing the copy it holds, to the next
    # symbol of the ruleset, leaves the paper text and the derived bound alone.
    program = compile_program(builtin_program("bb3"), ruleset)
    symbols = GAME_SYMBOLS[ruleset]
    macros = {
        (idx, read): dataclasses.replace(macro, read_symbol=symbols[(symbols.index(read) + 1) % len(symbols)])
        for (idx, read), macro in program.macros.items()
    }
    assert all(macro.read_symbol != read for (_, read), macro in macros.items())
    edited = dataclasses.replace(program, macros=macros)
    assert _paper_text_and_bound(edited) == _paper_text_and_bound(program)


@pytest.mark.parametrize("write", GAME_SYMBOLS[RULESET_BE])
def test_a_be_v_write_symbol_on_a_vi_world_is_refused(write):
    program = compile_program(builtin_program("bb3"), RULESET_VI)
    program.macros[(0, "unworked")] = dataclasses.replace(program.macros[(0, "unworked")], write_symbol=write)
    world = init_world(RULESET_VI, {})
    message = f"writing {write} over unworked is not a tape action of ruleset VI"
    with pytest.raises(IllegalCommand, match=re.escape(message)):
        execute_instruction(world, program, index=1)


@pytest.mark.parametrize("action", ["set_worked", "set_unworked"])
@pytest.mark.parametrize("ruleset", [RULESET_BE, RULESET_V])
def test_vi_tape_action_on_a_be_v_world_is_refused(ruleset, action):
    # A macro that writes what VI's ``action`` row writes: BE and V have no row for it.
    (write,) = [write for (_, write), row in controller._TAPE_ACTIONS[RULESET_VI].items() if row[0] == action]
    program = compile_program(builtin_program("bb3"), ruleset)
    program.macros[(0, "none")] = dataclasses.replace(program.macros[(0, "none")], write_symbol=write)
    world = init_world(ruleset, {})
    message = f"writing {write} over none is not a tape action of ruleset {ruleset}"
    with pytest.raises(IllegalCommand, match=re.escape(message)):
        execute_instruction(world, program, index=1)
