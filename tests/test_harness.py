"""Harness tests: lockstep verification, overhead bounds, random machines."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import inspect
import json
import sys
import weakref

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from civutm import codec, controller, harness, tm
from civutm import world as world_module
from civutm.controller import compile_program, tape_plan
from civutm.harness import (
    DIVERGED,
    EQUIVALENT,
    ORACLE_STUCK,
    STEP_LIMIT,
    LockstepReport,
    _config_json,
    lockstep_verify,
    macro_turns,
    overhead_report,
    paper_extension_bound,
    paper_instruction_bound,
    random_tm,
)
from civutm.errors import CivUtmError, CompileError, IllegalCommand, MachineStuck, Starvation
from civutm.tm import (
    HaltAction,
    TMSpec,
    Transition,
    builtin_program,
    count_symbol,
    initial_config,
    validate_spec,
)
from civutm.world import (
    GAME_SYMBOLS,
    RULESET_BE,
    RULESET_V,
    RULESET_VI,
    RulesetParams,
    event_log_lines,
    init_world,
    world_snapshot,
    yields,
)

from reference import (
    EagerLog,
    Halted,
    check_vi_boundary,
    cut_floodplains_food,
    reference_step,
    run_instructions,
    with_eager_log,
    with_halt_writer,
)


def test_bb3_be_equivalent_through_halt():
    report = lockstep_verify(builtin_program("bb3"), RULESET_BE, {}, 100)
    assert report.outcome == EQUIVALENT
    assert report.halted
    assert report.instructions_verified == 13
    assert report.oracle_steps == 13
    assert count_symbol(report.final_config, "1") == 6


def test_corrupted_macro_diverges_at_instruction_one():
    spec = builtin_program("bb3")
    program = compile_program(spec, RULESET_BE)
    key = (0, "none")
    macro = program.macros[key]
    program.macros[key] = dataclasses.replace(macro, state_delta=macro.state_delta + 1)
    report = lockstep_verify(spec, RULESET_BE, {}, 100, program=program)
    assert report.outcome == DIVERGED
    assert report.first_divergence["instruction"] == 1


@pytest.mark.parametrize("ruleset", [RULESET_BE, RULESET_V, RULESET_VI])
@pytest.mark.parametrize("corruption", ["write_left_out", "head_move_flipped"])
def test_a_corrupted_macro_diverges_at_its_first_use(ruleset, corruption):
    # bb3's first instruction writes a 1 on cell 0 and moves right. With the
    # write left out (the macro writes the symbol it reads) the world writes
    # nothing, so only the oracle's cell shows the difference; with the move
    # flipped only the head differs.
    spec = builtin_program("bb3")
    program = compile_program(spec, ruleset)
    key = (0, program.symbol_of[spec.blank])
    change = {"write_symbol": key[1]} if corruption == "write_left_out" else {"head_move": "L"}
    program.macros[key] = dataclasses.replace(program.macros[key], **change)
    report = lockstep_verify(spec, ruleset, {}, 100, program=program)
    assert report.outcome == DIVERGED
    divergence = report.first_divergence
    assert divergence["instruction"] == 1
    assert (divergence["oracle"]["tape"], divergence["oracle"]["head"]) == ({"0": "1"}, 1)
    decoded = divergence["decoded"]
    assert (decoded["tape"], decoded["head"]) == (({}, 1) if corruption == "write_left_out" else ({"0": "1"}, -1))


def test_lockstep_vi_extends_and_keeps_food_safe():
    report = lockstep_verify(builtin_program("bb3"), RULESET_VI, {}, 100)
    assert report.outcome == EQUIVALENT
    assert sum(1 for r in report.records if r.extension) >= 1
    assert report.world.min_food_observed is not None and report.world.min_food_observed >= 0


def test_lockstep_nonhalting_hits_step_limit():
    report = lockstep_verify(builtin_program("rogozhin_10_3"), RULESET_BE, {}, 25)
    assert report.outcome == STEP_LIMIT
    assert report.instructions_verified == 25
    assert report.first_divergence is None


def _one_row_machine() -> TMSpec:
    """``a`` reading the blank writes 1, moves right and goes to ``b``, which has no rows."""
    return validate_spec(
        TMSpec(
            states=("a", "b"),
            alphabet=("0", "1"),
            blank="0",
            input_alphabet=("1",),
            initial="a",
            halting=(),
            transitions={("a", "0"): Transition("1", "R", "b")},
        )
    )


def test_lockstep_stuck_on_both_sides():
    report = lockstep_verify(_one_row_machine(), RULESET_BE, {}, 10)
    assert report.outcome == ORACLE_STUCK
    assert report.first_divergence is None
    assert report.instructions_verified == 1


# The verdicts of one side alone: a world that is wrong before the first
# instruction, and a program that covers fewer or more pairs than its machine.
_START = {"state": "q0", "head": 0, "tape": {}}


@pytest.mark.parametrize("ruleset", [RULESET_BE, RULESET_V, RULESET_VI])
@pytest.mark.parametrize("change", ["cell", "job"])
def test_a_world_changed_before_the_first_boundary_diverges_at_instruction_zero(ruleset, change):
    spec = builtin_program("bb3")
    program = compile_program(spec, ruleset)
    report, boundaries = harness.lockstep(program, {}, 100)
    if change == "cell":
        report.world.tape[3] = program.symbol_of["1"]
    else:  # a pending job: the world is not at a boundary
        world_module.apply_command(report.world, world_module.TAPE_WORKER, world_module.Command(op="move", to=1))
    assert list(boundaries) == []
    assert (report.outcome, report.instructions_verified, report.records) == (DIVERGED, 0, [])
    decoded = {**_START, "tape": {"3": "1"}} if change == "cell" else "mid-instruction"
    assert report.first_divergence == {"instruction": 0, "oracle": _START, "decoded": decoded}


@pytest.mark.parametrize("ruleset", [RULESET_BE, RULESET_V, RULESET_VI])
def test_a_macro_removed_leaves_the_game_stuck_where_the_oracle_runs(ruleset):
    spec = builtin_program("bb3")
    program = compile_program(spec, ruleset)
    del program.macros[(0, program.symbol_of["0"])]
    report = lockstep_verify(spec, ruleset, {}, 100, program=program)
    assert (report.outcome, report.instructions_verified, report.oracle_steps) == (DIVERGED, 0, 1)
    oracle = {"state": "q1", "head": 1, "tape": {"0": "1"}}
    assert report.first_divergence == {"instruction": 1, "oracle": oracle, "decoded": "stuck"}


@pytest.mark.parametrize("ruleset", [RULESET_BE, RULESET_V, RULESET_VI])
def test_a_macro_added_runs_the_game_where_the_oracle_is_stuck(ruleset):
    # State b has no rows; the added macro moves right and changes nothing else.
    spec = _one_row_machine()
    program = compile_program(spec, ruleset)
    blank = program.symbol_of["0"]
    first = program.macros[(0, blank)]
    program.macros[(1, blank)] = dataclasses.replace(first, state_delta=0, write_symbol=blank)
    report = lockstep_verify(spec, ruleset, {}, 10, program=program)
    assert (report.outcome, report.instructions_verified, len(report.records)) == (DIVERGED, 1, 1)
    assert report.first_divergence == {"instruction": 2, "oracle": "stuck", "decoded": "ran"}


# A run is described once, by its program: lockstep takes the program and
# no params, and builds its world with the program's; lockstep_verify refuses
# a program of another machine or ruleset before any world is built.


def test_lockstep_takes_its_params_from_the_program():
    assert list(inspect.signature(harness.lockstep).parameters) == ["program", "initial_tape", "max_instructions"]
    assert list(inspect.signature(lockstep_verify).parameters) == [
        "spec",
        "ruleset",
        "initial_tape",
        "max_instructions",
        "program",
    ]
    spec = builtin_program("bb3")
    params = dataclasses.replace(RulesetParams.defaults(RULESET_BE), road_build_turns=5)
    program = compile_program(spec, RULESET_BE, params)
    report = lockstep_verify(builtin_program("bb3"), RULESET_BE, {}, 100, program=program)  # an equal machine
    assert report.outcome == EQUIVALENT
    assert report.program is program and report.world.params is params
    assert report.world.turn > lockstep_verify(spec, RULESET_BE, {}, 100).world.turn


def _no_world(*args, **kwargs):
    raise AssertionError("a world was built")


@pytest.mark.parametrize("ruleset,compiled_for", [(RULESET_V, RULESET_BE), (RULESET_BE, RULESET_V), (RULESET_VI, RULESET_BE)])
def test_a_program_for_another_ruleset_is_refused(monkeypatch, ruleset, compiled_for):
    spec = builtin_program("bb3")
    program = compile_program(spec, compiled_for)
    monkeypatch.setattr(harness, "init_world", _no_world)
    with pytest.raises(CompileError, match=f"not compiled from this machine for ruleset {ruleset}"):
        lockstep_verify(spec, ruleset, {}, 100, program=program)


def test_a_program_of_another_machine_is_refused(monkeypatch):
    # A program compiled under other params cannot reach the run either: the
    # params that compile_program refuses for rogozhin_10_3 (10 states need 9
    # state-region tiles) can only come in on a program of another machine.
    r10 = builtin_program("rogozhin_10_3")
    small = dataclasses.replace(RulesetParams.defaults(RULESET_BE), state_region_tiles=3)
    with pytest.raises(CompileError, match="state region of at least 9 tiles"):
        compile_program(r10, RULESET_BE, small)
    program = compile_program(builtin_program("bb3"), RULESET_BE, small)
    monkeypatch.setattr(harness, "init_world", _no_world)
    with pytest.raises(CompileError, match="not compiled from this machine for ruleset BE"):
        lockstep_verify(r10, RULESET_BE, {0: "1", 2: "b"}, 200, program=program)


def test_halting_state_transition_coincides():
    spec = validate_spec(
        TMSpec(
            states=("a", "h"),
            alphabet=("0", "1"),
            blank="0",
            input_alphabet=("1",),
            initial="a",
            halting=("h",),
            transitions={("a", "0"): Transition("1", "R", "h")},
        )
    )
    for ruleset in (RULESET_BE, RULESET_V, RULESET_VI):
        report = lockstep_verify(spec, ruleset, {}, 10)
        assert report.outcome == EQUIVALENT
        assert report.halted
        assert report.final_config.state == "h"


def test_paper_bounds_formulae():
    be = dataclasses.replace(RulesetParams.defaults(RULESET_BE), terrascape_build_turns=3, road_build_turns=1)
    assert paper_instruction_bound(be) == 16
    v = dataclasses.replace(RulesetParams.defaults(RULESET_V), railroad_build_turns=2)
    assert paper_instruction_bound(v) == 9
    vi = RulesetParams.defaults(RULESET_VI)
    assert paper_instruction_bound(vi) is None
    assert paper_extension_bound(vi, settler_cost_turns=16) == 2 * vi.city_growth_turns + 16 + 3


def test_move_only_instruction_costs_movement_only():
    spec = builtin_program("bb3")
    report = lockstep_verify(spec, RULESET_BE, {}, 100)
    program = compile_program(spec, RULESET_BE)
    moves_only = [
        r
        for r in report.records
        if r.macro and r.macro.write_symbol == r.read and r.macro.state_delta == 0 and not r.halted
    ]
    assert moves_only
    for r in moves_only:
        assert r.turns == r.movement_turns


def test_overhead_report_within_bounds():
    spec = builtin_program("rogozhin_10_3")
    for ruleset in (RULESET_BE, RULESET_V):
        params = RulesetParams.defaults(ruleset)
        report = lockstep_verify(spec, ruleset, {0: "1", 2: "b"}, 60, program=compile_program(spec, ruleset, params))
        over = overhead_report(report)
        assert over["paper_bound_satisfied"]
        assert over["derived_bound_satisfied"]
        assert over["max_observed"] <= over["derived_bound"]
        assert len(over["per_instruction"]) == len(report.records)


def test_overhead_vi_extensions_meet_paper_bound():
    spec = builtin_program("bb3")
    params = RulesetParams.defaults(RULESET_VI)
    report = lockstep_verify(spec, RULESET_VI, {}, 100, program=compile_program(spec, RULESET_VI, params))
    over = overhead_report(report)
    assert over["extensions"]
    for ext in over["extensions"]:
        assert ext["counted_turns"] <= ext["paper_bound"]
        assert ext["itemized_excess"]["settler_movement"] == params.city_spacing
    assert over["paper_bound_satisfied"]


def _pushed(report: LockstepReport, record, **fields) -> LockstepReport:
    """A copy of ``report`` whose ``record`` is replaced by a copy with ``fields``."""
    records = [dataclasses.replace(r, **fields) if r is record else r for r in report.records]
    return dataclasses.replace(report, records=records)


@pytest.mark.parametrize("ruleset", [RULESET_BE, RULESET_V])
def test_overhead_report_flags_each_bound_a_record_exceeds(ruleset):
    report = lockstep_verify(builtin_program("bb3"), ruleset, {}, 100)
    within = overhead_report(report)
    paper, derived = within["paper_bound"], within["derived_bound"]
    assert (within["paper_bound_satisfied"], within["derived_bound_satisfied"], within["excesses"]) == (True, True, [])
    assert within["max_observed"] == derived < paper
    record = report.records[2]
    move = record.movement_turns
    assert move > 0

    # Past the derived bound alone.
    over = overhead_report(_pushed(report, record, turns=derived + 1))
    assert (over["paper_bound_satisfied"], over["derived_bound_satisfied"], over["excesses"]) == (True, False, [])
    assert over["max_observed"] == derived + 1

    # Past the paper bound only by the movement it does not count: an
    # itemized excess, and the paper bound still holds.
    excess = {"instruction": 3, "turns": paper + move, "paper_bound": paper, "itemized_excess": {"movement": move}}
    over = overhead_report(_pushed(report, record, turns=paper + move))
    assert (over["paper_bound_satisfied"], over["derived_bound_satisfied"], over["excesses"]) == (True, False, [excess])

    # One turn more, and the counted turns exceed the paper bound too.
    over = overhead_report(_pushed(report, record, turns=paper + move + 1))
    assert (over["paper_bound_satisfied"], over["derived_bound_satisfied"]) == (False, False)
    assert over["excesses"] == [{**excess, "turns": paper + move + 1}]
    assert over["per_instruction"][2] == {"instruction": 3, "turns": paper + move + 1, "movement_turns": move, "extension": False}


def test_overhead_report_flags_a_vi_extension_and_a_move_past_their_bounds():
    report = lockstep_verify(builtin_program("bb3"), RULESET_VI, {}, 100)
    assert overhead_report(report)["paper_bound_satisfied"] and overhead_report(report)["derived_bound_satisfied"]
    extension = next(r for r in report.records if r.extension)
    bound = paper_extension_bound(report.program.params, extension.settler_cost_turns)
    itemized = extension.movement_turns + extension.pre_train_wait

    # An extension whose counted turns exceed C+S(L)+3 fails both bounds.
    over = overhead_report(_pushed(report, extension, turns=bound + itemized + 1))
    assert (over["paper_bound_satisfied"], over["derived_bound_satisfied"]) == (False, False)
    [entry] = [e for e in over["extensions"] if e["instruction"] == extension.index]
    assert (entry["counted_turns"], entry["paper_bound"]) == (bound + 1, bound)
    assert over["excesses"] == []

    # A plain move that takes a turn beyond its movement fails the derived
    # bound alone: VI's published bound is per extension.
    move = next(r for r in report.records if not r.extension and not r.halted)
    over = overhead_report(_pushed(report, move, turns=move.movement_turns + 1))
    assert (over["paper_bound_satisfied"], over["derived_bound_satisfied"]) == (True, False)
    assert all(e["counted_turns"] <= e["paper_bound"] for e in over["extensions"])


def test_random_tm_reproducible_and_valid():
    a = random_tm(1, 3, 2)
    b = random_tm(1, 3, 2)
    assert a == b
    spec = random_tm(2, 8, 3)
    validate_spec(spec)
    assert spec.blank == "0"
    assert len(spec.halting) == 1
    working = [s for s in spec.states if s not in spec.halting]
    assert len(spec.transitions) == len(working) * len(spec.alphabet)
    assert any(
        isinstance(rule, Transition) and rule.next_state in spec.halting for rule in spec.transitions.values()
    )


def test_random_tm_bounds():
    with pytest.raises(ValueError):
        random_tm(1, 0, 2)
    with pytest.raises(ValueError):
        random_tm(1, 3, 4)


@pytest.mark.parametrize("seed", range(1, 11))
def test_random_machines_never_diverge(seed):
    for ruleset, symbols in ((RULESET_BE, 3), (RULESET_V, 3), (RULESET_VI, 2)):
        spec = random_tm(seed, 2 + seed % 7, symbols)
        report = lockstep_verify(spec, ruleset, {}, 100)
        assert report.first_divergence is None
        assert report.outcome in (EQUIVALENT, STEP_LIMIT, ORACLE_STUCK)


@settings(max_examples=25, deadline=None)
@given(
    base=st.integers(0, 6),
    grassland=st.integers(0, 4),
    floodplains=st.integers(0, 4),
    upkeep=st.integers(1, 3),
)
def test_vi_food_params_that_validate_never_starve(base, grassland, floodplains, upkeep):
    food = dict(city_base_food=base, grassland_food=grassland, floodplains_food=floodplains, citizen_food_upkeep=upkeep)
    try:
        params = dataclasses.replace(RulesetParams.defaults(RULESET_VI), **food)
    except IllegalCommand:
        return
    # 30 instructions found 15 cities, so cities pass through 2, 3 and 4
    # Citizens; Starvation would propagate out of lockstep_verify.
    spec = builtin_program("rogozhin_24_2")
    report = lockstep_verify(spec, RULESET_VI, {}, 30, program=compile_program(spec, RULESET_VI, params))
    assert report.first_divergence is None
    assert report.world.min_food_observed >= 0


def test_report_json_is_deterministic():
    spec = builtin_program("bb3")
    a = lockstep_verify(spec, RULESET_V, {}, 100).to_json()
    b = lockstep_verify(spec, RULESET_V, {}, 100).to_json()
    assert a == b


# Pinned output digests: any change to event order, turn counts, world state,
# report fields or instruction records changes one of these. Re-pin only for
# a change that is meant to alter outputs.
GOLDEN_DIGESTS = {
    ("bb3", RULESET_BE, 100): "b64e04b2e8fc4e83eb7221172be0bf4d65e054084145044aac10df093088cbed",
    ("bb3", RULESET_V, 100): "3813ec89f7f5bd945ad49ddf6cb67e154be2d7e05cd597f0377d68f0bbe48b4a",
    ("bb3", RULESET_VI, 100): "d40ab05814aaddbfbe495bb7bf11ac462e043ae7ae04359e0ad3b910dd9a7bf6",
    ("rogozhin_24_2", RULESET_VI, 30): "19c80a7dd97b1f364e41478d7479f9378611c3a885dc5a58c3bdf65ab66f67ad",
    # 101 cities, all but the two newest at their cap with fixed food.
    ("rogozhin_24_2", RULESET_VI, 200): "cc854fa71379aafc9bd6210e8a144181f235651df6b062fdd5a88c0456839462",
    # random_tm(seed, 3 + seed % 4, 3): between them these four machines build
    # railroads, pillage, repair and remove-then-build, covering all six BE
    # and all six V (tape action, read) pairs.
    ("random:1", RULESET_BE, 100): "f6be55a9c3e8818e4332ce1b7dc26db0156d2dfd188e54ae4c470629ee3f89a8",
    ("random:6", RULESET_BE, 100): "74cc4a07dd2e6c46a498fbc95cbc2259cbaa8392807e67fc49acdf592cc1f93a",
    ("random:9", RULESET_BE, 100): "7fa8d679ffea532bf279ba69a647e522428da650690aea19a348911d34c760e0",
    ("random:11", RULESET_BE, 100): "452b5c1d4821e75b560151677564a52a33cc43604aec9863658ea969de5b6b7a",
    ("random:1", RULESET_V, 100): "c3e4243340b7f40f228ca843f4cbcdebad98710a3d4a70f7d0e40d2ffd2ed168",
    ("random:6", RULESET_V, 100): "c304abf974d3ea87bea817bdc8b36766ed587362bea01c3b27a9a43ffa060540",
    ("random:9", RULESET_V, 100): "c8be70e962d8b5093780e2e4fe51c37916822eb44caed4f81cfbd85b2fa682d1",
    ("random:11", RULESET_V, 100): "e34d8eb9d2b19b3a92901d00f71e248c9f750eff454c4d1dcaf592bc5e27f691",
}


# Non-default params under which events share turns or sit far apart: growth
# and training finishing together, zero-turn founding on a two-hex spacing,
# and long BE/V jobs. The skip over quiet turns rewrites exactly these paths.
GOLDEN_PARAM_DIGESTS = {
    ("rogozhin_24_2", RULESET_VI, 40, (("city_growth_turns", 1), ("production_per_turn", 40))): (
        "728e156efb7ed1c472d16313eda0c525dee78ec6ecf2cd62cdc6b54624fcce8c"
    ),
    (
        "rogozhin_24_2",
        RULESET_VI,
        40,
        (("city_growth_turns", 7), ("production_per_turn", 3), ("settler_found_turns", 0), ("city_spacing", 2)),
    ): "e5c0bac596d00483ac413c154b44320532624959888817de7d1a4c9137b94cd3",
    ("random:6", RULESET_BE, 100, (("road_build_turns", 5), ("terrascape_build_turns", 4))): (
        "956afb4929476d6c3471a8868efb26bfaa2a2ebb216567f64170c915bf73562c"
    ),
    ("random:6", RULESET_V, 100, (("road_build_turns", 5), ("railroad_build_turns", 7))): (
        "ce83688d8dc37549a5fa22457e9149c5d6393d6306e0242ff191c1eda9e1fecb"
    ),
}


# BE/V runs where units wait on each other, pinned on the scheduler that
# re-scanned every unit until nothing more issued: under these params the BE
# rover waits at its gate through several event turns of one-turn
# Terrascapes while a five-turn Road goes up, and the V tape worker queues a
# removal, a nine-turn Railroad and a move. Each key also names the tape
# action and read symbol the run must execute for the digest to mean that.
GOLDEN_WAIT_DIGESTS = {
    (
        "random:26",
        RULESET_BE,
        100,
        (("road_build_turns", 5), ("terrascape_build_turns", 1)),
        "build_road_then_pillage",
        "none",
    ): "e6d907c5a89c7db1b825ab814b4327ccc63db885a540d1232bfdf17e861efe8f",
    ("random:295", RULESET_V, 100, (("railroad_build_turns", 9),), "build_railroad", "road"): (
        "f44e56e7bad1944a224c4d5ee25a7b3b22a31aab9e437f79d81cfb40bb86945e"
    ),
    ("random:331", RULESET_V, 100, (("railroad_build_turns", 9),), "build_railroad", "road"): (
        "a2b6ffac2e2ad2db90b6f9e88b240002e1054d56c8c47b53727f5e4475bb8d01"
    ),
}


# VI runs of random_tm(seed, states, 2) from a tape of ones, where most
# cities are interior, at their cap and hold worked cells: (seed, states,
# instructions, cells holding "1", params overrides). The first tape spans
# 25 cities; the params of the second were drawn once from those
# ``RulesetParams`` accepts.
GOLDEN_VI_CITY_DIGESTS = {
    (6, 4, 80, (-9, -4, -3, 0, 5, 6, 11, 17, 22, 23, 30, 38), ()): (
        "ed879cc71146a21a55a351ab3e811f0b82d028ea898c878a11c55ac18c200f9e"
    ),
    (
        8,
        5,
        60,
        (-6, -1, 2, 9, 14),
        (
            ("city_growth_turns", 3),
            ("production_per_turn", 7),
            ("settler_found_turns", 1),
            ("city_spacing", 6),
            ("worker_move_turns_per_hex", 2),
            ("city_base_food", 5),
            ("grassland_food", 3),
            ("floodplains_food", 2),
            ("citizen_food_upkeep", 2),
        ),
    ): "a9fd4d2911b779e7261512b759ce70a84689d53d802ed3b48e591a563b5fb574",
}


def _golden_machine(name: str) -> TMSpec:
    kind, _, seed = name.partition(":")
    if kind == "random":
        return random_tm(int(seed), 3 + int(seed) % 4, 3)
    return builtin_program(name)


def _output_lines(report) -> list[str]:
    """The event log, snapshot, report JSON and records, one per line."""
    return [
        *event_log_lines(report.world),
        json.dumps(world_snapshot(report.world), sort_keys=True),
        json.dumps(report.to_json(), sort_keys=True),
        *(json.dumps(record, default=vars, sort_keys=True) for record in report.records),
    ]


def _output_digest(report) -> str:
    return hashlib.sha256("\n".join(_output_lines(report)).encode()).hexdigest()


@pytest.mark.parametrize("name,ruleset,max_instructions", sorted(GOLDEN_DIGESTS))
def test_golden_output_digest(name, ruleset, max_instructions):
    report = lockstep_verify(_golden_machine(name), ruleset, {}, max_instructions)
    assert _output_digest(report) == GOLDEN_DIGESTS[(name, ruleset, max_instructions)]


@pytest.mark.parametrize("name,ruleset,max_instructions,overrides", sorted(GOLDEN_PARAM_DIGESTS))
def test_golden_output_digest_with_params(name, ruleset, max_instructions, overrides):
    params = dataclasses.replace(RulesetParams.defaults(ruleset), **dict(overrides))
    spec = _golden_machine(name)
    report = lockstep_verify(spec, ruleset, {}, max_instructions, program=compile_program(spec, ruleset, params))
    assert _output_digest(report) == GOLDEN_PARAM_DIGESTS[(name, ruleset, max_instructions, overrides)]


@pytest.mark.parametrize("name,ruleset,max_instructions,overrides,action,read", sorted(GOLDEN_WAIT_DIGESTS))
def test_golden_output_digest_with_waiting_units(name, ruleset, max_instructions, overrides, action, read):
    params = dataclasses.replace(RulesetParams.defaults(ruleset), **dict(overrides))
    spec = _golden_machine(name)
    program = compile_program(spec, ruleset, params)
    macros = [m for m in program.macros.values() if tape_plan(ruleset, m.read_symbol, m.write_symbol)[0] == action]
    assert any(m.read_symbol == read and m.head_move for m in macros)
    report = lockstep_verify(spec, ruleset, {}, max_instructions, program=program)
    executed = [r.macro for r in report.records if r.macro in macros and r.read == read]
    assert any(m.head_move and m.state_delta for m in executed)
    assert _output_digest(report) == GOLDEN_WAIT_DIGESTS[(name, ruleset, max_instructions, overrides, action, read)]


@pytest.mark.parametrize("seed,states,max_instructions,ones,overrides", sorted(GOLDEN_VI_CITY_DIGESTS))
def test_golden_output_digest_with_many_cities(seed, states, max_instructions, ones, overrides):
    params = dataclasses.replace(RulesetParams.defaults(RULESET_VI), **dict(overrides))
    tape = {cell: "1" for cell in ones}
    spec = random_tm(seed, states, 2)
    report = lockstep_verify(spec, RULESET_VI, tape, max_instructions, program=compile_program(spec, RULESET_VI, params))
    assert _output_digest(report) == GOLDEN_VI_CITY_DIGESTS[(seed, states, max_instructions, ones, overrides)]


# ---------------------------------------------------------------------------
# Fast path against plain path: the controller skips quiet turns with
# world.skip_quiet_turns; with that replaced by the identity, every turn is
# played by its own advance_turn call.
# ---------------------------------------------------------------------------


def _fast_and_plain(run):
    """``run()`` with quiet turns skipped, then with every turn played."""
    fast = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(controller, "skip_quiet_turns", lambda world: world)
        plain = run()
    return fast, plain


def _outcome(spec, ruleset, max_instructions, params):
    """The run's outputs, or its error; every VI boundary is checked."""
    try:
        program = compile_program(spec, ruleset, params)
        report, boundaries = harness.lockstep(program, {}, max_instructions)
        for _ in boundaries:
            if ruleset == RULESET_VI:
                check_vi_boundary(report.world)
        return _output_lines(report)
    except CivUtmError as error:
        return repr(error)


_VI_FIELDS = {
    "city_growth_turns": st.integers(1, 12),
    "production_per_turn": st.integers(1, 60),
    "settler_found_turns": st.integers(0, 5),
    "city_spacing": st.sampled_from((2, 4, 6)),
    "worker_move_turns_per_hex": st.integers(1, 3),
    "city_base_food": st.integers(0, 6),
    "grassland_food": st.integers(0, 4),
    "floodplains_food": st.integers(0, 4),
    "citizen_food_upkeep": st.integers(1, 3),
}
_BE_V_FIELDS = {
    "road_build_turns": st.integers(1, 60),
    "terrascape_build_turns": st.integers(1, 60),
    "railroad_build_turns": st.integers(2, 60),
    "worker_move_turns_per_hex": st.integers(1, 60),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10**6), num_states=st.integers(2, 5))
def test_skipping_quiet_turns_changes_no_output(data, seed, num_states):
    ruleset = data.draw(st.sampled_from((RULESET_BE, RULESET_V, RULESET_VI)))
    fields = _VI_FIELDS if ruleset == RULESET_VI else _BE_V_FIELDS
    try:
        params = dataclasses.replace(RulesetParams.defaults(ruleset), **data.draw(st.fixed_dictionaries(fields)))
    except IllegalCommand:
        reject()
    spec = random_tm(seed, num_states, 2)
    max_instructions = 30 if ruleset == RULESET_VI else 100
    fast, plain = _fast_and_plain(lambda: _outcome(spec, ruleset, max_instructions, params))
    assert fast == plain


# The derived bound's fold against the world's clock: every executed BE/V
# instruction takes exactly ``macro_turns`` of its macro, except that a
# rover's pillage may overlap the head's move, so a BE macro that issues a
# rover op takes at most that.
def _check_turns_folded(spec, ruleset, params, tape) -> int:
    """Run ``spec`` and check each executed instruction's turns; returns how
    many were checked."""
    report = lockstep_verify(spec, ruleset, tape, 100, program=compile_program(spec, ruleset, params))
    assert report.first_divergence is None
    executed = [record for record in report.records if record.macro is not None]
    for record in executed:
        folded = macro_turns(record.macro, params, record.read)
        if ruleset == RULESET_BE and tape_plan(ruleset, record.read, record.macro.write_symbol)[2]:
            assert record.turns <= folded, record
        else:
            assert record.turns == folded, record
    return len(executed)


def _draw_halt_writer(data, spec: TMSpec) -> TMSpec:
    """``spec``, or ``spec`` with one rule swapped for a halt that writes:
    ``random_tm`` draws no halt rule, so a sweep of its machines would run
    no halting macro that writes."""
    if not data.draw(st.booleans()):
        return spec
    key = data.draw(st.sampled_from(sorted(spec.transitions)))
    return with_halt_writer(spec, key, data.draw(st.sampled_from(spec.alphabet)))


def _halt_writer(write: str) -> TMSpec:
    """One state that halts on every symbol, writing ``write``: its one
    instruction runs a tape action with no move for a pillage to overlap."""
    transitions = {("a", read): HaltAction(write) for read in ("0", "1", "b")}
    return validate_spec(TMSpec(("a",), ("0", "1", "b"), "0", ("1", "b"), "a", (), transitions))


_TURNS_RUNS = [
    pytest.param(builtin_program("bb3"), {}, id="bb3"),
    pytest.param(builtin_program("rogozhin_10_3"), {0: "1", 2: "b"}, id="rogozhin_10_3"),
    *(pytest.param(random_tm(seed, 3 + seed % 4, 3), {}, id=f"random:{seed}") for seed in range(4)),
    *(pytest.param(_halt_writer(write), {0: read}, id=f"halt:{read}->{write}") for read in "01b" for write in "01b"),
]
# Every BE/V duration off its default, and a move longer than a pillage.
_SLOW_BE_V = dict(road_build_turns=4, terrascape_build_turns=2, railroad_build_turns=5, worker_move_turns_per_hex=3)


@pytest.mark.parametrize("slow", [False, True], ids=["defaults", "slow"])
@pytest.mark.parametrize("ruleset", [RULESET_BE, RULESET_V])
@pytest.mark.parametrize(("spec", "tape"), _TURNS_RUNS)
def test_each_instruction_takes_the_turns_its_macro_folds_to(spec, tape, ruleset, slow):
    params = RulesetParams.defaults(ruleset)
    if slow:
        params = dataclasses.replace(params, **_SLOW_BE_V)
    assert _check_turns_folded(spec, ruleset, params, tape) >= 1


@settings(max_examples=100, deadline=None)
@given(
    ruleset=st.sampled_from((RULESET_BE, RULESET_V)),
    fields=st.fixed_dictionaries(_BE_V_FIELDS),
    name=st.sampled_from(("bb3", "rogozhin_10_3", "random")),
    seed=st.integers(0, 10**6),
    num_states=st.integers(2, 6),
    halt=st.none() | st.tuples(st.integers(0, 100), st.integers(0, 2)),
    cells=st.dictionaries(st.integers(-6, 6), st.integers(0, 2), max_size=5),
)
# A halting pillage on BE, whose turns only the rover's op accounts for:
# random_tm(0, 2, 3)'s q0 reads a "1" (a Road) on cell 0 and halts writing a
# "b" (a Pillaged Road). ``halt`` and ``cells`` index the sorted transition
# keys and the alphabet.
@example(ruleset=RULESET_BE, fields={}, name="random", seed=0, num_states=2, halt=(1, 2), cells={0: 1})
def test_each_instruction_takes_the_turns_its_macro_folds_to_under_any_params(
    ruleset, fields, name, seed, num_states, halt, cells
):
    try:
        params = dataclasses.replace(RulesetParams.defaults(ruleset), **fields)
    except IllegalCommand:
        reject()
    spec = random_tm(seed, num_states, 3) if name == "random" else builtin_program(name)
    if halt is not None:  # random_tm draws no halt rule, so none that writes
        keys = sorted(spec.transitions)
        spec = with_halt_writer(spec, keys[halt[0] % len(keys)], spec.alphabet[halt[1] % len(spec.alphabet)])
    tape = {cell: spec.alphabet[index % len(spec.alphabet)] for cell, index in cells.items()}
    _check_turns_folded(spec, ruleset, params, tape)


# The event log holds the logged commands, jobs and records and renders them
# on read; with an ``EagerLog`` patched in, each entry's dict is built when it
# is logged. The exports must agree, which also catches a logged object that
# is mutated later. Each built-in runs where it compiles under the default
# params: rogozhin_10_3 has more symbols than VI encodes, and rogozhin_24_2
# more states than a BE/V state region holds.
_EAGER_CASES = [
    *((name, ruleset) for name in ("bb3", "rogozhin_10_3") for ruleset in (RULESET_BE, RULESET_V)),
    *((name, RULESET_VI) for name in ("bb3", "rogozhin_24_2")),
    *((f"random:{seed}", ruleset) for seed in range(10) for ruleset in (RULESET_BE, RULESET_V, RULESET_VI)),
]


@pytest.mark.parametrize("name,ruleset", _EAGER_CASES)
def test_rendered_event_log_equals_the_eager_one(name, ruleset):
    _, _, seed = name.partition(":")
    vi = ruleset == RULESET_VI
    spec = random_tm(int(seed), 3 + int(seed) % 4, 2 if vi else 3) if seed else builtin_program(name)
    max_instructions = 40 if vi else 100

    def world():
        return lockstep_verify(spec, ruleset, {}, max_instructions).world

    rendered = event_log_lines(world())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "init_world", with_eager_log(harness.init_world))
        eager = world()
    assert type(eager.event_log) is EagerLog
    assert rendered == event_log_lines(eager)


def test_skipping_quiet_turns_keeps_the_starvation_turn():
    # Cutting floodplain food after 20 instructions makes city 10 starve at
    # the same turn, with the same partly advanced world, on both paths.
    def run():
        program = compile_program(builtin_program("rogozhin_24_2"), RULESET_VI)
        world = init_world(RULESET_VI, {})
        game = run_instructions(world, program, 100)
        for _ in range(20):
            next(game)
        cut_floodplains_food(world)
        with pytest.raises(Starvation) as raised:
            for _ in game:
                pass
        return str(raised.value), event_log_lines(world), world_snapshot(world), world.min_food_observed

    fast, plain = _fast_and_plain(run)
    assert fast[0] == "city 10 food stock fell to -2 on turn 744"
    assert fast == plain


# ---------------------------------------------------------------------------
# The VI food cache against the plain computation: each city's cached delta,
# the food ``yields`` sums from them, the live set, every stock evaluated at
# the turn, and the lowest stock observed.
# ---------------------------------------------------------------------------


def _check_food_cache(world) -> dict[int, int]:
    """Check the cache against fresh deltas, and return those."""
    deltas = {}
    for index, city in world.cities.items():
        worked = [world.tape.get(cell) for cell in city.tape_cells].count("worked")
        income, upkeep = world.params.food_balance(city.citizens, min(worked, city.citizens - 1))
        deltas[index] = income - upkeep
    assert {index: city._delta for index, city in world.cities.items()} == deltas
    assert min(deltas.values()) >= 0  # validated params feed every city
    assert sum(deltas.values()) == yields(world)["food"]
    assert world._live == {
        index
        for index, city in world.cities.items()
        if city.training_cost is not None or city.citizens < city.growth_cap or deltas[index] < 0
    }
    return deltas


def _checked(play):
    """``play`` (a turn or a skip), checking the cache before and after, and
    that each city's stock grew by its delta on every turn played."""

    def checked(world):
        deltas = _check_food_cache(world)
        stocks = {index: city.food_stock(world.turn) for index, city in world.cities.items()}
        turn = world.turn
        play(world)
        for index, stock in stocks.items():
            assert world.cities[index].food_stock(world.turn) == stock + deltas[index] * (world.turn - turn)
        _check_food_cache(world)
        return world

    return checked


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10**6), num_states=st.integers(2, 6), skip=st.booleans())
def test_the_food_cache_matches_a_fresh_computation(data, seed, num_states, skip):
    try:
        params = dataclasses.replace(RulesetParams.defaults(RULESET_VI), **data.draw(st.fixed_dictionaries(_VI_FIELDS)))
    except IllegalCommand:
        reject()
    spec = random_tm(seed, num_states, 2)
    tape = data.draw(st.dictionaries(st.integers(-40, 40), st.sampled_from(spec.alphabet), max_size=6))
    program = compile_program(spec, RULESET_VI, params)
    world = init_world(RULESET_VI, codec.encode_tape(tape, program), params)
    advance = _checked(controller.advance_turn)
    lowest = None

    def advance_observed(world):
        # With every turn played, the lowest stock observed is the least of
        # the stocks read after each turn.
        nonlocal lowest
        advance(world)
        stocks = [city.food_stock(world.turn) for city in world.cities.values()]
        lowest = min(stocks) if lowest is None else min(lowest, *stocks)
        assert world.min_food_observed == lowest
        return world

    with pytest.MonkeyPatch.context() as patch:
        if skip:
            patch.setattr(controller, "advance_turn", advance)
            patch.setattr(controller, "skip_quiet_turns", _checked(controller.skip_quiet_turns))
        else:
            patch.setattr(controller, "advance_turn", advance_observed)
            patch.setattr(controller, "skip_quiet_turns", lambda world: world)
        try:
            check_vi_boundary(world)
            for _ in run_instructions(world, program, 30):
                _check_food_cache(world)
                check_vi_boundary(world)
        except MachineStuck:
            pass


def test_city_visits_grow_with_events_not_with_cities(monkeypatch):
    # rogozhin_24_2 from a blank tape founds a city every second instruction,
    # and each event re-derives the food delta of the cities it touches:
    # 1,201 derivations at 400 instructions and 4,801 at 1,600. A walk over
    # every city per event made 363,202 and 5,772,802.
    calls = 0
    derive = world_module._rederive

    def counted(world, city):
        nonlocal calls
        calls += 1
        return derive(world, city)

    monkeypatch.setattr(world_module, "_rederive", counted)
    counts = []
    for max_instructions in (400, 1600):
        calls = 0
        report = lockstep_verify(builtin_program("rogozhin_24_2"), RULESET_VI, {}, max_instructions)
        assert report.instructions_verified == max_instructions
        assert len(report.world.cities) == max_instructions // 2 + 1
        counts.append(calls)
    assert counts[1] <= 4.5 * counts[0]


# ---------------------------------------------------------------------------
# Adversarial VI walkers: targeted shapes the random sweep rarely produces.
# ---------------------------------------------------------------------------


def _walker(rows, states, halting=()):
    transitions = {(s, r): Transition(w, m, n) for (s, r, w, m, n) in rows}
    return validate_spec(
        TMSpec(
            states=states,
            alphabet=("0", "1"),
            blank="0",
            input_alphabet=("1",),
            initial=states[0],
            halting=halting,
            transitions=transitions,
        )
    )


def test_vi_boundary_oscillator():
    # Ping-pongs across the city-0/city-1 cell boundary every instruction.
    osc = _walker(
        [("a", "0", "1", "R", "b"), ("a", "1", "1", "R", "b"), ("b", "0", "1", "L", "a"), ("b", "1", "1", "L", "a")],
        states=("a", "b"),
    )
    report = lockstep_verify(osc, RULESET_VI, {0: "1", 1: "1", 2: "1", 3: "1"}, 60)
    assert report.first_divergence is None
    assert report.instructions_verified == 60
    assert report.world.min_food_observed >= 0


def test_vi_zigzag_extends_both_directions():
    # Net-zero zigzag: three cells left, three right, repeatedly. The initial
    # city ends up interior on its left side while still the right end.
    rows = []
    for i, (mv, nxt) in enumerate([("L", "l2"), ("L", "l3"), ("L", "r1"), ("R", "r2"), ("R", "r3"), ("R", "l1")]):
        state = ["l1", "l2", "l3", "r1", "r2", "r3"][i]
        rows += [(state, "0", "1", mv, nxt), (state, "1", "1", mv, nxt)]
    zig = _walker(rows, states=("l1", "l2", "l3", "r1", "r2", "r3"))
    report = lockstep_verify(zig, RULESET_VI, {}, 120)
    assert report.first_divergence is None
    assert sorted(report.world.cities) == [-2, -1, 0]
    assert report.world.cities[-2].growth_cap == 4  # the left end keeps its marker
    assert report.world.cities[-1].growth_cap == 3
    assert report.world.min_food_observed >= 0


def test_vi_deep_left_runner():
    # Every instruction is a leftward extension once past the first city.
    runner = _walker([("a", "0", "1", "L", "a"), ("a", "1", "1", "L", "a")], states=("a",))
    report = lockstep_verify(runner, RULESET_VI, {}, 80)
    assert report.first_divergence is None
    assert report.final_config.head == -80
    assert min(report.world.cities) == -40
    assert report.world.min_food_observed >= 0


def test_vi_double_training_initial_city():
    # BB-3 makes city 0 train settlers in both directions; its population
    # dips to 2 mid-extension and must recover by the boundary.
    report = lockstep_verify(builtin_program("bb3"), RULESET_VI, {}, 100)
    assert report.outcome == EQUIVALENT
    city0 = report.world.cities[0]
    assert city0.growth_cap == 3
    assert city0.citizens == 3
    assert sorted(report.world.cities) == [-2, -1, 0, 1]


@pytest.mark.parametrize("direction", ["L", "R"])
def test_vi_boundary_invariant_holds_past_a_long_initial_tape(direction):
    # The tape spans 61 cities founded up front; the runner crosses 30 of
    # them and then extends the strip every second instruction. No extension
    # waits before its Settler is trained: the end city is at its cap.
    runner = _walker([("a", "0", "1", direction, "a"), ("a", "1", "1", direction, "a")], states=("a",))
    tape = {cell: "1" for cell in (-60, -37, -12, 5, 28, 60)}
    report, boundaries = harness.lockstep(compile_program(runner, RULESET_VI), tape, 160)
    assert len(report.world.cities) == 61
    for _ in boundaries:
        check_vi_boundary(report.world)
    extensions = [record for record in report.records if record.extension]
    assert (report.outcome, len(extensions), len(report.world.cities)) == (STEP_LIMIT, 50, 111)
    assert all(record.pre_train_wait == 0 for record in extensions)


def test_vi_halt_reached_through_an_extension():
    spec = _walker(
        [("a", "0", "1", "R", "b"), ("a", "1", "1", "R", "b"), ("b", "0", "1", "R", "h"), ("b", "1", "1", "R", "h")],
        states=("a", "b", "h"),
        halting=("h",),
    )
    report = lockstep_verify(spec, RULESET_VI, {}, 20)
    assert report.outcome == EQUIVALENT
    assert report.final_config.head == 2
    assert report.final_config.state == "h"


# ---------------------------------------------------------------------------
# Written-cell checks against the plain path: lockstep_verify decodes the
# world in full only at the start and the end and checks the written cells
# in between; the reference below decodes it in full after every instruction
# and steps the copying oracle, ``reference_step``.
# ---------------------------------------------------------------------------


def _reference_verify(spec, ruleset, initial_tape, max_instructions, program):
    """Lockstep verification with a full decode after every instruction."""
    world = init_world(ruleset, codec.encode_tape(initial_tape, program), program.params)
    report = LockstepReport(program=program, outcome=STEP_LIMIT, instructions_verified=0, world=world)

    def diverged(index, oracle_side, game_side):
        report.outcome = DIVERGED
        report.first_divergence = {"instruction": index, "oracle": oracle_side, "decoded": game_side}
        return report

    oracle = initial_config(spec, initial_tape)
    decoded = codec.decode(world, program)
    if decoded != oracle:
        return diverged(0, _config_json(oracle), _config_json(decoded) if decoded else None)

    game = run_instructions(world, program, max_instructions)
    for index in range(1, max_instructions + 1):
        oracle_stuck = game_stuck = oracle_halted = False
        if oracle.state in spec.halting:
            oracle_halted = True
        else:
            try:
                next_oracle = reference_step(spec, oracle)
            except MachineStuck:
                oracle_stuck = True
            else:
                report.oracle_steps += 1
                oracle_halted = isinstance(next_oracle, Halted)
                oracle = next_oracle.config if oracle_halted else next_oracle
        try:
            record = next(game)
            decoded = codec.decode(world, program)
        except MachineStuck:
            game_stuck = True
        else:
            if ruleset == RULESET_VI:
                check_vi_boundary(world)
        if oracle_stuck and game_stuck:
            report.outcome = ORACLE_STUCK
            break
        if oracle_stuck or game_stuck:
            diverged(index, "stuck" if oracle_stuck else _config_json(oracle), "stuck" if game_stuck else "ran")
            break
        report.records.append(record)
        if decoded != oracle:
            diverged(index, _config_json(oracle), _config_json(decoded) if decoded else "mid-instruction")
            break
        if oracle_halted != record.halted:
            diverged(index, "halted" if oracle_halted else "running", "halted" if record.halted else "running")
            break
        report.instructions_verified = index
        if oracle_halted:
            report.outcome = EQUIVALENT
            break
    report.final_config = oracle
    return report


def _verdict(verify, spec, ruleset, tape, max_instructions, program):
    """Every output of one verification, or the exception it raised."""
    try:
        return _output_lines(verify(spec, ruleset, tape, max_instructions, program=program))
    except Exception as error:  # noqa: BLE001 - the type and message are compared
        return type(error).__name__, str(error)


def _corrupt(data, program):
    """Change one field of one drawn macro."""
    key = data.draw(st.sampled_from(sorted(program.macros)))
    macro = program.macros[key]
    name = data.draw(st.sampled_from(("state_delta", "head_move", "write_symbol", "halt")))
    if name == "state_delta":
        value = macro.state_delta + data.draw(st.sampled_from((-1, 1)))
    elif name == "head_move":
        value = {"L": "R", "R": "L", None: "R"}[macro.head_move]
    elif name == "write_symbol":
        value = data.draw(st.sampled_from([sym for sym in GAME_SYMBOLS[program.ruleset] if sym != macro.write_symbol]))
    else:
        value = not macro.halt
    program.macros[key] = dataclasses.replace(macro, **{name: value})


@settings(max_examples=80, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10**6), num_states=st.integers(2, 6))
def test_written_cell_checks_agree_with_full_decodes(data, seed, num_states):
    ruleset = data.draw(st.sampled_from((RULESET_BE, RULESET_V, RULESET_VI)))
    spec = _draw_halt_writer(data, random_tm(seed, num_states, 2 if ruleset == RULESET_VI else 3))
    tape = data.draw(st.dictionaries(st.integers(-6, 6), st.sampled_from(spec.alphabet), max_size=5))
    program = compile_program(spec, ruleset)
    if data.draw(st.booleans()):
        _corrupt(data, program)
    max_instructions = 30 if ruleset == RULESET_VI else 100
    fast = _verdict(lockstep_verify, spec, ruleset, tape, max_instructions, program)
    assert fast == _verdict(_reference_verify, spec, ruleset, tape, max_instructions, program)


def _blank_walker(steps: int) -> TMSpec:
    """Walks right over blanks for ``steps`` instructions, writing nothing
    (identity writes compile to ``leave``), then halts."""
    states = tuple(f"q{i}" for i in range(steps)) + ("h",)
    rows = [(states[i], sym, sym, "R", states[i + 1]) for i in range(steps) for sym in ("0", "1")]
    return _walker(rows, states=states, halting=("h",))


def _set_among_rewrites(tape, sym, blank):
    """Rewrite cells -70 to -61 with the blank they hold, then set cell -60:
    the changed cell is one of many written, not the last one compared."""
    for cell in range(-70, -60):
        tape[cell] = blank
    tape[-60] = sym


# Each changes cell -60 (unwritten) or -50 (holds "1") through the tape's one
# write path; the walker's head visits cells 0 to 6 only, and it never writes.
TAPE_MUTATIONS = {
    "setitem": lambda tape, sym, blank: tape.__setitem__(-60, sym),
    "blank": lambda tape, sym, blank: tape.__setitem__(-50, blank),
    "setitem-among-rewrites": _set_among_rewrites,
}


def _corrupted_after(monkeypatch, instruction, mutate):
    """Apply ``mutate(tape, game symbol of "1", game blank)`` right after ``instruction``."""
    execute = harness.execute_instruction

    def execute_then_corrupt(world, program, index=0):
        record = execute(world, program, index=index)
        if index == instruction:
            mutate(world.tape, program.symbol_of["1"], program.symbol_of["0"])
        return record

    monkeypatch.setattr(harness, "execute_instruction", execute_then_corrupt)


@pytest.mark.parametrize("ruleset", [RULESET_BE, RULESET_V, RULESET_VI])
@pytest.mark.parametrize("mutation", sorted(TAPE_MUTATIONS))
def test_a_corrupted_unvisited_cell_diverges_at_once(monkeypatch, ruleset, mutation):
    spec, tape = _blank_walker(6), {-50: "1"}
    program = compile_program(spec, ruleset)
    _corrupted_after(monkeypatch, 3, TAPE_MUTATIONS[mutation])
    report = lockstep_verify(spec, ruleset, tape, 10, program=program)
    assert report.outcome == DIVERGED
    assert report.first_divergence["instruction"] == 3
    assert report.to_json() == _reference_verify(spec, ruleset, tape, 10, program).to_json()


@pytest.mark.parametrize("ruleset", [RULESET_BE, RULESET_V, RULESET_VI])
def test_an_unrecorded_write_fails_the_final_decode(monkeypatch, ruleset):
    # A write to the private cells dict bypasses Tape's record; the walker
    # would otherwise end equivalent, so the last full decode must refuse the
    # verdict.
    spec = _blank_walker(6)
    program = compile_program(spec, ruleset)
    _corrupted_after(monkeypatch, 3, lambda tape, sym, blank: tape._cells.__setitem__(-60, sym))
    assert _reference_verify(spec, ruleset, {}, 10, program).first_divergence["instruction"] == 3
    with pytest.raises(CivUtmError, match="verified at instruction 7: a tape cell changed without being recorded"):
        lockstep_verify(spec, ruleset, {}, 10, program=program)


@pytest.mark.parametrize("ruleset", [RULESET_BE, RULESET_V, RULESET_VI])
@pytest.mark.parametrize("symbol", ["1", "0"])
def test_an_unrecorded_write_to_the_oracles_cell_is_read_from_the_world(monkeypatch, ruleset, symbol):
    # bb3's first instruction writes "1" to cell 0, the oracle's cell; then
    # the tape's record is dropped and cell 0 set to `symbol` without one.
    # The oracle's cell is read from the world all the same: holding the
    # oracle's "1", the world equals the oracle everywhere and the run is
    # equivalent; holding the blank, it diverges at that instruction.
    spec = builtin_program("bb3")
    program = compile_program(spec, ruleset)

    def unrecorded(tape, one, blank):
        tape._cells[0] = program.symbol_of[symbol]
        tape._written.clear()

    _corrupted_after(monkeypatch, 1, unrecorded)
    report = lockstep_verify(spec, ruleset, {}, 20, program=program)
    if symbol == "1":
        assert (report.outcome, report.instructions_verified) == (EQUIVALENT, 13)
    else:
        assert (report.outcome, report.first_divergence["instruction"]) == (DIVERGED, 1)
        assert report.first_divergence["decoded"]["tape"] == {}


@pytest.mark.parametrize("ruleset", [RULESET_BE, RULESET_V])
def test_a_move_only_instruction_is_compared_on_state_and_head(ruleset):
    # bb3 state q0 reading a blank writes "1"; with the write made an identity
    # the first instruction writes no cell, and only moves the head and
    # changes the state.
    spec = builtin_program("bb3")
    first = spec.transitions[("q0", "0")]
    spec = dataclasses.replace(spec, transitions={**spec.transitions, ("q0", "0"): dataclasses.replace(first, write="0")})
    program = compile_program(spec, ruleset)
    key = (0, program.symbol_of["0"])
    assert program.macros[key].write_symbol == key[1]
    report, boundaries = harness.lockstep(program, {}, 1)
    next(boundaries)
    record, oracle, changed = next(boundaries)
    assert (record.index, changed) == (1, {})
    assert oracle.config() == codec.decode(report.world, program)
    assert (oracle.state, oracle.head) == (first.next_state, 1)
    assert program.state_index_of[oracle.state] == report.world.state_count == 1
    # Compiled one state too far, or moving the wrong way, the same
    # instruction diverges at once.
    for field, value in (("state_delta", program.macros[key].state_delta + 1), ("head_move", "L")):
        corrupted = compile_program(spec, ruleset)
        corrupted.macros[key] = dataclasses.replace(corrupted.macros[key], **{field: value})
        report = lockstep_verify(spec, ruleset, {}, 10, program=corrupted)
        assert (report.outcome, report.first_divergence["instruction"]) == (DIVERGED, 1)


def test_decodes_do_not_grow_with_instructions(monkeypatch):
    # The right-runner writes a new cell every instruction; the world is
    # decoded in full at the start and the end only (the per-instruction
    # decodes used to sort and rebuild the whole tape 1,001 times).
    calls = 0
    decode = codec.decode

    def counted(world, program):
        nonlocal calls
        calls += 1
        return decode(world, program)

    monkeypatch.setattr(codec, "decode", counted)
    runner = _walker([("a", "0", "1", "R", "a"), ("a", "1", "1", "R", "a")], states=("a",))
    report = lockstep_verify(runner, RULESET_BE, {}, 1000)
    assert report.outcome == STEP_LIMIT and report.instructions_verified == 1000
    assert calls == 2


# The Python-level calls (``sys.setprofile`` "call" events, generator
# resumptions included) that a 200-instruction BE run of the right-runner,
# an 80-instruction VI run of rogozhin_24_2 and a 200-instruction BE run of
# random_tm(144, 5, 3) make, each rounded up by 5 % from its count measured
# on Python 3.11.
CALLS_MEASURED = 6034  # 6,234 before one dispatch per command; 8,035 and 10,235 earlier
CALLS_BOUND = 6336
VI_CALLS_MEASURED = 4041  # 4,159 before a skip moved only the clock; 4,239, 5,160 and 6,803 earlier
VI_CALLS_BOUND = 4244
ROVER_CALLS_MEASURED = 8186  # 8,722 before one dispatch per command; 11,395 earlier
ROVER_CALLS_BOUND = 8596


def _calls_of_a_run(spec, ruleset, max_instructions) -> tuple[int, LockstepReport]:
    """The calls one ``lockstep_verify`` of a program compiled beforehand
    makes, and its report."""
    program = compile_program(spec, ruleset)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    # A collection would add the calls of whatever it finalizes (another
    # test's suspended generator, say) and of any gc callback: none runs.
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        report = lockstep_verify(spec, ruleset, {}, max_instructions, program=program)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert report.instructions_verified == max_instructions
    return calls, report


def test_an_instruction_makes_a_bounded_number_of_calls():
    # A deterministic cost guard, with no timing in it: each instruction plays
    # two event cycles (build the road, move), and a change that adds calls
    # per instruction or per event pushes the count past the bound.
    runner = _walker([("a", "0", "1", "R", "a"), ("a", "1", "1", "R", "a")], states=("a",))
    calls, _ = _calls_of_a_run(runner, RULESET_BE, 200)
    assert calls <= CALLS_BOUND, f"{calls} calls, against {CALLS_MEASURED} when the bound was set"


def test_a_vi_instruction_makes_a_bounded_number_of_calls():
    # The VI counterpart: rogozhin_24_2 from a blank tape founds a city every
    # second instruction, so the run plays 280 event cycles, most of them
    # inside a tape extension.
    calls, _ = _calls_of_a_run(builtin_program("rogozhin_24_2"), RULESET_VI, 80)
    assert calls <= VI_CALLS_BOUND, f"{calls} calls, against {VI_CALLS_MEASURED} when the bound was set"


def test_a_rover_and_state_instruction_makes_a_bounded_number_of_calls():
    # The right-runner never pillages and never builds state. In this run
    # the rover pillages 133 times, the tape worker repairs and builds roads
    # and the state worker builds and removes Terrascapes alongside.
    calls, report = _calls_of_a_run(random_tm(144, 5, 3), RULESET_BE, 200)
    ops = {command for _, _, command, _ in report.world.event_log}
    assert {"pillage_road", "repair_road", "build_road", "build_state", "remove_state"} <= ops
    assert calls <= ROVER_CALLS_BOUND, f"{calls} calls, against {ROVER_CALLS_MEASURED} when the bound was set"


def test_a_run_leaves_no_reference_cycle():
    # Nothing a VI world holds (its cities, jobs, log and tape) refers back
    # to it, so dropping the report frees the world at once, with the cycle
    # collector off.
    report = lockstep_verify(builtin_program("rogozhin_24_2"), RULESET_VI, {}, 20)
    assert len(report.world.cities) > 1
    world = weakref.ref(report.world)
    gc.disable()
    try:
        del report
        assert world() is None
    finally:
        gc.enable()


def test_the_oracle_steps_one_tape_in_place(monkeypatch):
    # The oracle's step used to copy its whole tape into a new configuration
    # (1,000 copies here, each as long as the tape); now one tape is updated
    # throughout, and configurations are built only at the start and the end.
    tapes, built = [], 0
    oracle_step, config_init = harness.step, tm.TMConfig.__init__

    def recorded(spec, machine):
        tapes.append(machine.tape)
        return oracle_step(spec, machine)

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        config_init(self, *args, **kwargs)

    monkeypatch.setattr(harness, "step", recorded)
    monkeypatch.setattr(tm.TMConfig, "__init__", counted)
    runner = _walker([("a", "0", "1", "R", "a"), ("a", "1", "1", "R", "a")], states=("a",))
    counts = []
    for max_instructions in (10, 1000):
        tapes.clear()
        built = 0
        report = lockstep_verify(runner, RULESET_BE, {}, max_instructions)
        assert report.instructions_verified == max_instructions and len(tapes) == max_instructions
        assert all(tape is tapes[0] for tape in tapes)
        counts.append(built)
    assert counts[0] == counts[1]


@pytest.mark.parametrize("ruleset", [RULESET_BE, RULESET_VI])
def test_a_negative_budget_is_refused(ruleset):
    with pytest.raises(ValueError, match="max_instructions must be >= 0"):
        lockstep_verify(builtin_program("bb3"), ruleset, {}, -1)
    with pytest.raises(ValueError, match="max_instructions must be >= 0"):
        harness.lockstep(compile_program(builtin_program("bb3"), ruleset), {}, -1)
