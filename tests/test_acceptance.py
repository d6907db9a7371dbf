"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
tolerance (row counts, instruction budgets, runtime ceilings, bound
formulae) is pinned here, not deferred.
"""

from __future__ import annotations

import dataclasses
import random
import time

from civutm.cli import main as cli_main
from civutm.codec import decode, encode_tape
from civutm.controller import compile_program
from civutm.harness import (
    EQUIVALENT,
    ORACLE_STUCK,
    STEP_LIMIT,
    lockstep_verify,
    overhead_report,
    random_tm,
)
from civutm.tables import FIXTURE_FOR, load_fixture, table_fidelity
from civutm.tm import TMConfig, builtin_program, count_symbol, initial_config, run
from civutm.world import RULESET_BE, RULESET_V, RULESET_VI, RULESETS, RulesetParams, init_world

from reference import tree_normal_form

NO_DIVERGENCE = (EQUIVALENT, STEP_LIMIT, ORACLE_STUCK)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_table_fidelity():
    started = time.monotonic()
    totals = {}
    for (ruleset, name), fixture_name in FIXTURE_FOR.items():
        program = compile_program(builtin_program(name), ruleset)
        fixture = load_fixture(fixture_name)
        diffs = table_fidelity(program, fixture)
        totals[fixture_name] = (len(fixture["rows"]), len(diffs))
        assert diffs == [], f"{fixture_name}: {diffs[:3]}"
    elapsed = time.monotonic() - started
    row_counts = {name: rows for name, (rows, _) in totals.items()}
    assert row_counts == {
        "civ_be_rogozhin_10_3": 30,
        "civ_v_rogozhin_10_3": 30,
        "civ_vi_rogozhin_24_2": 48,
    }
    _report(1, elapsed < 1.0, f"30+30+48 fixture rows, zero differences, {elapsed:.3f}s")


def test_criterion_2_bb3_be_equivalence():
    started = time.monotonic()
    spec = builtin_program("bb3")
    oracle = run(spec, initial_config(spec), 10_000)  # independent count of the 1-cells
    oracle_ones = count_symbol(oracle.trace[-1], "1")
    report = lockstep_verify(spec, RULESET_BE, {}, 1000)
    game_ones = count_symbol(report.final_config, "1")
    elapsed = time.monotonic() - started
    assert report.outcome == EQUIVALENT and report.halted
    assert game_ones == oracle_ones == 6
    _report(
        2,
        elapsed < 1.0,
        f"equivalent through halt; {game_ones} one-cells; oracle counts {report.oracle_steps} "
        f"instruction applications (the published figure text says 11; both recorded, not reconciled); "
        f"{elapsed:.3f}s",
    )


def test_criterion_3_cross_ruleset_bb3():
    started = time.monotonic()
    spec = builtin_program("bb3")
    rep_v = lockstep_verify(spec, RULESET_V, {}, 1000)
    rep_vi = lockstep_verify(spec, RULESET_VI, {}, 1000)
    elapsed = time.monotonic() - started
    assert rep_v.outcome == EQUIVALENT
    assert rep_vi.outcome == EQUIVALENT
    extensions = sum(1 for r in rep_vi.records if r.extension)
    assert extensions >= 1
    assert rep_vi.world.min_food_observed is not None and rep_vi.world.min_food_observed >= 0
    _report(
        3,
        elapsed < 5.0,
        f"V and VI equivalent; {extensions} tape extensions on VI; "
        f"minimum food stock {rep_vi.world.min_food_observed} >= 0 on every turn; {elapsed:.3f}s",
    )


ROGOZHIN_10_3_TAPES = [
    {},
    {0: "1"},
    {0: "b"},
    {1: "1"},
    {-1: "1"},
    {0: "1", 1: "b"},
    {0: "b", 2: "1"},
    {-2: "1", 0: "b", 1: "1"},
    {0: "1", 3: "1"},
    {-3: "b", -1: "1", 2: "b"},
]

ROGOZHIN_24_2_TAPES = [
    {},
    {0: "1"},
    {1: "1"},
    {-1: "1"},
    {0: "1", 1: "1"},
    {0: "1", 2: "1"},
    {-2: "1", 1: "1"},
    {2: "1", 3: "1"},
    {-1: "1", 0: "1", 1: "1"},
    {-3: "1", 2: "1"},
]


def test_criterion_4_rogozhin_program_equivalence():
    started = time.monotonic()
    r10 = builtin_program("rogozhin_10_3")
    runs = 0
    for tape in ROGOZHIN_10_3_TAPES:
        for ruleset in (RULESET_BE, RULESET_V):
            report = lockstep_verify(r10, ruleset, tape, 200)
            assert report.first_divergence is None, (ruleset, tape, report.first_divergence)
            assert report.outcome in NO_DIVERGENCE
            assert report.halted or report.instructions_verified == 200
            runs += 1
    r24 = builtin_program("rogozhin_24_2")
    for tape in ROGOZHIN_24_2_TAPES:
        report = lockstep_verify(r24, RULESET_VI, tape, 100)
        assert report.first_divergence is None, (tape, report.first_divergence)
        assert report.outcome in NO_DIVERGENCE
        assert report.halted or report.instructions_verified == 100
        runs += 1
    elapsed = time.monotonic() - started
    _report(4, elapsed < 60.0, f"{runs} runs over 10 fixed tapes per machine, zero divergences, {elapsed:.1f}s")


def test_criterion_5_random_tm_property_suite():
    started = time.monotonic()
    verified = 0
    for seed in range(1, 51):
        num_states = 2 + (seed % 7)  # |Q| between 2 and 8
        for ruleset, num_symbols in ((RULESET_BE, 3), (RULESET_V, 3), (RULESET_VI, 2)):
            spec = random_tm(seed, num_states, num_symbols)
            rng = random.Random(seed * 1000 + len(ruleset))
            symbols = [s for s in spec.alphabet if s != spec.blank]
            tape = {rng.randint(-4, 4): rng.choice(symbols) for _ in range(rng.randint(0, 4))}
            report = lockstep_verify(spec, ruleset, tape, 100)
            assert report.first_divergence is None, (seed, ruleset, report.first_divergence)
            assert report.outcome in NO_DIVERGENCE
            verified += 1
    elapsed = time.monotonic() - started
    _report(5, elapsed < 300.0, f"{verified} seeded machines (50 seeds x 3 rulesets), zero divergences, {elapsed:.1f}s")


def test_criterion_6_overhead_bounds():
    started = time.monotonic()
    # Each run is judged against the bounds of its own program's params.
    runs = ((builtin_program("bb3"), {}, 1000), (builtin_program("rogozhin_10_3"), {0: "1", 2: "b"}, 40))
    checked = []

    for t in range(1, 5):
        for m in range(1, 5):
            params = dataclasses.replace(RulesetParams.defaults(RULESET_BE), terrascape_build_turns=t, road_build_turns=m)
            for spec, tape, budget in runs:
                program = compile_program(spec, RULESET_BE, params)
                over = overhead_report(lockstep_verify(spec, RULESET_BE, tape, budget, program=program))
                assert over.paper_bound == 5 * t + m
                assert over.paper_bound_satisfied, (t, m)
                assert over.derived_bound_satisfied and over.max_observed <= over.derived_bound
                checked.append(("BE", t, m, over.max_observed, over.paper_bound))

    for b_rr in range(2, 5):
        params = dataclasses.replace(RulesetParams.defaults(RULESET_V), railroad_build_turns=b_rr)
        for spec, tape, budget in runs:
            program = compile_program(spec, RULESET_V, params)
            over = overhead_report(lockstep_verify(spec, RULESET_V, tape, budget, program=program))
            assert over.paper_bound == 4 * b_rr + 1
            assert over.paper_bound_satisfied, b_rr
            assert over.derived_bound_satisfied and over.max_observed <= over.derived_bound
            checked.append(("V", b_rr, None, over.max_observed, over.paper_bound))

    params = RulesetParams.defaults(RULESET_VI)
    r24 = builtin_program("rogozhin_24_2")
    over = overhead_report(lockstep_verify(r24, RULESET_VI, {0: "1"}, 60, program=compile_program(r24, RULESET_VI, params)))
    assert over.extensions, "the VI run must extend the tape"
    for ext in over.extensions:
        cost_turns = -(-ext["settler_cost_production"] // params.production_per_turn)
        assert ext["settler_cost_production"] == 15 * ext["tape_length_before"] + 50
        assert ext["paper_bound"] == 2 * params.city_growth_turns + cost_turns + params.settler_found_turns
        assert ext["counted_turns"] <= ext["paper_bound"], ext
        assert ext["itemized_excess"]["settler_movement"] == params.city_spacing
    assert over.paper_bound_satisfied

    elapsed = time.monotonic() - started
    _report(
        6,
        elapsed < 120.0,
        f"{len(checked) // len(runs)} BE/V parameter points, {len(runs)} machines each, within both bounds; "
        f"{len(over.extensions)} VI extensions within C+S(L)+3 with movement itemized; {elapsed:.1f}s",
    )


def test_criterion_7_roundtrip_and_determinism(tmp_path):
    started = time.monotonic()
    machines = {
        RULESET_BE: builtin_program("rogozhin_10_3"),
        RULESET_V: builtin_program("rogozhin_10_3"),
        RULESET_VI: builtin_program("rogozhin_24_2"),
    }
    roundtrips = 0
    for ruleset, spec in machines.items():
        program = compile_program(spec, ruleset)
        rng = random.Random(42)
        symbols = [s for s in spec.alphabet if s != spec.blank]
        for _ in range(100):
            tape = {rng.randint(-8, 8): rng.choice(symbols) for _ in range(rng.randint(0, 8))}
            world = init_world(ruleset, encode_tape(tape, program))
            assert decode(world, program) == TMConfig(state=spec.initial, tape=dict(sorted(tape.items())), head=0)
            roundtrips += 1

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli_main(["run", "bb3", "--ruleset", "VI", "--out", str(a)]) == 0
    assert cli_main(["run", "bb3", "--ruleset", "VI", "--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    elapsed = time.monotonic() - started
    _report(7, identical and roundtrips == 300, f"{roundtrips} codec round-trips; traces byte-identical; {elapsed:.1f}s")


# The busy-beaver values for 2 symbols (T. Rado, "On non-computable
# functions", 1962; S. Lin and T. Rado, "Computer studies of Turing machine
# problems", 1965): n states -> (most ones a halting machine leaves, most
# steps it runs), a halt step included.
BUSY_BEAVER = {2: (4, 6), 3: (6, 21)}


def test_busy_beaver_census_in_every_game():
    # Every 2-state machine in tree normal form and every halting 3-state
    # one runs in lockstep on each ruleset for S(n) + 1 instructions: no
    # halting machine is cut, and none diverges.
    started = time.monotonic()
    census = {}
    for num_states, (sigma, shift) in BUSY_BEAVER.items():
        budget = shift + 1
        machines = [(spec, halts) for spec, halts in tree_normal_form(num_states, budget) if halts or num_states == 2]
        oracle = [run(spec, initial_config(spec), budget) for spec, _ in machines]
        for ruleset in RULESETS:
            ones = steps = 0
            outcomes = {EQUIVALENT: 0, STEP_LIMIT: 0}
            for (spec, halts), result in zip(machines, oracle):
                report = lockstep_verify(spec, ruleset, {}, budget)
                assert report.outcome == (EQUIVALENT if halts else STEP_LIMIT), (spec.transitions, ruleset)
                assert report.final_config == result.trace[-1]
                outcomes[report.outcome] += 1
                if halts:
                    ones = max(ones, count_symbol(report.final_config, "1"))
                    steps = max(steps, report.oracle_steps)
            assert (ones, steps) == (sigma, shift)
            census[num_states, ruleset] = outcomes
    assert census == {
        **{(2, ruleset): {EQUIVALENT: 36, STEP_LIMIT: 260} for ruleset in RULESETS},
        **{(3, ruleset): {EQUIVALENT: 3542, STEP_LIMIT: 0} for ruleset in RULESETS},
    }
    print(f"\nbusy-beaver census: {census}; {time.monotonic() - started:.1f}s")
