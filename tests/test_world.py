"""World engine tests: legality, job timing, yields, VI city economy."""

from __future__ import annotations

import dataclasses
import random
import re

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from civutm import world as world_module
from civutm.errors import IllegalCommand, Starvation
from civutm.world import (
    PLAYER,
    ROVER,
    RULESET_BE,
    RULESET_V,
    RULESET_VI,
    SETTLER,
    STATE_WORKER,
    TAPE_WORKER,
    GAME_SYMBOLS,
    MAX_INITIAL_CITIES,
    RULESETS,
    Command,
    RulesetParams,
    advance_turn,
    apply_command,
    event_entries,
    event_log_lines,
    init_world,
    move_turns,
    skip_quiet_turns,
    world_snapshot,
    yields,
)

from reference import cut_floodplains_food


def test_params_require_railroad_cost_above_one():
    with pytest.raises(IllegalCommand, match="railroad_build_turns"):
        dataclasses.replace(RulesetParams.defaults(RULESET_V), railroad_build_turns=1)


def test_params_require_positive_durations():
    with pytest.raises(IllegalCommand):
        dataclasses.replace(RulesetParams.defaults(RULESET_BE), road_build_turns=0)


def test_params_fix_remove_or_repair_turns():
    # The published V bound 4*B_rr+1 assumes one-turn removals: with 4,
    # random_tm(28, 6, 3) on V took 16 turns against a bound of 9.
    for ruleset in (RULESET_BE, RULESET_V, RULESET_VI):
        with pytest.raises(IllegalCommand, match="remove_or_repair_turns"):
            dataclasses.replace(RulesetParams.defaults(ruleset), remove_or_repair_turns=4)


def test_params_vi_spacing_must_be_even():
    with pytest.raises(IllegalCommand, match="city_spacing"):
        dataclasses.replace(RulesetParams.defaults(RULESET_VI), city_spacing=3)


@pytest.mark.parametrize("name,value", [("floodplains_food", 0), ("city_base_food", 1), ("citizen_food_upkeep", 3)])
def test_params_vi_food_must_feed_every_city(name, value):
    # Each setting leaves some city of 2-4 Citizens short of its upkeep.
    with pytest.raises(IllegalCommand, match="starves"):
        dataclasses.replace(RulesetParams.defaults(RULESET_VI), **{name: value})


def test_params_are_frozen():
    # A food param changed after init_world would leave every city's cached
    # food delta stale, so no field can be assigned.
    params = init_world(RULESET_VI, {}).params
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.floodplains_food = 0
    assert params == RulesetParams.defaults(RULESET_VI)


def test_params_refuse_an_unknown_ruleset():
    with pytest.raises(IllegalCommand, match="unknown ruleset 'VII'"):
        RulesetParams.defaults("VII")
    with pytest.raises(IllegalCommand, match=re.escape("unknown ruleset ['BE']")):
        RulesetParams.defaults(["BE"])  # unhashable: no key of the shared defaults


@given(
    base=st.integers(0, 8),
    grassland=st.integers(0, 5),
    floodplains=st.integers(0, 5),
    upkeep=st.integers(0, 3),
    citizens=st.integers(2, 4),
    flags=st.tuples(st.booleans(), st.booleans()),
)
@settings(max_examples=300, deadline=None)
def test_validated_food_params_feed_every_city(base, grassland, floodplains, upkeep, citizens, flags):
    # Under params that can be made, a city of 2-4 Citizens feeds itself
    # whatever its two tape cells' worked flags, so a city at its cap that is
    # not training is never live: the turn loop's live-city skip relies on it.
    try:
        params = dataclasses.replace(
            RulesetParams.defaults(RULESET_VI),
            city_base_food=base,
            grassland_food=grassland,
            floodplains_food=floodplains,
            citizen_food_upkeep=upkeep,
        )
    except IllegalCommand:
        reject()
    world = init_world(RULESET_VI, {cell: "worked" for cell, worked in zip((0, 1), flags) if worked}, params)
    assert world._live == set()
    city = world.cities[0]
    city.citizens = city.growth_cap = citizens
    world_module._rederive(world, city)
    income, cost = world_module._city_food_delta(world, city)
    assert income >= cost
    assert city.training_cost is None and city.index not in world._live


def test_init_rejects_symbols_outside_ruleset():
    with pytest.raises(IllegalCommand):
        init_world(RULESET_BE, {0: "railroad"})
    with pytest.raises(IllegalCommand):
        init_world(RULESET_V, {0: "pillaged_road"})
    with pytest.raises(IllegalCommand):
        init_world(RULESET_VI, {0: "road"})


def test_init_be_empty_tape():
    world = init_world(RULESET_BE, {})
    assert world.state_count == 0
    assert yields(world)["culture"] == world.params.base_culture
    assert world.units == {TAPE_WORKER: 0, STATE_WORKER: 0, ROVER: 0}


def test_init_v_encodes_tape_directly():
    world = init_world(RULESET_V, {0: "road", 1: "railroad"})
    assert world.symbol_at(0) == "road"
    assert world.symbol_at(1) == "railroad"
    assert world.state_count == 0


def test_init_vi_single_city():
    world = init_world(RULESET_VI, {})
    assert sorted(world.cities) == [0]
    city = world.cities[0]
    assert city.citizens == 4 and city.growth_cap == 4
    assert city.tape_cells == (0, 1)
    assert world.symbol_at(0) == world.symbol_at(1) == "unworked"
    assert yields(world)["faith"] == world.params.base_faith


def test_init_vi_covers_initial_cells():
    world = init_world(RULESET_VI, {5: "worked"})
    assert sorted(world.cities) == [0, 1, 2]
    assert world.cities[0].growth_cap == 4  # left end
    assert world.cities[2].growth_cap == 4  # right end
    assert world.cities[1].growth_cap == 3  # interior
    assert world.symbol_at(5) == "worked"


def test_init_vi_limits_the_cities_a_tape_spans():
    # One City per index between the outermost cells: cell 10^8 would need
    # tens of GB before the first instruction.
    last = 2 * MAX_INITIAL_CITIES - 1  # the right cell of city MAX - 1
    assert len(init_world(RULESET_VI, {last: "worked"}).cities) == MAX_INITIAL_CITIES
    for cell in (last + 1, -2 * MAX_INITIAL_CITIES + 1):
        with pytest.raises(IllegalCommand, match=f"needs {MAX_INITIAL_CITIES + 1} cities"):
            init_world(RULESET_VI, {cell: "worked"})


def test_road_job_timing():
    # A road scheduled on turn 5 with M=1 stands on turn 6.
    world = init_world(RULESET_BE, {})
    for _ in range(5):
        advance_turn(world)
    apply_command(world, TAPE_WORKER, Command(op="build_road", cell=0))
    assert world.symbol_at(0) == "none"
    advance_turn(world)
    assert world.turn == 6
    assert world.symbol_at(0) == "road"


def test_build_road_on_road_is_illegal():
    world = init_world(RULESET_BE, {0: "road"})
    with pytest.raises(IllegalCommand, match="cannot build a road"):
        apply_command(world, TAPE_WORKER, Command(op="build_road", cell=0))


def test_v_build_over_railroad_requires_removal():
    world = init_world(RULESET_V, {0: "railroad"})
    with pytest.raises(IllegalCommand):
        apply_command(world, TAPE_WORKER, Command(op="build_road", cell=0))
    apply_command(world, TAPE_WORKER, Command(op="remove_improvement", cell=0))
    advance_turn(world)
    apply_command(world, TAPE_WORKER, Command(op="build_road", cell=0))
    advance_turn(world)
    assert world.symbol_at(0) == "road"


def test_pillage_is_rover_only_and_be_only():
    world = init_world(RULESET_BE, {0: "road"})
    with pytest.raises(IllegalCommand, match="rover"):
        apply_command(world, TAPE_WORKER, Command(op="pillage_road", cell=0))
    apply_command(world, ROVER, Command(op="pillage_road", cell=0))
    advance_turn(world)
    assert world.symbol_at(0) == "pillaged_road"
    world_v = init_world(RULESET_V, {0: "road"})
    with pytest.raises(IllegalCommand):
        apply_command(world_v, TAPE_WORKER, Command(op="pillage_road", cell=0))


def test_repair_restores_road():
    world = init_world(RULESET_BE, {0: "pillaged_road"})
    apply_command(world, TAPE_WORKER, Command(op="repair_road", cell=0))
    advance_turn(world)
    assert world.symbol_at(0) == "road"


def test_busy_unit_rejects_second_command():
    world = init_world(RULESET_BE, {})
    apply_command(world, TAPE_WORKER, Command(op="build_road", cell=0))
    with pytest.raises(IllegalCommand, match="busy"):
        apply_command(world, TAPE_WORKER, Command(op="move", to=1))


def test_state_region_build_and_remove():
    world = init_world(RULESET_BE, {})
    apply_command(world, STATE_WORKER, Command(op="build_state"))
    for _ in range(world.params.terrascape_build_turns):
        advance_turn(world)
    assert world.state_count == 1
    assert yields(world)["culture"] == world.params.base_culture + world.params.terrascape_culture
    apply_command(world, STATE_WORKER, Command(op="remove_state"))
    advance_turn(world)
    assert world.state_count == 0


def test_state_region_capacity():
    params = dataclasses.replace(RulesetParams.defaults(RULESET_BE), state_region_tiles=1)
    world = init_world(RULESET_BE, {}, params)
    apply_command(world, STATE_WORKER, Command(op="build_state"))
    for _ in range(params.terrascape_build_turns):
        advance_turn(world)
    with pytest.raises(IllegalCommand, match="full"):
        apply_command(world, STATE_WORKER, Command(op="build_state"))


def test_vi_citizen_reassignment_is_instant():
    world = init_world(RULESET_VI, {})
    base = yields(world)["faith"]
    apply_command(world, "player", Command(op="shift_monasteries", count=1))
    assert yields(world)["faith"] == base + world.params.monastery_faith
    assert world_snapshot(world)["state_region"]["farm_tiles"].count(True) == world.params.state_region_tiles - 1
    apply_command(world, "player", Command(op="set_worked", cell=0, worked=True))
    assert world.symbol_at(0) == "worked"


def test_vi_monastery_bounds():
    world = init_world(RULESET_VI, {})
    with pytest.raises(IllegalCommand):
        apply_command(world, "player", Command(op="shift_monasteries", count=-1))
    with pytest.raises(IllegalCommand):
        apply_command(world, "player", Command(op="shift_monasteries", count=world.params.state_region_tiles + 1))


def test_vi_food_balance_full_city():
    # Both tape cells worked by a 4-citizen city: the center and grassland
    # income alone exactly covers the upkeep (the published worst case); the
    # spare citizen's floodplain keeps the net positive.
    world = init_world(RULESET_VI, {0: "worked", 1: "worked"})
    p = world.params
    grass_income = p.city_base_food + 2 * p.grassland_food
    upkeep = p.citizen_food_upkeep * 4
    assert grass_income == upkeep == 8
    assert yields(world)["food"] == p.floodplains_food
    advance_turn(world)
    assert world.cities[0].food_stock == p.floodplains_food


def test_vi_food_never_negative_when_idle():
    world = init_world(RULESET_VI, {})
    for _ in range(50):
        advance_turn(world)
    assert world.cities[0].food_stock > 0
    assert world.min_food_observed >= 0


def test_vi_starvation_guard_raises():
    # Force a deficit (no floodplain fallback) to prove the guard trips; the
    # params refuse it when made, so it is forced into a built world.
    world = init_world(RULESET_VI, {})
    cut_floodplains_food(world)
    with pytest.raises(Starvation):
        for _ in range(10):
            advance_turn(world)


def test_vi_a_city_at_its_cap_starves_on_time():
    # Cities 0..4 sit at their caps, gaining food, until floodplains yield
    # nothing after turn 1: then city 0 loses 4 food a turn and the others 2.
    # City 0 starves on turn 3, before cities 1..4 collect that turn's food.
    world = init_world(RULESET_VI, {9: "worked"})

    def stocks():
        return [city.food_stock for _, city in sorted(world.cities.items())]

    advance_turn(world)
    assert stocks() == [5, 4, 4, 4, 4]
    cut_floodplains_food(world)
    skip_quiet_turns(world)
    assert (world.turn, stocks()) == (2, [1, 2, 2, 2, 2])
    with pytest.raises(Starvation, match="city 0 food stock fell to -3 on turn 3"):
        advance_turn(world)
    assert stocks() == [-3, 2, 2, 2, 2]
    assert world.min_food_observed == -3


def test_vi_food_follows_the_events_that_touch_a_city():
    # A 4-Citizen city yields 5 food a turn with both cells unworked (three
    # floodplains), 4 with one worked and 3 with both; a city founded on a
    # turn collects that turn's food.
    world = init_world(RULESET_VI, {})
    city = world.cities[0]
    advance_turn(world)
    assert (city.food_stock, yields(world)["food"]) == (5, 5)
    apply_command(world, "player", Command(op="set_worked", cell=0, worked=True))
    assert yields(world)["food"] == 4
    advance_turn(world)
    apply_command(world, "player", Command(op="set_worked", cell=1, worked=True))
    advance_turn(world)
    assert (city.food_stock, yields(world)["food"], world.min_food_observed) == (12, 3, 5)
    apply_command(world, "player", Command(op="train_settler", city=0))
    while SETTLER not in world.units:
        advance_turn(world)
    # Down to 3 Citizens, both on the tape: 4 + 2 * 2 - 3 * 2 = 2 a turn.
    assert (city.citizens, yields(world)["food"]) == (3, 2)
    apply_command(world, SETTLER, Command(op="found_city", city=1))
    for _ in range(world.params.settler_found_turns):
        advance_turn(world)
    new = world.cities[1]
    assert (new.citizens, new.food_stock) == (2, 3)  # 4 + 3 - 2 * 2 on its founding turn
    assert world.min_food_observed == 3
    for _ in range(world.params.city_growth_turns):
        advance_turn(world)
    # The third Citizen is born on the city's tenth turn, at 30 food (3 a
    # turn); from then on the city gains 4 a turn.
    assert (new.citizens, new.food_stock, yields(world)["food"]) == (3, 34, 2 + 4)


def test_vi_growth_clock_and_cap():
    # A founded city starts at 2 Citizens, below its cap of 4; its founding
    # turn is the first tick of its growth clock.
    world = init_world(RULESET_VI, {})
    p = world.params
    apply_command(world, "player", Command(op="train_settler", city=0))
    while SETTLER not in world.units:
        advance_turn(world)
    apply_command(world, SETTLER, Command(op="found_city", city=1))
    for _ in range(p.settler_found_turns - 1):
        advance_turn(world)
    assert 1 not in world.cities
    for _ in range(p.city_growth_turns):
        advance_turn(world)
    city = world.cities[1]
    assert city.citizens == 3
    for _ in range(p.city_growth_turns - 1):
        advance_turn(world)
    assert city.citizens == 3
    advance_turn(world)
    assert city.citizens == 4
    for _ in range(2 * p.city_growth_turns):
        advance_turn(world)
    assert city.citizens == 4  # holds at cap


def test_vi_settler_training_and_founding():
    world = init_world(RULESET_VI, {})
    p = world.params
    cost = p.settler_cost(2)
    apply_command(world, "player", Command(op="train_settler", city=0))
    turns = -(-cost // p.production_per_turn)
    for _ in range(turns):
        advance_turn(world)
    assert SETTLER in world.units
    city = world.cities[0]
    assert city.citizens == 3 and city.growth_cap == 3
    apply_command(world, SETTLER, Command(op="move", to=p.city_spacing))
    for _ in range(p.city_spacing):
        advance_turn(world)
    apply_command(world, SETTLER, Command(op="found_city", city=1))
    for _ in range(p.settler_found_turns):
        advance_turn(world)
    assert SETTLER not in world.units
    new = world.cities[1]
    assert new.citizens == 2 and new.growth_cap == 4
    for _ in range(2 * p.city_growth_turns):
        advance_turn(world)
    assert new.citizens == 4


def test_vi_settler_needs_two_citizens():
    world = init_world(RULESET_VI, {})
    world.cities[0].citizens = 1
    with pytest.raises(IllegalCommand, match="one-citizen"):
        apply_command(world, "player", Command(op="train_settler", city=0))


def test_vi_found_city_must_extend_contiguously():
    world = init_world(RULESET_VI, {})
    world.units[SETTLER] = 0
    with pytest.raises(IllegalCommand, match="contiguously"):
        apply_command(world, SETTLER, Command(op="found_city", city=5))


def test_vi_set_worked_needs_free_citizen():
    world = init_world(RULESET_VI, {})
    world.cities[0].citizens = 2  # center + one worker
    apply_command(world, "player", Command(op="set_worked", cell=0, worked=True))
    with pytest.raises(IllegalCommand, match="free citizen"):
        apply_command(world, "player", Command(op="set_worked", cell=1, worked=True))


def _scripted_run(seed: int):
    rng = random.Random(seed)
    world = init_world(RULESET_BE, {})
    for _ in range(40):
        roll = rng.random()
        try:
            if roll < 0.3:
                apply_command(world, STATE_WORKER, Command(op="build_state"))
            elif roll < 0.5:
                apply_command(world, STATE_WORKER, Command(op="remove_state"))
            elif roll < 0.7:
                cell = rng.randint(-2, 2)
                apply_command(world, TAPE_WORKER, Command(op="build_road", cell=cell))
            else:
                apply_command(world, ROVER, Command(op="pillage_road", cell=rng.randint(-2, 2)))
        except IllegalCommand:
            pass
        advance_turn(world)
    return world


def test_determinism_identical_histories():
    a, b = _scripted_run(7), _scripted_run(7)
    assert a.event_log == b.event_log
    assert world_snapshot(a) == world_snapshot(b)


def test_yield_linearity_and_legality_closure():
    for seed in range(5):
        world = _scripted_run(seed)
        assert yields(world)["culture"] - world.params.base_culture == (
            world.params.terrascape_culture * world.state_count
        )
        for _, symbol in world.tape.items():
            assert symbol in GAME_SYMBOLS[RULESET_BE]


def test_snapshot_and_event_log_are_versioned():
    world = init_world(RULESET_V, {0: "road"})
    snap = world_snapshot(world)
    assert snap["format_version"] == 1
    assert snap["tape"]["0"]["improvement"] == "road"
    lines = event_log_lines(world)
    assert '"format_version": 1' in lines[0]


def test_state_region_is_built_by_the_state_worker_only():
    # Two units building the last free tile at once would overfill the region.
    for ruleset in (RULESET_BE, RULESET_V):
        world = init_world(ruleset, {})
        for op in ("build_state", "remove_state"):
            with pytest.raises(IllegalCommand, match="only the state_worker"):
                apply_command(world, TAPE_WORKER, Command(op=op))


def test_busy_unit_is_a_key_of_the_jobs_table():
    world = init_world(RULESET_BE, {})
    apply_command(world, TAPE_WORKER, Command(op="build_road", cell=3))
    assert list(world.jobs) == [TAPE_WORKER] and not world.at_boundary()
    assert world_snapshot(world)["units"][TAPE_WORKER]["job"] == {"op": "build_road", "cell": 3}
    advance_turn(world)
    assert world.jobs == {} and world.at_boundary()
    done = list(event_entries(world))[-1]
    assert (done["command"], done["detail"]) == ("build_road_done", {"op": "build_road", "cell": 3})


def test_jobs_complete_in_unit_id_order():
    # Issued tape worker first, both done on turn 1: the rover completes first.
    world = init_world(RULESET_BE, {1: "road"})
    apply_command(world, TAPE_WORKER, Command(op="build_road", cell=2))
    apply_command(world, ROVER, Command(op="pillage_road", cell=1))
    advance_turn(world)
    assert [(event["unit"], event["command"]) for event in list(event_entries(world))[-2:]] == [
        (ROVER, "pillage_road_done"),
        (TAPE_WORKER, "build_road_done"),
    ]


# Three jobs due on turn 1 on BE (a Terrascape built in one turn), issued
# tape worker first; a turn completes them in unit-id order.
_DUE_ON_TURN_ONE = (
    (TAPE_WORKER, Command(op="build_road", cell=2)),
    (STATE_WORKER, Command(op="build_state")),
    (ROVER, Command(op="pillage_road", cell=1)),
)


@pytest.mark.parametrize(
    "issued,completed",
    [
        (0, []),
        (1, [(TAPE_WORKER, "build_road_done", {"op": "build_road", "cell": 2})]),
        (
            3,
            [
                (ROVER, "pillage_road_done", {"op": "pillage_road", "cell": 1}),
                (STATE_WORKER, "build_state_done", {"op": "build_state"}),
                (TAPE_WORKER, "build_road_done", {"op": "build_road", "cell": 2}),
            ],
        ),
    ],
    ids=["none", "lone-job", "three-jobs"],
)
def test_advance_turn_completes_the_due_jobs_in_unit_id_order(issued, completed):
    params = dataclasses.replace(RulesetParams.defaults(RULESET_BE), terrascape_build_turns=1)
    world = init_world(RULESET_BE, {1: "road"}, params)
    for unit, command in _DUE_ON_TURN_ONE[:issued]:
        apply_command(world, unit, command)
    logged = len(world.event_log)
    advance_turn(world)
    entries = list(event_entries(world))[logged:]
    assert [(e["turn"], e["unit"], e["command"], e["detail"]) for e in entries] == [(1, *c) for c in completed]
    assert world.turn == 1 and world.jobs == {}
    assert (world.symbol_at(1), world.symbol_at(2), world.state_count) == (
        ("pillaged_road", "road", 1) if issued == 3 else ("road", "road" if issued else "none", 0)
    )


@pytest.mark.parametrize("units", [(STATE_WORKER,), (TAPE_WORKER, STATE_WORKER)], ids=["lone-job", "two-jobs"])
def test_advance_turn_keeps_the_jobs_not_yet_due(units):
    # The state worker's Terrascape takes 3 turns; the tape worker's road 1.
    world = init_world(RULESET_BE, {})
    for unit in units:
        apply_command(world, unit, dict(_DUE_ON_TURN_ONE)[unit])
    advance_turn(world)
    assert list(world.jobs) == [STATE_WORKER] and world.jobs[STATE_WORKER].completes_at == 3
    assert world.state_count == 0 and world.symbol_at(2) == ("road" if TAPE_WORKER in units else "none")


@pytest.mark.parametrize("ruleset", [RULESET_BE, RULESET_V])
@pytest.mark.parametrize(
    "road_turns,state_turns,skipped_to",
    [(None, None, 2), (1, None, 2), (5, None, 6), (5, 3, 4), (None, 5, 6)],
    ids=["no-job", "due-next-turn", "due-in-5", "earliest-of-two", "state-job-in-5"],
)
def test_be_v_skip_stops_the_turn_before_the_next_job(ruleset, road_turns, state_turns, skipped_to):
    # From turn 2, a job issued for n turns completes on turn 2 + n: the skip
    # stops one turn short of the earliest one, and logs nothing.
    durations = {
        "road_build_turns": road_turns or 1,
        "terrascape_build_turns": state_turns or 3,  # BE's state job
        "railroad_build_turns": state_turns or 2,  # V's
    }
    world = init_world(ruleset, {}, dataclasses.replace(RulesetParams.defaults(ruleset), **durations))
    advance_turn(world)
    advance_turn(world)
    if road_turns:
        apply_command(world, TAPE_WORKER, Command(op="build_road", cell=0))
    if state_turns:
        apply_command(world, STATE_WORKER, Command(op="build_state"))
    log = list(world.event_log)
    skip_quiet_turns(world)
    assert world.turn == skipped_to and world.event_log == log
    if road_turns or state_turns:
        advance_turn(world)
        assert len(world.event_log) == len(log) + 1  # the earliest job completes on the next turn
        assert world.event_log[-1][0] == skipped_to + 1


@pytest.mark.parametrize(
    "ruleset,unit,cells,turns",
    [
        (RULESET_BE, TAPE_WORKER, 3, 3),
        (RULESET_V, TAPE_WORKER, 3, 3),
        (RULESET_VI, TAPE_WORKER, 3, 6),  # a VI tape cell spans city_spacing // 2 = 2 hexes
        (RULESET_VI, SETTLER, 4, 4),
    ],
)
def test_move_turns_at_the_default_params(ruleset, unit, cells, turns):
    assert move_turns(RulesetParams.defaults(ruleset), unit, cells) == turns


@given(
    ruleset=st.sampled_from(RULESETS),
    unit=st.sampled_from((TAPE_WORKER, STATE_WORKER, ROVER, SETTLER)),
    spacing=st.integers(-2, 12),
    per_hex=st.integers(-1, 6),
    cells=st.integers(0, 40),
)
@settings(max_examples=300, deadline=None)
def test_move_turns_is_cells_times_hexes_per_cell_times_turns_per_hex(ruleset, unit, spacing, per_hex, cells):
    try:
        params = dataclasses.replace(
            RulesetParams.defaults(ruleset), city_spacing=spacing, worker_move_turns_per_hex=per_hex
        )
    except IllegalCommand:
        reject()  # params that cannot be made
    hexes_per_cell = spacing // 2 if ruleset == RULESET_VI and unit == TAPE_WORKER else 1
    assert move_turns(params, unit, cells) == cells * hexes_per_cell * per_hex


def _settler_world():
    world = init_world(RULESET_VI, {})
    apply_command(world, PLAYER, Command(op="train_settler", city=0))
    while SETTLER not in world.units:
        advance_turn(world)
    return world


def _malformed(ruleset, unit, op, **fields):
    field, value = list(fields.items())[-1]  # the malformed one comes last
    return pytest.param(ruleset, unit, Command(op=op, **fields), id=f"{ruleset}-{unit}-{op}-{field}={value!r}")


# Commands whose target field is missing or not an integer (a bool is not
# one), or whose ``worked`` flag is not a bool, on each ruleset with the op.
_NOT_INTS = (None, 2.5, True)
_MALFORMED = [
    *(
        _malformed(ruleset, ROVER if op == "pillage_road" else TAPE_WORKER, op, cell=cell)
        for ruleset, ops in (
            (RULESET_BE, ("build_road", "remove_improvement", "pillage_road", "repair_road")),
            (RULESET_V, ("build_road", "build_railroad", "remove_improvement")),
        )
        for op in ops
        for cell in _NOT_INTS
    ),
    *(_malformed(ruleset, TAPE_WORKER, "move", to=to) for ruleset in RULESETS for to in _NOT_INTS),
    *(_malformed(RULESET_VI, SETTLER, "move", to=to) for to in _NOT_INTS),
    *(_malformed(RULESET_VI, PLAYER, "set_worked", worked=True, cell=cell) for cell in _NOT_INTS),
    *(_malformed(RULESET_VI, PLAYER, "set_worked", cell=1, worked=worked) for worked in (None, 1, "yes")),
    *(_malformed(RULESET_VI, PLAYER, "shift_monasteries", count=count) for count in _NOT_INTS),
    *(_malformed(RULESET_VI, PLAYER, "train_settler", city=city) for city in (*_NOT_INTS, 0.0)),
    *(_malformed(RULESET_VI, SETTLER, "found_city", city=city) for city in (*_NOT_INTS, 1.0)),
]


@pytest.mark.parametrize("ruleset,unit,command", _MALFORMED)
def test_command_without_a_target_fails_closed(ruleset, unit, command):
    world = _settler_world() if unit == SETTLER else init_world(ruleset, {})
    log, snapshot = list(world.event_log), world_snapshot(world)
    with pytest.raises(IllegalCommand):
        apply_command(world, unit, command)
    assert world.event_log == log
    assert world_snapshot(world) == snapshot


# ---------------------------------------------------------------------------
# Legality closure as a stateful property
# ---------------------------------------------------------------------------

# The BE/V work ops; ``foreign`` issues the rest.
_WORK = (
    "build_road",
    "build_railroad",
    "remove_improvement",
    "pillage_road",
    "repair_road",
    "build_state",
    "remove_state",
    "move",
)
_TARGETS = st.one_of(st.integers(-3, 3), st.sampled_from((None, 2.5, True)))


class LegalityClosure(RuleBasedStateMachine):
    """Random commands, turns and quiet-turn skips on BE and V.

    The world stays legal after every step, a refused command changes
    nothing, and a twin world that gets the same commands but plays every
    skipped turn with ``advance_turn`` stays equal to it.
    """

    @initialize(
        ruleset=st.sampled_from((RULESET_BE, RULESET_V)),
        durations=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(2, 6), st.integers(1, 3)),
        tiles=st.integers(0, 3),
        tape=st.dictionaries(st.integers(-3, 3), st.integers(1, 2), max_size=4),
    )
    def start(self, ruleset, durations, tiles, tape):
        road, terrascape, railroad, move = durations
        tape = {cell: GAME_SYMBOLS[ruleset][symbol] for cell, symbol in tape.items()}
        params = dataclasses.replace(
            RulesetParams.defaults(ruleset),
            road_build_turns=road,
            terrascape_build_turns=terrascape,
            railroad_build_turns=railroad,
            worker_move_turns_per_hex=move,
            state_region_tiles=tiles,
        )
        self.world = init_world(ruleset, tape, params)
        self.twin = init_world(ruleset, tape, dataclasses.replace(params))

    @rule(
        unit=st.sampled_from((TAPE_WORKER, STATE_WORKER, ROVER)),
        op=st.sampled_from(_WORK),
        cell=_TARGETS,
        to=_TARGETS,
    )
    def work(self, unit, op, cell, to):
        self._issue(unit, Command(op=op, cell=cell, to=to))

    @rule(
        unit=st.sampled_from((TAPE_WORKER, STATE_WORKER, ROVER, SETTLER, PLAYER, "scout")),
        op=st.sampled_from(("set_worked", "shift_monasteries", "train_settler", "found_city", "dig")),
        cell=_TARGETS,
        count=st.integers(-2, 2),
        worked=st.sampled_from((None, False, True)),
    )
    def foreign(self, unit, op, cell, count, worked):
        """Ops of another ruleset, or none, and issuers without units."""
        self._issue(unit, Command(op=op, cell=cell, city=cell, count=count, worked=worked))

    def _issue(self, unit, command):
        refusals = []
        for world in (self.world, self.twin):
            log, snapshot = list(world.event_log), world_snapshot(world)
            try:
                apply_command(world, unit, command)
                refusals.append(None)
            except IllegalCommand as exc:
                assert world.event_log == log
                assert world_snapshot(world) == snapshot
                refusals.append(str(exc))
        assert refusals[0] == refusals[1]

    @rule()
    def turn(self):
        advance_turn(self.world)
        advance_turn(self.twin)

    @rule()
    def skip(self):
        before = self.world.turn
        skip_quiet_turns(self.world)
        for _ in range(self.world.turn - before):
            advance_turn(self.twin)

    @invariant()
    def legal(self):
        world = self.world
        assert set(world.jobs) <= set(world.units)
        assert all(job.completes_at >= world.turn for job in world.jobs.values())
        assert all(symbol in GAME_SYMBOLS[world.params.ruleset] for _, symbol in world.tape.items())
        assert all(type(cell) is int for cell, _ in world.tape.items())
        assert all(type(position) is int for position in world.units.values())
        assert 0 <= world.state_count <= world.params.state_region_tiles

    @invariant()
    def skipping_equals_playing(self):
        assert self.twin.event_log == self.world.event_log
        assert world_snapshot(self.twin) == world_snapshot(self.world)


TestLegalityClosure = pytest.mark.hypothesis(LegalityClosure.TestCase)
TestLegalityClosure.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
