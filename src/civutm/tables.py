"""Shipped bijection-table fixtures and the row-by-row fidelity check.

The fixtures under ``civutm/fixtures/`` are structured transcriptions of the
three published tables (30 rows for BE, 30 for V, 48 for VI). Two rows carry
``paper_*`` fields preserving printed text that departs from the tables' own
conventions (a mislabeled third symbol, one miscounted work command); the
structured fields always hold the convention-consistent values, and the
notes say why.

``table_fidelity`` diffs a compiled program against a fixture and returns a
list of differences — empty means the compiler reproduces the table
row for row.
"""

from __future__ import annotations

import json
from importlib import resources

from .controller import PAPER_SYMBOL_NAMES, ControllerProgram, tape_plan, vi_state_delta
from .tm import HaltAction, Transition

# (ruleset, builtin machine) -> fixture name
FIXTURE_FOR = {
    ("BE", "rogozhin_10_3"): "civ_be_rogozhin_10_3",
    ("V", "rogozhin_10_3"): "civ_v_rogozhin_10_3",
    ("VI", "rogozhin_24_2"): "civ_vi_rogozhin_24_2",
}

def load_fixture(name: str) -> dict:
    if name not in FIXTURE_FOR.values():
        raise KeyError(f"unknown fixture {name!r}")
    text = resources.files("civutm").joinpath("fixtures", f"{name}.json").read_text()
    return json.loads(text)


def _expected_delta(ruleset: str, row: dict) -> int:
    if row.get("halt"):
        return 0
    if ruleset == "VI":
        work = row["work"]
        return vi_state_delta(work["kind"], work["count"])
    return row["state_build"]


def _tm_rule_matches(row_tm: dict, rule) -> bool:
    if row_tm.get("halt"):
        return isinstance(rule, HaltAction)
    return (
        isinstance(rule, Transition)
        and rule.write == row_tm["write"]
        and rule.move == row_tm["move"]
        and rule.next_state == row_tm["next"]
    )


def table_fidelity(program: ControllerProgram, fixture: dict) -> list[dict]:
    """Row-by-row comparison of a compiled program against a fixture.

    Checks tape action, head move, state delta, and halt flag of every macro,
    plus the machine-side column against the program's source transitions
    (guarding the fixture and the built-in transcription against each other).
    """
    ruleset = fixture["ruleset"]
    diffs: list[dict] = []
    if program.ruleset != ruleset:
        return [{"row": None, "field": "ruleset", "expected": ruleset, "actual": program.ruleset}]
    read_map = {paper: game for game, paper in PAPER_SYMBOL_NAMES[ruleset].items()}
    seen: set[tuple[int, str]] = set()

    for row in fixture["rows"]:
        key = (row["state"], read_map[row["read"]])
        label = f"state {row['state']} reading {row['read']}"
        seen.add(key)
        macro = program.macros.get(key)
        if macro is None:
            diffs.append({"row": label, "field": "macro", "expected": "present", "actual": "missing"})
            continue

        expected_halt = bool(row.get("halt"))
        if macro.halt != expected_halt:
            diffs.append({"row": label, "field": "halt", "expected": expected_halt, "actual": macro.halt})
            continue
        expected_tape = "leave" if expected_halt else row["tape"]
        action = tape_plan(ruleset, key[1], macro.write_symbol)[0]
        if action != expected_tape:
            diffs.append({"row": label, "field": "tape", "expected": expected_tape, "actual": action})
        expected_move = None if expected_halt else row["move"]
        if macro.head_move != expected_move:
            diffs.append({"row": label, "field": "move", "expected": expected_move, "actual": macro.head_move})
        expected_delta = _expected_delta(ruleset, row)
        if macro.state_delta != expected_delta:
            diffs.append({"row": label, "field": "state_delta", "expected": expected_delta, "actual": macro.state_delta})

        tm_row = row["tm"]
        rule = program.spec.transitions.get((tm_row["state"], tm_row["read"]))
        if rule is None or not _tm_rule_matches(tm_row, rule):
            diffs.append({"row": label, "field": "tm", "expected": tm_row, "actual": repr(rule)})

    for key in program.macros:
        if key not in seen:
            diffs.append({"row": f"state {key[0]} reading {key[1]}", "field": "row", "expected": "absent", "actual": "extra macro"})
    return diffs
