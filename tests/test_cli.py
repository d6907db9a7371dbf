"""CLI tests: exit statuses, trace determinism, fixture diffing, the demo."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from civutm import cli, codec, harness
from civutm.cli import main
from civutm.controller import compile_program
from civutm.errors import MachineStuck
from civutm.tm import TMSpec, Transition, builtin_program, validate_spec
from civutm.world import RULESET_BE, RULESET_V, RULESET_VI, RulesetParams, init_world, yields

from reference import check_vi_boundary, run_instructions, spec_to_json


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_run_bb3_be(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    status, out, _ = run_cli(capsys, "run", "bb3", "--ruleset", "BE", "--out", str(trace))
    assert status == 0
    summary = json.loads(out)
    assert summary["outcome"] == "halted"
    assert summary["instructions"] == 13
    assert list(summary["final_tape"].values()).count("1") == 6
    lines = trace.read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "trace"
    assert len(lines) == 15  # header + initial boundary + 13 instructions


def test_run_traces_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_cli(capsys, "run", "bb3", "--ruleset", "VI", "--out", str(a))
    run_cli(capsys, "run", "bb3", "--ruleset", "VI", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_run_bb3_vi_reports_extensions(capsys):
    status, out, _ = run_cli(capsys, "run", "bb3", "--ruleset", "VI")
    assert status == 0
    assert json.loads(out)["extension_events"] >= 1


def test_run_stuck_machine_status(tmp_path, capsys):
    spec = builtin_program("bb3")
    data = spec_to_json(spec)
    data["transitions"] = [r for r in data["transitions"] if not (r["state"] == "q1" and r["read"] == "0")]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(data))
    status, out, _ = run_cli(capsys, "run", str(path), "--ruleset", "BE")
    assert status == 3
    assert json.loads(out)["outcome"] == "stuck"


def test_run_step_limit_status(capsys):
    status, out, _ = run_cli(capsys, "run", "rogozhin_10_3", "--ruleset", "BE", "--max-instructions", "10")
    assert status == 4


def test_parse_error_status(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    status, _, err = run_cli(capsys, "run", str(bad), "--ruleset", "BE")
    assert status == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [("{path}",), ("bb3", "--tape", "{path}"), ("bb3", "--params", "{path}")])
def test_json_nested_past_the_parser_exits_two_with_one_json_line(tmp_path, capsys, argv):
    # The parser gives up with a RecursionError; exit 1 would read as a
    # divergence.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    status, out, err = run_cli(capsys, "run", *(arg.format(path=deep) for arg in argv), "--ruleset", "BE")
    assert (status, out) == (2, "")
    [line] = err.splitlines()
    assert "recursion" in json.loads(line)["error"]


@pytest.mark.parametrize("missing", ["state", "read", "write", "move", "next"])
def test_transition_missing_field_status(tmp_path, capsys, missing):
    data = spec_to_json(builtin_program("bb3"))
    del next(r for r in data["transitions"] if not r.get("halt"))[missing]
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(data))
    status, out, err = run_cli(capsys, "run", str(path), "--ruleset", "BE")
    assert status == 2
    assert out == ""
    [line] = err.splitlines()
    assert missing in json.loads(line)["error"]


def test_unknown_machine_status(capsys):
    status, _, err = run_cli(capsys, "run", "no_such_machine", "--ruleset", "BE")
    assert status == 2


def test_verify_bb3_all_rulesets(capsys):
    for ruleset in ("BE", "V", "VI"):
        status, out, _ = run_cli(capsys, "verify", "--builtin", "bb3", "--ruleset", ruleset)
        assert status == 0, out
        first = json.loads(out.splitlines()[0])
        assert first["lockstep"]["outcome"] == "equivalent"


def test_verify_with_seeds(capsys):
    status, out, _ = run_cli(
        capsys, "verify", "--builtin", "bb3", "--ruleset", "V", "--seeds", "1,2,3", "--max-instructions", "50"
    )
    assert status == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert sum(1 for entry in lines if "seed" in entry) == 3


def test_compile_diff_fixture_clean(capsys):
    status, out, _ = run_cli(capsys, "compile", "--builtin", "rogozhin_10_3", "--ruleset", "BE", "--diff-fixture")
    assert status == 0
    diff_line = json.loads(out.splitlines()[-1])
    assert diff_line["differences"] == []


def test_verify_reports_divergence_with_status_one(capsys, monkeypatch):
    import civutm.cli as cli_mod

    real = cli_mod.harness.lockstep_verify

    def corrupted(spec, ruleset, tape, max_instructions, program=None):
        report = real(spec, ruleset, tape, max_instructions, program)
        report.outcome = "diverged"
        report.first_divergence = {"instruction": 1}
        return report

    monkeypatch.setattr(cli_mod.harness, "lockstep_verify", corrupted)
    status, out, _ = run_cli(capsys, "verify", "--builtin", "bb3", "--ruleset", "BE")
    assert status == 1
    assert json.loads(out.splitlines()[0])["lockstep"]["first_divergence"]["instruction"] == 1


def test_compile_diff_reports_differences_with_status_one(capsys, monkeypatch):
    import civutm.cli as cli_mod

    fake = [{"row": "state 0 reading Road", "field": "move", "expected": "L", "actual": "R"}]
    monkeypatch.setattr(cli_mod.tables, "table_fidelity", lambda program, fixture: fake)
    status, out, _ = run_cli(capsys, "compile", "--builtin", "rogozhin_10_3", "--ruleset", "BE", "--diff-fixture")
    assert status == 1
    assert json.loads(out.splitlines()[-1])["differences"] == fake


def test_compile_diff_against_a_perturbed_fixture_exits_one(capsys, monkeypatch):
    load = cli.tables.load_fixture

    def perturbed(name):
        fixture = load(name)
        fixture["rows"][0]["move"] = "L"
        return fixture

    monkeypatch.setattr(cli.tables, "load_fixture", perturbed)
    status, out, _ = run_cli(capsys, "compile", "--builtin", "rogozhin_10_3", "--ruleset", "BE", "--diff-fixture")
    assert status == 1
    diff = {"row": "state 0 reading No Improvement", "field": "move", "expected": "L", "actual": "R"}
    assert json.loads(out.splitlines()[-1]) == {"fixture": "civ_be_rogozhin_10_3", "differences": [diff]}


def test_compile_region_bound_error(capsys):
    status, _, err = run_cli(capsys, "compile", "--builtin", "rogozhin_24_2", "--ruleset", "V")
    assert status == 2
    assert "state region" in json.loads(err.splitlines()[-1])["error"]


def test_compile_bb3_v_macro_count(tmp_path, capsys):
    out_file = tmp_path / "program.json"
    status, out, _ = run_cli(capsys, "compile", "bb3", "--ruleset", "V", "--out", str(out_file))
    assert status == 0
    assert json.loads(out)["macros"] == 6
    export = json.loads(out_file.read_text())
    assert len(export["macros"]) == 6


def test_params_file_roundtrip(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"terrascape_build_turns": 2}))
    status, out, _ = run_cli(capsys, "run", "bb3", "--ruleset", "BE", "--params", str(params))
    assert status == 0


@pytest.mark.parametrize("value", ["2", True, 1.5, None])
def test_params_file_rejects_non_integer(tmp_path, capsys, value):
    # 1.5 used to be accepted and made bb3 on BE take 34 turns instead of 30.
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"road_build_turns": value}))
    status, out, err = run_cli(capsys, "run", "bb3", "--ruleset", "BE", "--params", str(params))
    assert status == 2
    assert out == ""
    [line] = err.splitlines()
    assert "road_build_turns must be an integer" in json.loads(line)["error"]


@pytest.mark.parametrize(
    "ruleset,params,max_instructions,total_turns",
    [
        # Each wait is one skip and one event turn, however long: the growth
        # run used to play 10^12 turns one by one, and the road run used to
        # exit 2 when its 10^7-turn job outlasted the 10^6-turn schedule guard.
        ("VI", {"city_growth_turns": 10**12}, "20", 6_000_000_000_102),
        ("BE", {"road_build_turns": 10**7}, "100", 60_000_022),
    ],
)
def test_long_valid_durations_run(tmp_path, capsys, ruleset, params, max_instructions, total_turns):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    argv = ["run", "bb3", "--ruleset", ruleset, "--params", str(path), "--max-instructions", max_instructions]
    status, out, _ = run_cli(capsys, *argv)
    assert status == 0
    assert json.loads(out)["total_turns"] == total_turns


@pytest.mark.parametrize("ruleset,name", [("BE", "terrascape_culture"), ("VI", "monastery_faith")])
def test_zero_state_tile_yield_status(tmp_path, capsys, ruleset, name):
    # The games' construction reads the state from this yield, so params
    # that zero it are refused up front, with one JSON error line.
    params = tmp_path / "params.json"
    params.write_text(json.dumps({name: 0}))
    status, out, err = run_cli(capsys, "run", "bb3", "--ruleset", ruleset, "--params", str(params))
    assert status == 2
    assert out == ""
    [line] = err.splitlines()
    assert name in json.loads(line)["error"]


@pytest.mark.parametrize(
    "kind,field,value",
    [("machine", "states", 5), ("machine", "transitions", 7), ("machine", "blank", ["0"]), ("tape", "0", [1])],
)
def test_malformed_json_types_status(tmp_path, capsys, kind, field, value):
    # Each of these used to end in a TypeError traceback.
    machine = spec_to_json(builtin_program("bb3"))
    tape = {"0": "1"}
    (machine if kind == "machine" else tape)[field] = value
    (tmp_path / "machine.json").write_text(json.dumps(machine))
    (tmp_path / "tape.json").write_text(json.dumps(tape))
    argv = ["run", str(tmp_path / "machine.json"), "--tape", str(tmp_path / "tape.json")]
    status, out, err = run_cli(capsys, *argv)
    assert status == 2
    assert out == ""
    [line] = err.splitlines()
    assert "error" in json.loads(line)


def _bb3_json(**changes) -> dict:
    return {**spec_to_json(builtin_program("bb3")), **changes}


_BB3_ROWS = spec_to_json(builtin_program("bb3"))["transitions"]
_ROW = {"state": "q0", "read": "0", "write": "1", "move": "R", "next": "q1"}

# Malformed inputs, each refused with one JSON error line: (files to write
# and pass, the run's extra arguments, the error). ``None`` passes no machine.
MALFORMED_INPUTS = {
    "duplicate alphabet": ({"machine": _bb3_json(alphabet=["0", "1", "1"])}, (), "duplicate alphabet symbols"),
    "input symbol outside the alphabet": (
        {"machine": _bb3_json(input_alphabet=["2"])},
        (),
        "input symbol '2' not in alphabet",
    ),
    "transition from an unknown state": (
        {"machine": _bb3_json(transitions=[*_BB3_ROWS, {**_ROW, "state": "q9"}])},
        (),
        "transition from unknown state 'q9'",
    ),
    "halt write outside the alphabet": (
        {"machine": _bb3_json(transitions=[*_BB3_ROWS[:-1], {**_BB3_ROWS[-1], "write": "7"}])},
        (),
        "halt write symbol '7' outside alphabet",
    ),
    "machine file not an object": ({"machine": ["q0"]}, (), "machine description must be a JSON object"),
    "transition record not an object": (
        {"machine": _bb3_json(transitions=[*_BB3_ROWS, "q0 0 1 R q1"])},
        (),
        "transition record must be a JSON object",
    ),
    "unknown record fields": (
        {"machine": _bb3_json(transitions=[{**_ROW, "cost": "1"}, *_BB3_ROWS[1:]])},
        (),
        "unknown fields in transition record: ['cost']",
    ),
    "duplicate record": (
        {"machine": _bb3_json(transitions=[*_BB3_ROWS, _ROW])},
        (),
        "duplicate transition record for ('q0', '0')",
    ),
    "no machine given": (
        {"machine": None},
        (),
        "no machine given: pass a file path, a built-in name, or --builtin",
    ),
    "tape file not an object": (
        {"tape": [["0", "1"]]},
        (),
        "tape file must be a JSON object mapping cell index to symbol",
    ),
    "params file not an object": ({"params": [["road_build_turns", 2]]}, (), "params file must be a JSON object"),
    "negative param": ({"params": {"base_faith": -1}}, ("--ruleset", "VI"), "base_faith must be >= 0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_two_with_one_json_line(tmp_path, capsys, case):
    files, extra, error = MALFORMED_INPUTS[case]
    files = {"machine": _bb3_json(), **files}
    argv = ["run"]
    for kind, doc in files.items():
        if doc is None:
            continue
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        argv += [str(path)] if kind == "machine" else [f"--{kind}", str(path)]
    status, out, err = run_cli(capsys, *argv, *extra)
    assert (status, out) == (2, "")
    [line] = err.splitlines()
    assert json.loads(line) == {"error": error}


def test_far_vi_tape_cell_status(tmp_path, capsys):
    # The span of an initial VI tape is bounded, so a far cell is refused
    # before any city is founded instead of exhausting memory.
    tape = tmp_path / "tape.json"
    tape.write_text(json.dumps({"100000000": "1"}))
    started = time.monotonic()
    status, out, err = run_cli(capsys, "run", "bb3", "--ruleset", "VI", "--tape", str(tape))
    assert time.monotonic() - started < 1
    assert status == 2
    assert out == ""
    [line] = err.splitlines()
    assert "50000001 cities" in json.loads(line)["error"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_json_value_in_one_field_never_raises(data):
    ruleset = data.draw(st.sampled_from(("BE", "V", "VI")))
    files = {
        "machine": spec_to_json(builtin_program("bb3")),
        "tape": {"0": "1", "2": "1"},
        "params": dataclasses.asdict(RulesetParams.defaults(ruleset)),
    }
    kind = data.draw(st.sampled_from(sorted(files)))
    target = files[kind]
    if kind == "machine" and data.draw(st.booleans()):
        target = data.draw(st.sampled_from(target["transitions"]))
    target[data.draw(st.sampled_from(sorted(target)))] = data.draw(JSON_VALUES)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.json" for name in files}
        for name, doc in files.items():
            paths[name].write_text(json.dumps(doc))
        # A tape is only read by commands that run the machine; keep that run
        # short. compile checks the machine and params without running, so a
        # valid but huge duration cannot make the test slow.
        if kind == "tape":
            argv = ["run", str(paths["machine"]), "--tape", str(paths["tape"]), "--max-instructions", "2"]
        else:
            argv = ["compile", str(paths["machine"])]
        argv += ["--ruleset", ruleset, "--params", str(paths["params"])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
    assert status in (0, 1, 2, 3, 4)
    if status == 2:
        [line] = err.getvalue().splitlines()
        assert "error" in json.loads(line)


def test_params_file_rejects_unknown_key(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"thz": 1}))
    status, _, err = run_cli(capsys, "run", "bb3", "--ruleset", "BE", "--params", str(params))
    assert status == 2


@pytest.mark.parametrize(
    "params,error",
    [
        ({"ruleset": "V"}, "params are for ruleset 'V', not 'BE'"),
        ({"ruleset": "V", "thz": 1}, "params are for ruleset 'V', not 'BE'"),
        ({"thz": 1, "ruleset": "V"}, "params are for ruleset 'V', not 'BE'"),
        ({"ruleset": "XYZ", "thz": 1}, "unknown ruleset 'XYZ'"),
    ],
    ids=["other-ruleset", "ruleset-first", "unknown-key-first", "no-such-ruleset"],
)
def test_params_file_of_another_ruleset_gets_one_refusal_whatever_the_key_order(tmp_path, capsys, params, error):
    # The world's refusal (``params_for``, shared with compile_program and
    # init_world) comes before the unknown-key check.
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    status, out, err = run_cli(capsys, "run", "bb3", "--ruleset", "BE", "--params", str(path))
    assert (status, out) == (2, "")
    assert [json.loads(line) for line in err.splitlines()] == [{"error": error}]


def test_demo_bb3_rendering(capsys):
    status, out, _ = run_cli(capsys, "demo-bb3", "--ruleset", "BE")
    assert status == 0
    lines = out.splitlines()
    assert "Build a Road and move R; Build a Terrascape" in lines[2]  # the first instruction
    assert "state  q1" in lines[2]
    assert "HALT" in lines[-2]
    assert "tape holds 6 ones" in lines[-1]
    assert "halted after 13 instructions" in lines[-1]


def test_demo_bb3_runs_on_vi(capsys):
    status, out, _ = run_cli(capsys, "demo-bb3", "--ruleset", "VI")
    assert status == 0
    assert "tape holds 6 ones" in out.splitlines()[-1]


def test_cost_reports_bounds(capsys):
    status, out, _ = run_cli(capsys, "cost", "bb3", "--ruleset", "V", "--max-instructions", "100")
    assert status == 0
    report = json.loads(out)["overhead"]
    assert report["paper_bound"] == 9
    assert report["paper_bound_satisfied"] and report["derived_bound_satisfied"]


@pytest.mark.parametrize("ruleset", [RULESET_BE, RULESET_V, RULESET_VI])
def test_cost_past_a_bound_exits_one(capsys, monkeypatch, ruleset):
    # bb3's third instruction takes 100 turns more than it did (on VI it is
    # an extension), which the lockstep compare does not see.
    execute = harness.execute_instruction

    def slowed(world, program, index=0):
        record = execute(world, program, index=index)
        if index == 3:
            record.turns += 100
        return record

    monkeypatch.setattr(harness, "execute_instruction", slowed)
    status, out, err = run_cli(capsys, "cost", "bb3", "--ruleset", ruleset)
    assert (status, err) == (1, "")
    [line] = out.splitlines()
    report = json.loads(line)["overhead"]
    assert (report["paper_bound_satisfied"], report["derived_bound_satisfied"]) == (False, False)
    if ruleset == RULESET_VI:
        assert report["extensions"][0]["instruction"] == 3
    else:
        assert [excess["instruction"] for excess in report["excesses"]] == [3]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "bb3", "--max-instructions", "-1"),
        ("cost", "bb3", "--max-instructions", "-3"),
        ("run", "bb3", "--max-instructions", "-1"),
        ("verify", "bb3", "--seeds", "1,x"),
        ("verify", "bb3", "--random-states", "0", "--seeds", "1"),
        ("verify", "bb3", "--ruleset", "VI", "--random-symbols", "7", "--seeds", "1"),
    ],
)
def test_malformed_budget_or_sweep_fails_before_any_output(capsys, argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "error" in json.loads(err)


def test_sweep_machine_the_params_cannot_hold_fails_before_any_output(capsys, monkeypatch):
    # 11 states need 10 state-region tiles and BE's default params give 9.
    # The state region is checked before any machine is drawn (drawing one
    # of 10**8 states would not finish) and before the main machine's lines
    # print.
    def draw(*args):
        raise AssertionError("random_tm was called")

    monkeypatch.setattr(harness, "random_tm", draw)
    for states in (11, 200_000, 10**8):
        status, out, err = run_cli(capsys, "verify", "bb3", "--random-states", str(states), "--seeds", "1")
        assert (status, out) == (2, "")
        assert len(err.splitlines()) == 1
        message = f"{states} states need a state region of at least {states - 1} tiles; params provide 9"
        assert json.loads(err) == {"error": message}


@pytest.mark.parametrize(
    "argv,message",
    [
        (("verify", "bb3", "--max-instructions", "abc"), "civutm verify: argument --max-instructions: invalid int"),
        (("run", "bb3", "--ruleset", "XX"), "civutm run: argument --ruleset: invalid choice: 'XX'"),
        (("verify", "bb3", "--out", "x"), "civutm: unrecognized arguments: --out x"),
    ],
)
def test_malformed_arguments_give_one_json_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exited:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exited.value.code, out) == (2, "")
    [line] = err.splitlines()
    assert json.loads(line)["error"].startswith(message)


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["verify", "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: civutm verify")


def test_compile_without_a_shipped_fixture_fails_before_any_output(tmp_path, capsys):
    program = tmp_path / "p.json"
    status, out, err = run_cli(capsys, "compile", "bb3", "--diff-fixture", "--out", str(program))
    assert (status, out) == (2, "")
    assert not program.exists()
    [line] = err.splitlines()
    assert json.loads(line)["error"] == "no shipped fixture for 'bb3' on ruleset BE"


@pytest.mark.parametrize("text", ['{"3": "1", "03": "0"}', '{"3": "1", "3": "0"}'])
def test_a_tape_file_naming_a_cell_twice_status(tmp_path, capsys, text):
    tape = tmp_path / "tape.json"
    tape.write_text(text)
    status, out, err = run_cli(capsys, "run", "bb3", "--tape", str(tape))
    assert (status, out) == (2, "")
    [line] = err.splitlines()
    assert json.loads(line)["error"] == "tape file names cell 3 twice"


# `int()` reads each of these as a cell (10, 7 and 1); a cell key is ASCII
# digits with an optional minus sign.
@pytest.mark.parametrize("key", ["1_0", " 7 ", "١"])
def test_a_tape_key_that_is_not_ascii_digits_status(tmp_path, capsys, key):
    tape = tmp_path / "tape.json"
    tape.write_text(json.dumps({key: "1"}))
    status, out, err = run_cli(capsys, "run", "bb3", "--tape", str(tape))
    assert (status, out) == (2, "")
    [line] = err.splitlines()
    assert json.loads(line)["error"] == f"tape cell key {key!r} is not an integer"


@pytest.mark.parametrize("command", ["verify", "cost"])
def test_verify_and_cost_write_no_file(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "bb3", "--out", "trace.jsonl"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err


# Demo output (stdout, then the --out trace), pinned on the commit before the
# CLI followed written cells instead of decoding every boundary.
DEMO_DIGESTS = {
    "BE": "3cd279e729c9844e9c82b1e83785bd854ee6c5e87d782633a32f14869680a498",
    "V": "2aa78ab784344d7696f3cc50036bd7bc981bd09cc9c033b3d4dec1847da9b396",
    "VI": "ae7758b2f46f62e354f8ec170e3ba0a699b726ba97ab86f770e3f7d533216306",
}


@pytest.mark.parametrize("ruleset", sorted(DEMO_DIGESTS))
def test_demo_bb3_output_digest(tmp_path, capsys, ruleset):
    trace = tmp_path / "trace.jsonl"
    status, out, _ = run_cli(capsys, "demo-bb3", "--ruleset", ruleset, "--out", str(trace))
    assert status == 0
    assert hashlib.sha256((out + trace.read_text()).encode()).hexdigest() == DEMO_DIGESTS[ruleset]


# Stdout of `cost` and `verify` (the lockstep and overhead JSON), pinned on
# the commit before the overhead report's JSON became `dataclasses.asdict` (it
# is now the dict `overhead_report` returns), so a field added to either report
# shows here.
REPORT_DIGESTS = {
    ("cost", "bb3", "BE"): "248b276d1fb07a8feb7d4610ef6814b6c052ba7e49d5aa0a0a4728bc6d12cc64",
    ("cost", "bb3", "V"): "9ebd84bf76c14b5a5fa889d145398451786a5501acf6a87e8d7ae3332633a9a9",
    ("cost", "bb3", "VI"): "0470dcb1315f7cf7b6e354cc6e5af9991367b0486d24ea10bf731bb0312ae1c8",
    ("cost", "rogozhin_10_3", "BE"): "4ead28e812558bf232b4fc251800f316f05272dc2c567234f9b0421617a89b99",
    ("verify", "bb3", "BE"): "b81fc31d2bf3eccfe9b1063cdb09ae2f12fd882a2105c7361987ff1f4c2fb0cf",
    ("verify", "bb3", "V"): "b92778e089b913a6edb1c47c9b372842f83cb92fab88a922f60c340e4b13299e",
    ("verify", "bb3", "VI"): "6145361dc8dbea3ae54241057d606ee96edb153a57601fe73b462db3c8e2fce6",
    ("verify", "rogozhin_10_3", "BE"): "b7f301656f1b0c15b467044541f434fb3e44c8dbac91de1444a43c6bc2c6a5fd",
}


@pytest.mark.parametrize("command,machine,ruleset", sorted(REPORT_DIGESTS))
def test_report_output_digest(capsys, command, machine, ruleset):
    status, out, _ = run_cli(capsys, command, machine, "--ruleset", ruleset)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[(command, machine, ruleset)]


# ---------------------------------------------------------------------------
# `_drive_game` against a plain loop that runs the game side alone, decodes
# every boundary in full and diffs whole tapes between them.
# ---------------------------------------------------------------------------


def _reference_drive_game(spec, ruleset, tape, max_instructions):
    """(trace lines, summary) of a run with a full decode at every boundary."""
    program = compile_program(spec, ruleset)
    world = init_world(ruleset, codec.encode_tape(tape, program))

    def boundary(decoded):
        entry = {"decoded": decoded, "turn": world.turn, "yields": yields(world)}
        if ruleset == RULESET_VI:
            entry["cities"] = [
                {"index": c.index, "citizens": c.citizens, "growth_cap": c.growth_cap, "food_stock": c.food_stock(world.turn)}
                for _, c in sorted(world.cities.items())
            ]
        return entry

    records = []
    boundaries = [boundary(codec.decode(world, program))]
    outcome = "step-limit"
    try:
        for record in run_instructions(world, program, max_instructions):
            records.append(record)
            boundaries.append(boundary(codec.decode(world, program)))
            if ruleset == RULESET_VI:
                check_vi_boundary(world)
            if record.halted:
                outcome = "halted"
    except MachineStuck:
        outcome = "stuck"

    lines = [cli._dump({"format_version": cli.TRACE_FORMAT_VERSION, "kind": "trace"})]
    prev_tape = {}
    for i, entry in enumerate(boundaries):
        cfg = entry["decoded"]
        changed = {}
        for cell in sorted(set(prev_tape) | set(cfg.tape)):
            if prev_tape.get(cell) != cfg.tape.get(cell):
                changed[str(cell)] = cfg.tape.get(cell)
        rec = {"instruction": i, "turn": entry["turn"], "state": cfg.state, "head": cfg.head}
        rec.update({"changed_cells": changed, "yields": entry["yields"]})
        if "cities" in entry:
            rec["cities"] = entry["cities"]
        prev_tape = dict(cfg.tape)
        lines.append(cli._dump(rec))
    final = boundaries[-1]["decoded"]
    summary = {
        "outcome": outcome,
        "instructions": len(records),
        "total_turns": world.turn,
        "final_state": final.state,
        "final_head": final.head,
        "final_tape": {str(k): v for k, v in sorted(final.tape.items())},
        "extension_events": sum(1 for r in records if r.extension),
    }
    return lines, summary


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10**6), num_states=st.integers(1, 6))
def test_drive_game_follows_written_cells_as_full_decodes_do(data, seed, num_states):
    ruleset = data.draw(st.sampled_from((RULESET_BE, RULESET_V, RULESET_VI)))
    spec = harness.random_tm(seed, num_states, 2 if ruleset == RULESET_VI else 3)
    if data.draw(st.booleans()):  # some pairs undefined, so the run can end stuck
        keys = data.draw(st.sets(st.sampled_from(sorted(spec.transitions)))) if spec.transitions else set()
        transitions = {key: rule for key, rule in spec.transitions.items() if key not in keys}
        spec = validate_spec(dataclasses.replace(spec, transitions=transitions))
    tape = data.draw(st.dictionaries(st.integers(-6, 6), st.sampled_from(spec.alphabet), max_size=5))
    max_instructions = data.draw(st.integers(0, 30 if ruleset == RULESET_VI else 80))
    rewritten = data.draw(st.none() | st.integers(-8, 8))
    execute = harness.execute_instruction

    def execute_then_rewrite(world, program, index=0):
        # A recorded write of the symbol a cell already holds changes nothing.
        record = execute(world, program, index=index)
        world.tape[rewritten] = world.symbol_at(rewritten)
        return record

    with mock.patch.object(harness, "execute_instruction", execute if rewritten is None else execute_then_rewrite):
        program = compile_program(spec, ruleset)
        report, boundaries = cli._drive_game(program, tape, max_instructions)
        lines, summary = _reference_drive_game(spec, ruleset, tape, max_instructions)
    assert report.first_divergence is None
    assert cli._trace_lines(boundaries) == lines
    assert cli._summary(report) == summary


def test_run_decodes_the_world_twice(tmp_path, capsys, monkeypatch):
    # The right-runner writes a new cell every instruction; `run` used to
    # decode the whole world at every boundary (1,001 times here).
    calls = 0
    decode = codec.decode

    def counted(world, program):
        nonlocal calls
        calls += 1
        return decode(world, program)

    monkeypatch.setattr(codec, "decode", counted)
    rule = Transition("1", "R", "a")
    runner = TMSpec(("a",), ("0", "1"), "0", ("1",), "a", (), {("a", "0"): rule, ("a", "1"): rule})
    machine = tmp_path / "runner.json"
    machine.write_text(json.dumps(spec_to_json(runner)))
    trace = tmp_path / "trace.jsonl"
    status, out, _ = run_cli(capsys, "run", str(machine), "--max-instructions", "1000", "--out", str(trace))
    assert status == 4 and json.loads(out)["instructions"] == 1000
    assert len(trace.read_text().splitlines()) == 1002
    assert calls == 2


def test_run_fails_closed_on_an_unrecorded_write(capsys, monkeypatch):
    # A write to the private cells dict bypasses the tape's record of written
    # cells, so only the final full decode can see the cell; the run must not
    # report it.
    execute = harness.execute_instruction

    def execute_then_corrupt(world, program, index=0):
        record = execute(world, program, index=index)
        if index == 3:
            world.tape._cells[-60] = program.symbol_of["1"]
        return record

    monkeypatch.setattr(harness, "execute_instruction", execute_then_corrupt)
    status, out, err = run_cli(capsys, "run", "bb3", "--ruleset", "BE")
    assert (status, out) == (2, "")
    assert "verified at instruction 13: a tape cell changed without being recorded" in json.loads(err)["error"]


@pytest.mark.parametrize("ruleset", [RULESET_BE, RULESET_V, RULESET_VI])
@pytest.mark.parametrize("command", ["run", "demo-bb3", "cost"])
def test_a_run_that_diverges_prints_only_the_lockstep_line(tmp_path, capsys, monkeypatch, command, ruleset):
    # bb3's first macro compiled one state too far: the game runs, but no
    # boundary after the start agrees with the oracle, so no trace (and, for
    # `cost`, which takes no --out, no overhead report) is shown.
    def corrupted(spec, ruleset, params=None):
        program = compile_program(spec, ruleset, params)
        key = (0, program.symbol_of[spec.blank])
        macro = program.macros[key]
        program.macros[key] = dataclasses.replace(macro, state_delta=macro.state_delta + 1)
        return program

    monkeypatch.setattr(cli, "compile_program", corrupted)
    trace = tmp_path / "trace.jsonl"
    machine = () if command == "demo-bb3" else ("bb3",)
    out_file = () if command == "cost" else ("--out", str(trace))
    status, out, err = run_cli(capsys, command, *machine, "--ruleset", ruleset, *out_file)
    assert (status, err, trace.exists()) == (1, "", False)
    [line] = out.splitlines()
    report = json.loads(line)["lockstep"]
    assert (report["outcome"], report["first_divergence"]["instruction"]) == ("diverged", 1)


def test_a_closed_stdout_ends_the_command_quietly():
    # Unbuffered, every line is its own write; the sweep's lines come after
    # the reader has gone, and the first of them meets a broken pipe.
    src = Path(cli.__file__).resolve().parents[1]
    child = subprocess.Popen(
        [sys.executable, "-u", "-m", "civutm.cli", "verify", "bb3", "--seeds", "0,1,2,3,4,5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert json.loads(child.stdout.readline())["lockstep"]["outcome"] == "equivalent"
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=60), err) == (0, b"")
