"""CLI tests: exit statuses, trace determinism, fixture diffing, the demo."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from civutm.cli import main
from civutm.tm import builtin_program, spec_to_json
from civutm.world import RulesetParams


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

    def corrupted(spec, ruleset, tape, max_instructions, params, program=None):
        report = real(spec, ruleset, tape, max_instructions, params, program)
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
    # The codec divides the yield delta by this yield; 0 used to end in a
    # ZeroDivisionError traceback.
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
