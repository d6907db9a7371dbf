"""Tests of the benchmark itself: seeded inputs, the correctness gate, the
tracer, and agreement between BENCHMARK.json and what run.py prints.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402
from tracing import TIME_SUFFIXES, Tracer  # noqa: E402

WORKLOADS = sorted(bench.WORKLOADS)
SEED = json.loads(bench.PINNED.read_text())["default_seed"]


@pytest.fixture(scope="module")
def lib():
    return bench.load_civutm()


def _inputs(jobs):
    return [(job.spec, job.ruleset, job.tape, job.budget) for job in jobs]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generation_repeats_for_a_seed(lib, workload):
    assert _inputs(bench.build(lib, workload, 5)) == _inputs(bench.build(lib, workload, 5))


def test_random_sweep_differs_across_seeds_with_fixed_strata(lib):
    a, b = bench.build(lib, "random_sweep", 5), bench.build(lib, "random_sweep", 6)
    assert _inputs(a) != _inputs(b)
    assert len(a) == len(b) == 2 * sum(bench.SWEEP_QUOTAS.values())


@pytest.fixture(scope="module")
def clean(lib):
    """Per workload at the default seed: (jobs, results of one round)."""
    out = {}
    for workload in WORKLOADS:
        jobs = bench.build(lib, workload, SEED)
        out[workload] = jobs, [result for _, _, result in bench.execute(lib, jobs)]
    return out


def _gate(lib, name, results):
    check = bench.RoundCheck(lib)
    for result in results:
        check.add(result)
    gate = bench.Gate(bench.pinned_digest(name, SEED))
    gate.add(check)
    return check, gate


@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_round_passes_and_matches_pinned_digest(lib, clean, workload):
    jobs, results = clean[workload]
    check, gate = _gate(lib, workload, results)
    assert check.problems == [] and gate.failed == 0
    assert gate.attempted == len(jobs)


def test_canary_matches_pinned_digest(lib):
    check = bench.run_round(lib, bench.canary_jobs(lib)).check
    assert check.failed == 0
    assert check.digest == bench.pinned_digest("canary", SEED)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_nudged_turn_counter_fails_the_gate(lib, clean, workload):
    """The oracle comparison still passes; only the digest can see this."""
    _, results = clean[workload]
    report = results[0][0]
    report.world.turn += 1
    try:
        check, gate = _gate(lib, workload, results)
    finally:
        report.world.turn -= 1
    assert check.failed == 0
    assert gate.failed == len(results)


def _corrupt_first_macro(job):
    """Flip the state change of the macro the first instruction runs, as in
    test_corrupted_macro_diverges_at_instruction_one."""
    program = job.program
    read = program.symbol_of[job.tape.get(0, job.spec.blank)]
    macro = program.macros[(0, read)]
    program.macros[(0, read)] = dataclasses.replace(macro, state_delta=macro.state_delta + 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_program_fails_the_gate(lib, workload):
    jobs = bench.build(lib, workload, SEED)
    _corrupt_first_macro(jobs[0])
    check = bench.run_round(lib, jobs[:1]).check
    assert check.failed == 1, check.problems


def test_tracer_counts_repeat_and_match_the_reports(lib):
    passes = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed(lib):
            rnd = bench.run_round(lib, bench.build(lib, "vi_extend", SEED))
        assert rnd.check.failed == 0
        passes.append(tracer)
    counts = [{k: v for k, v in t.metrics().items() if not k.endswith(TIME_SUFFIXES)} for t in passes]
    assert counts[0] == counts[1]
    assert counts[0]["world.turns"] > 0 and counts[0]["controller.extend_tape.calls"] > 0
    stats = passes[0].layer_stats()
    total = sum(entry["self_s"] for entry in stats.values())
    roots = sum(end - start for _, start, end, parent, _ in passes[0].spans if parent < 0)
    assert total == pytest.approx(roots, rel=1e-6)
    assert lib.harness.lockstep_verify.__module__ == "civutm.harness"  # restored


def test_missing_or_idle_target_is_reported_untraced(lib):
    saved = lib.controller.extend_tape
    del lib.controller.extend_tape
    try:
        tracer = Tracer()
        with tracer.installed(lib):
            job = bench.Job(bench.right_runner(lib), lib.world.RULESET_BE, {}, 20)
            bench.run_round(lib, bench.compile_jobs(lib, [job]))
    finally:
        lib.controller.extend_tape = saved
    untraced = tracer.untraced()
    assert untraced["controller.extend_tape"] == "controller.extend_tape does not exist"
    assert untraced["harness.random_tm"] == "never called"
    metrics = tracer.metrics()
    assert not any(name.startswith(("controller.extend_tape.", "harness.random_tm.")) for name in metrics)
    assert metrics["codec.decode.calls"] > 0


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_exactly_the_declared_metrics(trace, key):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    out = _run(ROOT, "--workload", "vi_extend", "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_run_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(tmp_path, "--workload", "vi_extend", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode == 2
    assert '"metrics"' not in out.stdout
