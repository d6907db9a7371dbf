"""Workloads, timed rounds and output checks of the civutm benchmark.

A workload is a list of jobs. A job is one machine, ruleset, initial tape and
instruction budget. Running a job is one ``harness.lockstep_verify`` (the
verdict) followed by ``tm.run`` over the same budget; the oracle's final
configuration must equal the verdict's. A round runs every job of a workload
once, one after another in this process: a closed loop with one client.

Every call into civutm goes through a module attribute looked up at call
time (``lib.harness.lockstep_verify``, ``lib.tm.run`` ...), so the tracer in
``tracing.py`` can time the layers from outside without touching ``src/``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINNED = HERE / "pinned.json"
MODULES = ("tm", "world", "codec", "controller", "harness")

# Sizes. Each is large enough that its workload's target layer dominates and
# small enough that a 30 s run holds several rounds (see README.md).
VI_INSTRUCTIONS = 80
TAPE_INSTRUCTIONS = 1000
SWEEP_INSTRUCTIONS = 100
# random_sweep draws machines per stratum of oracle behaviour, in the shares
# that 2,000 unfiltered draws showed. A round's cost is then set by the
# quotas rather than by how many long runners a seed happens to draw.
SWEEP_QUOTAS = {"halt1": 204, "halt4": 171, "halt99": 79, "short": 29, "long": 117}
SWEEP_LONG_SPAN = 40  # head span (cells) from which a budget-length run is "long"


@dataclass
class Job:
    spec: object
    ruleset: str
    tape: dict
    budget: int
    program: object = None


@dataclass
class Round:
    seconds: float  # summed over the jobs, checks excluded
    latencies: list  # seconds per lockstep_verify call
    check: "RoundCheck"


def load_civutm() -> SimpleNamespace:
    """Import civutm afresh from this checkout's ``src/``.

    Any civutm already imported is dropped first, so each call pays the full
    import. Raises ImportError when the sources are not in the checkout.
    """
    if not (SRC / "civutm" / "__init__.py").is_file():
        raise ImportError(f"civutm sources not found under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "civutm" or n.startswith("civutm.")]:
        del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module(f"civutm.{m}") for m in MODULES})
    if Path(lib.harness.__file__).resolve().parent != (SRC / "civutm").resolve():
        raise ImportError(f"civutm was imported from {lib.harness.__file__}, not from {SRC}")
    return lib


# ---------------------------------------------------------------------------
# Workload generation
# ---------------------------------------------------------------------------


def _vi_extend(lib, seed: int) -> list[Job]:
    # Fixed input: the seed does not change it, so the pinned digest holds
    # for every seed.
    spec = lib.tm.builtin_program("rogozhin_24_2")
    return [Job(spec, lib.world.RULESET_VI, {}, VI_INSTRUCTIONS)]


def right_runner(lib):
    """``q0 0->1 R q0``, ``q0 1->1 R q0``: the tape grows one cell per step."""
    t = lib.tm
    rule = t.Transition(write="1", move="R", next_state="q0")
    spec = t.TMSpec(
        states=("q0",),
        alphabet=("0", "1"),
        blank="0",
        input_alphabet=("1",),
        initial="q0",
        halting=(),
        transitions={("q0", "0"): rule, ("q0", "1"): rule},
    )
    return t.validate_spec(spec)


def _tape_sweep(lib, seed: int) -> list[Job]:
    return [Job(right_runner(lib), lib.world.RULESET_BE, {}, TAPE_INSTRUCTIONS)]


def _stratum(lib, result) -> str:
    if result.outcome == lib.tm.HALTED:
        return "halt1" if result.steps <= 1 else "halt4" if result.steps <= 4 else "halt99"
    heads = [config.head for config in result.trace]
    return "long" if max(heads) - min(heads) >= SWEEP_LONG_SPAN else "short"


def _random_sweep(lib, seed: int) -> list[Job]:
    rng = random.Random(seed)
    left = dict(SWEEP_QUOTAS)
    jobs = []
    while any(left.values()):
        spec = lib.harness.random_tm(rng.getrandbits(32), rng.randint(2, 8), 3)
        tape = {rng.randint(-4, 4): rng.choice(("1", "b")) for _ in range(rng.randint(0, 4))}
        kind = _stratum(lib, lib.tm.run(spec, lib.tm.initial_config(spec, tape), SWEEP_INSTRUCTIONS))
        if left[kind]:
            left[kind] -= 1
            jobs += [Job(spec, ruleset, tape, SWEEP_INSTRUCTIONS) for ruleset in (lib.world.RULESET_BE, lib.world.RULESET_V)]
    return jobs


def canary_jobs(lib) -> list[Job]:
    """A fixed batch checked on every run against a pinned digest.

    Its inputs ignore the seed, so every run compares output with a pinned
    value whatever its seed, and it calls every layer the tracer wraps (VI
    tape extension and ``random_tm`` included), so a traced target that is
    never called means the target moved.
    """
    w = lib.world
    jobs = []
    for seed in range(4):
        for ruleset, symbols, budget in ((w.RULESET_BE, 3, 100), (w.RULESET_V, 3, 100), (w.RULESET_VI, 2, 30)):
            spec = lib.harness.random_tm(seed, 3 + seed, symbols)
            jobs.append(Job(spec, ruleset, {}, budget))
    return compile_jobs(lib, jobs)


WORKLOADS = {
    "vi_extend": _vi_extend,
    "tape_sweep": _tape_sweep,
    "random_sweep": _random_sweep,
}
SEEDED = {"random_sweep"}  # the others ignore the seed


def compile_jobs(lib, jobs: list[Job]) -> list[Job]:
    for job in jobs:
        job.program = lib.harness.compile_program(job.spec, job.ruleset)
    return jobs


def build(lib, workload: str, seed: int) -> list[Job]:
    """Generate a workload's inputs and compile its programs."""
    return compile_jobs(lib, WORKLOADS[workload](lib, seed))


def setup(workload: str, seed: int) -> tuple[SimpleNamespace, list[Job], float]:
    """Import civutm, generate the inputs, compile: (lib, jobs, seconds)."""
    start = time.perf_counter()
    lib = load_civutm()
    jobs = build(lib, workload, seed)
    return lib, jobs, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Rounds and checks
# ---------------------------------------------------------------------------


def _config_json(config) -> list:
    return [config.state, config.head, sorted(config.tape.items())]


class RoundCheck:
    """Checks a round's results one job at a time and digests them.

    A job fails when it raised, when the verdict diverged, or when
    ``tm.run``'s final configuration differs from the verdict's. The digest
    covers, per job, the event log, the world snapshot, the report, the
    instruction records and the oracle's final configuration.
    """

    def __init__(self, lib):
        self.lib = lib
        self.jobs = 0
        self.failed = 0
        self.problems: list[str] = []
        self._hash = hashlib.sha256()

    def add(self, result) -> None:
        lib, index = self.lib, self.jobs
        self.jobs += 1
        if isinstance(result, Exception):
            self.failed += 1
            self.problems.append(f"job {index} raised {type(result).__name__}: {result}")
            self._hash.update(f"error {type(result).__name__}".encode())
            return
        report, run = result
        if report.outcome == lib.harness.DIVERGED:
            self.failed += 1
            self.problems.append(f"job {index} diverged: {report.first_divergence}")
        elif run.trace[-1] != report.final_config:
            self.failed += 1
            self.problems.append(f"job {index}: tm.run final configuration differs from the lockstep one")
        world = report.world
        parts = [
            *lib.world.event_log_lines(world),
            json.dumps(lib.world.world_snapshot(world), sort_keys=True),
            json.dumps(report.to_json(), sort_keys=True),
            *(json.dumps(record, default=vars, sort_keys=True) for record in report.records),
            json.dumps([run.outcome, run.steps, _config_json(run.trace[-1])]),
        ]
        self._hash.update(hashlib.sha256("\n".join(parts).encode()).digest())

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()


def execute(lib, jobs: list[Job]):
    """Yield (seconds, verdict seconds or None, result) per job, in order.

    The result is (report, run), or the exception the job raised: a job
    that raises is a failed verification, not a crashed benchmark.
    """
    clock = time.perf_counter
    for job in jobs:
        start = clock()
        verdict = None
        try:
            report = lib.harness.lockstep_verify(job.spec, job.ruleset, job.tape, job.budget, program=job.program)
            verdict = clock() - start
            result = report, lib.tm.run(job.spec, lib.tm.initial_config(job.spec, job.tape), job.budget)
        except Exception as exc:  # noqa: BLE001 - counted by RoundCheck
            result = exc
        yield clock() - start, verdict, result


def run_round(lib, jobs: list[Job]) -> Round:
    """Run and check every job once. Only the jobs are timed: each result
    is checked and dropped before the next job starts."""
    rnd = Round(0.0, [], RoundCheck(lib))
    for seconds, verdict, result in execute(lib, jobs):
        rnd.seconds += seconds
        if verdict is not None:
            rnd.latencies.append(verdict)
        rnd.check.add(result)
    return rnd


def pinned_digest(name: str, seed: int) -> str | None:
    """The pinned digest for ``name`` (a workload or "canary") at ``seed``.

    Unseeded inputs have one digest for every seed; a seeded workload has
    one only for the default seed.
    """
    pinned = json.loads(PINNED.read_text())
    if name in SEEDED and seed != pinned["default_seed"]:
        return None
    return pinned["digests"][name]


class Gate:
    """Counts failed jobs over the rounds of one workload.

    Every round must give the same digest as the first, and that digest
    must equal the pinned one when there is one. A round whose digest is
    off fails as a whole: the digest cannot say which job changed.
    """

    def __init__(self, pinned: str | None):
        self.pinned = pinned is not None
        self.expected = pinned
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = None

    def add(self, check: RoundCheck) -> None:
        failed, problems = check.failed, list(check.problems)
        self.attempted += check.jobs
        self.digest = self.digest or check.digest
        if self.expected is None:
            self.expected = check.digest
        if check.digest != self.expected:
            failed = check.jobs
            problems.append(f"digest {check.digest} differs from {self.expected}")
        self.failed += failed
        self.problems += problems
