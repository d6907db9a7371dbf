"""Run one workload of the civutm benchmark and print its metrics.

    python3 perfbench/run.py --workload vi_extend --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run. Lines before it say the same for a reader, failures included.
Exit status 2 means the run could not start (e.g. no civutm sources in
this checkout); a run that starts exits 0 and reports its verdict in
``correct``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
from tracing import PER_LAYER, TIME_SUFFIXES, Tracer  # noqa: E402

SETUP_REPEATS = 5
SPAN_DIR = bench.HERE / "out"


def _measure(lib, jobs, gate: bench.Gate, seconds: float) -> list[bench.Round]:
    """Untraced rounds until ``seconds`` have passed, at least two.

    ``verify_s`` is the fastest round. On a shared host the CPU speed moves
    by up to 2x within seconds; the fastest round is the least disturbed.
    """
    rounds = []
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        rnd = bench.run_round(lib, jobs)
        gate.add(rnd.check)
        rounds.append(rnd)
    return rounds


def _end_to_end(setups, rounds) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "verify_s": (min(r.seconds for r in rounds), "s", f"fastest of {len(rounds)} rounds"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", "ru_maxrss"),
    }


def _verdict_latencies(rounds) -> list[str]:
    """Median and p95 of single verdicts over every round, for a reader."""
    ms = [1e3 * t for rnd in rounds for t in rnd.latencies]
    p95 = statistics.quantiles(ms, n=20, method="inclusive")[18]
    return [f"{name:40s} {value:14.6g} {'ms':8s} {len(ms)} verdicts, not gated"
            for name, value in (("verdict_p50_ms", statistics.median(ms)), ("verdict_p95_ms", p95))]


def _traced(lib, jobs, workload, seed, gates, seconds, span_path) -> tuple[dict, list[str], bool]:
    """Untraced rounds alternating with traced passes (set-up without the
    import, one round, the canary) until ``seconds`` have passed, at least
    two of each: (metrics, notes, whether counts repeated).

    Alternating keeps host speed drift out of ``trace.overhead_frac``.
    Counts must repeat exactly across passes; times are medians over them.
    """
    untraced_s, traced_s, runs = [], [], []
    start = time.perf_counter()
    while len(runs) < 2 or time.perf_counter() - start < seconds:
        rnd = bench.run_round(lib, jobs)
        gates["workload"].add(rnd.check)
        untraced_s.append(rnd.seconds)
        tracer = Tracer()
        with tracer.installed(lib):
            rnd = bench.run_round(lib, bench.build(lib, workload, seed))
            canary = bench.run_round(lib, bench.canary_jobs(lib))
        gates["workload"].add(rnd.check)
        gates["canary"].add(canary.check)
        traced_s.append(rnd.seconds)
        runs.append(tracer.metrics())
    tracer.write_spans(span_path)
    notes = [f"untraced: {name} ({reason})" for name, reason in tracer.untraced().items()]
    repeated = True
    units = {name: unit for name, unit, _ in PER_LAYER}
    out = {}
    for name, value in runs[0].items():
        values = [run[name] for run in runs]
        if name.endswith(TIME_SUFFIXES):
            value = statistics.median(values)
        elif len(set(values)) > 1:
            repeated = False
            notes.append(f"FAIL {name} differs between traced passes: {values}")
        out[name] = (value, units[name], "")
    overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1
    out["trace.overhead_frac"] = (overhead, "fraction", f"{len(runs)} traced passes")
    stats = tracer.layer_stats()
    total = sum(entry["self_s"] for entry in stats.values())
    shares = sorted(((entry["self_s"] / total, layer) for layer, entry in stats.items()), reverse=True)
    notes += [f"self-time share {share:6.1%} {layer}" for share, layer in shares[:4]]
    notes.append(f"spans of the last traced pass: {span_path}")
    return out, notes, repeated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        setups = [bench.setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    lib, jobs, _ = setups[-1]

    gates = {
        "workload": bench.Gate(bench.pinned_digest(args.workload, args.seed)),
        "canary": bench.Gate(bench.pinned_digest("canary", args.seed)),
    }
    notes, repeated = [], True
    if args.trace:
        SPAN_DIR.mkdir(exist_ok=True)
        span_path = SPAN_DIR / f"spans-{args.workload}.jsonl"
        metrics, notes, repeated = _traced(lib, jobs, args.workload, args.seed, gates, args.seconds, span_path)
    else:
        rounds = _measure(lib, jobs, gates["workload"], args.seconds)
        gates["canary"].add(bench.run_round(lib, bench.canary_jobs(lib)).check)
        metrics = _end_to_end([s for _, _, s in setups], rounds)
        if len(jobs) > 1:
            notes = _verdict_latencies(rounds)

    attempted = sum(g.attempted for g in gates.values())
    failed = sum(g.failed for g in gates.values())
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(jobs)} jobs per round")
    for name, (value, unit, about) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:8s} {about}")
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} {'fraction':8s} {failed}/{attempted} verifications")
    for name, gate in gates.items():
        print(f"  digest {name}: {gate.digest} ({'pinned' if gate.pinned else 'no pinned digest for this seed'})")
        for problem in gate.problems[:10]:
            print(f"  FAIL {name}: {problem}")
    for note in notes:
        print(f"  {note}")
    result = {
        "correct": failed == 0 and repeated,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
