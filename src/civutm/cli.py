"""Command-line interface.

Subcommands:

* ``run``       — execute a machine on the world engine, write a trace.
* ``verify``    — lockstep-verify a machine against the reference
                  interpreter, plus optional random-machine sweeps.
* ``compile``   — export a compiled command program; optionally diff it
                  against the shipped table fixture.
* ``demo-bb3``  — run the three-state Busy Beaver and render each
                  instruction as an aligned text line.
* ``cost``      — run a machine and print the per-instruction overhead
                  report with its bounds.

``run`` and ``demo-bb3`` print only boundaries that ``harness.lockstep`` has
verified. Exit status: 0 success, 1 divergence/diff/bound failure, 2 parse
or usage error, 3 stuck machine, 4 step limit reached. A stdout closed by
its reader (``civutm ... | head``) ends the command quietly with 0. Traces
and reports are line-delimited JSON with sorted keys, so identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from pathlib import Path

from . import harness, tables
from .controller import ControllerProgram, check_state_region, compile_program, macro_paper_command, program_to_json
from .errors import CivUtmError
from .tm import BUILTIN_NAMES, TMSpec, builtin_program, count_symbol, load_spec
from .world import RULESET_VI, RULESETS, RulesetParams, params_for, yields

TRACE_FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_STUCK = 3
EXIT_STEP_LIMIT = 4


def _load_machine(args) -> TMSpec:
    name = getattr(args, "builtin", None) or args.machine
    if name is None:
        raise CivUtmError("no machine given: pass a file path, a built-in name, or --builtin")
    if name in BUILTIN_NAMES:
        return builtin_program(name)
    path = Path(name)
    if not path.exists():
        raise CivUtmError(f"{name!r} is neither a built-in machine nor an existing file")
    return load_spec(path)


def _load_tape(args) -> dict[int, str]:
    if not getattr(args, "tape", None):
        return {}
    # An object parses to its (key, value) pairs, so a cell named twice stays visible.
    pairs = json.loads(Path(args.tape).read_text(), object_pairs_hook=tuple)
    if not isinstance(pairs, tuple):
        raise CivUtmError("tape file must be a JSON object mapping cell index to symbol")
    for cell, sym in pairs:
        if not isinstance(sym, str):
            raise CivUtmError(f"tape cell {cell} must hold a symbol string")
    tape: dict[int, str] = {}
    for cell, sym in pairs:
        if not re.fullmatch(r"-?[0-9]+", cell):
            raise CivUtmError(f"tape cell key {cell!r} is not an integer")
        index = int(cell)
        if index in tape:
            raise CivUtmError(f"tape file names cell {index} twice")
        tape[index] = sym
    return tape


def _load_params(args) -> RulesetParams:
    overrides = {}
    if getattr(args, "params", None):
        overrides = json.loads(Path(args.params).read_text())
        if not isinstance(overrides, dict):
            raise CivUtmError("params file must be a JSON object")
    # A file for another ruleset gets params_for's refusal first, whatever its key order.
    params = params_for(args.ruleset, RulesetParams.defaults(overrides.pop("ruleset", args.ruleset)))
    known = {f.name for f in dataclasses.fields(RulesetParams)}
    for key in overrides:
        if key not in known:
            raise CivUtmError(f"unknown parameter {key!r}")
    return dataclasses.replace(params, **overrides)


def _compiled(args) -> tuple[dict[int, str], ControllerProgram]:
    """The tape that ``args`` name, and their machine compiled with their params."""
    spec, tape, params = _load_machine(args), _load_tape(args), _load_params(args)
    return tape, compile_program(spec, args.ruleset, params)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _write_lines(path: str, lines: list[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# The verified run shared by run / demo-bb3
# ---------------------------------------------------------------------------


def _drive_game(program: ControllerProgram, tape: dict[int, str], budget: int):
    """Run the program in ``harness.lockstep``; returns (report, boundaries).

    ``boundaries`` holds one trace record per verified instruction boundary
    (the initial one included): the instruction count, the world turn,
    state, head, the cells whose machine symbol changed since the previous
    boundary (keyed by the cell's string, None for the blank), the yields,
    and the city census for VI.
    """
    report, verified = harness.lockstep(program, tape, budget)
    world = report.world

    def boundary(record, machine, changed):
        entry = {"instruction": record.index if record else 0, "turn": world.turn}
        entry.update(state=machine.state, head=machine.head, yields=yields(world))
        entry["changed_cells"] = {str(cell): symbol for cell, symbol in changed.items()}
        if program.ruleset == RULESET_VI:
            entry["cities"] = [
                {"index": c.index, "citizens": c.citizens, "growth_cap": c.growth_cap, "food_stock": c.food_stock(world.turn)}
                for _, c in sorted(world.cities.items())
            ]
        return entry

    return report, [boundary(*verified_boundary) for verified_boundary in verified]


def _diverged(report: harness.LockstepReport) -> bool:
    """True, with the report's lockstep line printed, when the run diverged."""
    if report.first_divergence is None:
        return False
    print(_dump({"lockstep": report.to_json()}))
    return True


def _trace_lines(boundaries) -> list[str]:
    return [_dump({"format_version": TRACE_FORMAT_VERSION, "kind": "trace"}), *map(_dump, boundaries)]


def _summary(report: harness.LockstepReport) -> dict:
    final = report.final_config
    return {
        "outcome": {harness.EQUIVALENT: "halted", harness.ORACLE_STUCK: "stuck"}.get(report.outcome, "step-limit"),
        "instructions": report.instructions_verified,
        "total_turns": report.world.turn,
        "final_state": final.state,
        "final_head": final.head,
        "final_tape": {str(k): v for k, v in sorted(final.tape.items())},
        "extension_events": sum(1 for r in report.records if r.extension),
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    tape, program = _compiled(args)
    report, boundaries = _drive_game(program, tape, args.max_instructions)
    if _diverged(report):
        return EXIT_FAIL
    if args.out:
        _write_lines(args.out, _trace_lines(boundaries))
    print(_dump(_summary(report)))
    return {harness.EQUIVALENT: EXIT_OK, harness.ORACLE_STUCK: EXIT_STUCK}.get(report.outcome, EXIT_STEP_LIMIT)


def cmd_verify(args) -> int:
    tape, program = _compiled(args)
    # A malformed sweep argument, or a machine the params cannot hold
    # (refused before it is drawn), fails before anything is printed: the
    # sweep's machines are drawn and compiled first. VI encodes two symbols.
    if not 1 <= args.random_symbols <= 3:
        raise CivUtmError("--random-symbols must be between 1 and 3")
    symbols = min(args.random_symbols, 2) if args.ruleset == RULESET_VI else args.random_symbols
    machines = []
    for seed in _parse_seeds(args.seeds):
        check_state_region(args.random_states, program.params)
        rnd = harness.random_tm(seed, args.random_states, symbols)
        machines.append((seed, rnd, compile_program(rnd, args.ruleset, program.params)))
    report = harness.lockstep_verify(program.spec, args.ruleset, tape, args.max_instructions, program=program)
    print(_dump({"lockstep": report.to_json()}))
    ok = report.first_divergence is None
    over = harness.overhead_report(report)
    print(_dump({"overhead": over}))
    ok = ok and over["paper_bound_satisfied"] and over["derived_bound_satisfied"]

    for seed, rnd, rnd_program in machines:
        sweep = harness.lockstep_verify(rnd, args.ruleset, {}, args.max_instructions, program=rnd_program)
        print(_dump({"seed": seed, "lockstep": sweep.to_json()}))
        ok = ok and sweep.first_divergence is None
    return EXIT_OK if ok else EXIT_FAIL


def _parse_seeds(seeds: str | None) -> list[int]:
    if not seeds:
        return []
    try:
        return [int(s) for s in seeds.split(",") if s]
    except ValueError:
        raise CivUtmError(f"--seeds must be comma-separated integers, not {seeds!r}") from None


def cmd_compile(args) -> int:
    _, program = _compiled(args)
    if args.diff_fixture:
        name = getattr(args, "builtin", None) or args.machine
        fixture_name = tables.FIXTURE_FOR.get((args.ruleset, name))
        if fixture_name is None:
            raise CivUtmError(f"no shipped fixture for {name!r} on ruleset {args.ruleset}")
    if args.out:
        Path(args.out).write_text(json.dumps(program_to_json(program), indent=1, sort_keys=True) + "\n")
    print(_dump({"ruleset": args.ruleset, "macros": len(program.macros)}))
    if args.diff_fixture:
        diffs = tables.table_fidelity(program, tables.load_fixture(fixture_name))
        print(_dump({"fixture": fixture_name, "differences": diffs}))
        return EXIT_OK if not diffs else EXIT_FAIL
    return EXIT_OK


def cmd_demo_bb3(args) -> int:
    _, program = _compiled(args)
    report, boundaries = _drive_game(program, {}, args.max_instructions)
    if _diverged(report):
        return EXIT_FAIL

    # Every cell that is ever non-blank first appears among the changed ones.
    cells = set()
    for entry in boundaries:
        cells.update(map(int, entry["changed_cells"]))
        cells.add(entry["head"])
    lo, hi = (min(cells), max(cells)) if cells else (0, 0)
    tape: dict[str, str | None] = {}

    def render(entry) -> str:
        """The row of ``entry``; called once per boundary, in order."""
        tape.update(entry["changed_cells"])
        out = []
        for cell in range(lo, hi + 1):
            sym = tape.get(str(cell)) or program.spec.blank
            out.append(f"[{sym}]" if cell == entry["head"] else f" {sym} ")
        return "".join(out)

    # The state as the construction holds it: the Culture or Faith the state
    # region yields over the base or, as V's Railroads yield nothing, their count.
    resource = {"BE": "culture", "VI": "faith"}.get(args.ruleset)
    base = program.params.base_faith if args.ruleset == RULESET_VI else program.params.base_culture
    evidence_key = f"{resource}_delta" if resource else "railroads"
    print(f"tape cells {lo}..{hi}, head bracketed; state evidence: {evidence_key}")
    print(f"t00  state {boundaries[0]['state']:>3}  {render(boundaries[0])}")
    for record, entry in zip(report.records, boundaries[1:]):
        macro = record.macro
        did = "HALT" if macro is None or macro.halt else macro_paper_command(macro, args.ruleset, record.read)
        evidence = entry["yields"][resource] - base if resource else program.state_index_of[entry["state"]]
        print(
            f"t{record.index:02d}  state {entry['state']:>3}  {render(entry)}  "
            f"turns {record.turns:3d}  evidence {evidence}  | {did}"
        )
    summary = _summary(report)
    print(
        f"outcome: {summary['outcome']} after {summary['instructions']} instructions, "
        f"{summary['total_turns']} turns; tape holds {count_symbol(report.final_config, '1')} ones"
    )
    if args.out:
        _write_lines(args.out, _trace_lines(boundaries))
    return EXIT_OK if report.halted else EXIT_FAIL


def cmd_cost(args) -> int:
    tape, program = _compiled(args)
    report = harness.lockstep_verify(program.spec, args.ruleset, tape, args.max_instructions, program=program)
    if _diverged(report):
        return EXIT_FAIL
    over = harness.overhead_report(report)
    print(_dump({"overhead": over}))
    return EXIT_OK if over["paper_bound_satisfied"] and over["derived_bound_satisfied"] else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """Reports malformed arguments as one JSON error line, as ``main``
    reports every other error, instead of a usage text, and exits with
    status 2; its subparsers are of this class too."""

    def error(self, message):
        print(_dump({"error": f"{self.prog}: {message}"}), file=sys.stderr)
        self.exit(EXIT_PARSE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="civutm", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, machine_arg=True):
        if machine_arg:
            p.add_argument("machine", nargs="?", help="built-in machine name or JSON machine file")
            p.add_argument("--builtin", choices=BUILTIN_NAMES, help="use a built-in machine")
        p.add_argument("--ruleset", choices=RULESETS, default="BE")
        p.add_argument("--params", help="JSON file overriding ruleset parameters")
        p.add_argument("--max-instructions", type=int, default=1000)

    p_run = sub.add_parser("run", help="run a machine on the world engine")
    common(p_run)
    p_run.add_argument("--out", help="write the trace (JSON lines) to this file")
    p_run.add_argument("--tape", help="JSON file mapping cell index to symbol")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="lockstep-verify a machine against the reference interpreter")
    common(p_verify)
    p_verify.add_argument("--tape", help="JSON file mapping cell index to symbol")
    p_verify.add_argument("--seeds", "--seed", help="comma-separated seeds for a random-machine sweep")
    p_verify.add_argument("--random-states", type=int, default=5)
    p_verify.add_argument("--random-symbols", type=int, default=3)
    p_verify.set_defaults(func=cmd_verify)

    p_compile = sub.add_parser("compile", help="compile a machine into a command program")
    common(p_compile)
    p_compile.add_argument("--out", help="write the compiled program (JSON) to this file")
    p_compile.add_argument("--diff-fixture", action="store_true", help="diff against the shipped table fixture")
    p_compile.set_defaults(func=cmd_compile)

    p_demo = sub.add_parser("demo-bb3", help="run the three-state Busy Beaver with a text rendering")
    common(p_demo, machine_arg=False)
    p_demo.add_argument("--out", help="write the trace (JSON lines) to this file")
    p_demo.set_defaults(func=cmd_demo_bb3, machine="bb3", max_instructions=100)

    p_cost = sub.add_parser("cost", help="overhead report for a verified run")
    common(p_cost)
    p_cost.add_argument("--tape", help="JSON file mapping cell index to symbol")
    p_cost.set_defaults(func=cmd_cost)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout. Point it at the null device, so the flush
        # at exit cannot raise too, and end quietly: this is no usage error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    # A JSON file nested deeper than the parser can recurse raises RecursionError.
    except (CivUtmError, OSError, ValueError, RecursionError) as exc:
        print(_dump({"error": str(exc)}), file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
