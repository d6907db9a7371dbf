"""Mutation gate: each named source mutant must make the tier-1 tests fail.

A mutant is one text replacement in one file under ``src/civutm``. Each is
applied to a fresh temporary copy of ``src/``, ``tests/`` and
``pyproject.toml``, and the test files that cover the mutated code run with
``pytest -x``, one mutant per CPU at a time. Hypothesis tests are
deselected, so a kill does not depend on a random draw. Every chosen
mutant's text must occur exactly once in its file, or the run names all
that do not in one JSON error line and exits 2 before any test runs. The
unmutated copy runs first; if it fails, nothing is judged. Prints the kill
matrix as JSON lines, in ``MUTANTS`` order, and exits 1 unless every mutant
is killed.

Usage (from the repository root; stdlib plus the test dependencies)::

    python3 mutcheck/run.py            # every mutant
    python3 mutcheck/run.py NAME ...   # the named ones
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]


HARNESS = "src/civutm/harness.py"
CODEC = "src/civutm/codec.py"
WORLD = "src/civutm/world.py"
CLI = "src/civutm/cli.py"
CONTROLLER = "src/civutm/controller.py"

MUTANTS = (
    # The lockstep compare in harness.lockstep: the world read on its state,
    # its head, the cells its tape recorded as written and the oracle's cell.
    Mutant("oracle-cell-left-out", HARNESS, "cells.add(oracle_cell)", "pass", ("tests/test_harness.py",)),
    Mutant("state-compare-dropped", HARNESS, " and read[0] == oracle.state", "", ("tests/test_harness.py",)),
    Mutant("head-compare-dropped", HARNESS, " and read[2] == oracle.head", "", ("tests/test_harness.py",)),
    Mutant(
        "cell-compare-dropped",
        HARNESS,
        "if agrees:  # on the cells that can have changed",
        "if False:  # on the cells that can have changed",
        ("tests/test_harness.py",),
    ),
    Mutant(
        "cell-compare-keeps-last-cell-only",
        HARNESS,
        "if read[1].get(cell) != oracle.tape.get(cell):\n"
        "                        agrees = False\n"
        "                        break\n",
        "agrees = read[1].get(cell) == oracle.tape.get(cell)\n",
        ("tests/test_harness.py",),
    ),
    Mutant(
        "cell-compare-stops-before-first-cell",
        HARNESS,
        "for cell in cells:\n                    if read[1].get(cell) != oracle.tape.get(cell):",
        "for cell in cells:\n                    break\n                    if read[1].get(cell) != oracle.tape.get(cell):",
        ("tests/test_harness.py",),
    ),
    Mutant(
        "final-decode-dropped",
        HARNESS,
        "if report.outcome != DIVERGED and codec.decode(world, program) != report.final_config:",
        "if False:",
        ("tests/test_harness.py",),
    ),
    Mutant(
        "reader-skips-state-without-writes",
        HARNESS,
        "            cells = world.tape.take_written()\n"
        "            cells.add(oracle_cell)\n"
        "            read = codec.read_cells(world, program, cells)\n"
        "            agrees = read is not None and read[0] == oracle.state and read[2] == oracle.head\n",
        "            cells = world.tape.take_written()\n"
        "            written = bool(cells)\n"
        "            cells.add(oracle_cell)\n"
        "            read = codec.read_cells(world, program, cells)\n"
        "            agrees = read is not None and (not written or read[0] == oracle.state and read[2] == oracle.head)\n",
        ("tests/test_codec.py", "tests/test_harness.py", "tests/test_cli.py"),
    ),
    Mutant(
        "changed-cell-not-applied",
        HARNESS,
        "yield record, oracle, {oracle_cell: after} if after != before else {}",
        "yield record, oracle, {}",
        ("tests/test_codec.py", "tests/test_harness.py", "tests/test_cli.py"),
    ),
    # A run is described by its program alone: lockstep refuses a program of
    # another ruleset or machine.
    Mutant(
        "program-refusal-dropped",
        HARNESS,
        "if program.ruleset != ruleset or program.spec != spec:",
        "if False:",
        ("tests/test_harness.py",),
    ),
    Mutant("program-machine-unchecked", HARNESS, " or program.spec != spec:", ":", ("tests/test_harness.py",)),
    # The one symbol rule in codec.read_cells, which decode shares.
    Mutant(
        "boundary-check-dropped",
        CODEC,
        "if not world.at_boundary():\n        return None",
        "if False:\n        return None",
        ("tests/test_codec.py", "tests/test_harness.py"),
    ),
    # The final decode again, judged by the CLI's tests alone.
    Mutant(
        "cli-final-decode-dropped",
        HARNESS,
        "if report.outcome != DIVERGED and codec.decode(world, program) != report.final_config:",
        "if False:",
        ("tests/test_cli.py",),
    ),
    # A CLI run that diverged prints its lockstep line and no trace.
    Mutant(
        "run-divergence-ignored",
        CLI,
        "if report.first_divergence is None:\n        return False",
        "if True:\n        return False",
        ("tests/test_cli.py",),
    ),
    # The tape's one write path.
    Mutant(
        "tape-write-not-recorded",
        WORLD,
        "self._written.add(cell)\n",
        "\n",
        ("tests/test_codec.py", "tests/test_harness.py", "tests/test_cli.py"),
    ),
    # RulesetParams checks itself when made.
    Mutant(
        "params-check-skipped",
        WORLD,
        "def __post_init__(self) -> None:",
        "def _unused_check(self) -> None:",
        ("tests/test_world.py",),
    ),
    Mutant(
        "validate-published-bound-dropped",
        WORLD,
        "if self.remove_or_repair_turns != 1:",
        "if False:",
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    Mutant("validate-food-dropped", WORLD, "if income < upkeep:", "if False:", ("tests/test_world.py",)),
    Mutant(
        "validate-zero-culture-dropped",
        WORLD,
        "if self.ruleset == RULESET_BE and self.terrascape_culture < 1:",
        "if False:",
        ("tests/test_world.py", "tests/test_cli.py"),
    ),
    Mutant(
        "validate-zero-faith-dropped",
        WORLD,
        "if self.monastery_faith < 1:",
        "if False:",
        ("tests/test_world.py", "tests/test_cli.py"),
    ),
    # world.skip_quiet_turns, one event term each.
    Mutant(
        "skip-growth-event-late",
        WORLD,
        "event = city.growing_since + p.city_growth_turns\n",
        "event = city.growing_since + p.city_growth_turns + 1\n",
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    Mutant(
        "skip-starvation-event-late",
        WORLD,
        "event = turn + city.food_stock(turn) // -city._delta + 1\n",
        "event = turn + city.food_stock(turn) // -city._delta + 2\n",
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    # The VI scan's running minimum keeps the earliest event, not the first.
    Mutant(
        "running-minimum-keeps-first-vi-event",
        WORLD,
        "p.city_growth_turns\n                if nearest is None or event < nearest:",
        "p.city_growth_turns\n                if nearest is None:",
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    # The skip's one job rule and its span: BE and V read the jobs table alone.
    Mutant(
        "skip-quiet-one-turn-long",
        WORLD,
        "quiet = -1 if nearest is None else nearest - turn - 1",
        "quiet = -1 if nearest is None else nearest - turn",
        ("tests/test_world.py",),
    ),
    Mutant(
        "skip-quiet-one-turn-short",
        WORLD,
        "quiet = -1 if nearest is None else nearest - turn - 1",
        "quiet = -1 if nearest is None else nearest - turn - 2",
        ("tests/test_world.py",),
    ),
    Mutant(
        "be-v-skip-taken-on-vi",
        WORLD,
        "    if vi:\n        for index in world._live:\n",
        "    if False:\n        for index in world._live:\n",
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    Mutant(
        "skip-production-short",
        WORLD,
        "event = city.training_since - -city.training_cost // p.production_per_turn",
        "event = city.training_since + 1 - -city.training_cost // p.production_per_turn",
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    # The VI food cache: cached deltas, live set, lazy stocks.
    Mutant(
        "set-worked-delta-not-rederived",
        WORLD,
        'world.tape[command.cell] = "worked" if command.worked else "unworked"\n        _rederive(world, city)\n',
        'world.tape[command.cell] = "worked" if command.worked else "unworked"\n',
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    # Growth reads through the clock: training a city at its cap restarts it.
    Mutant(
        "growth-clock-not-restarted-by-training",
        WORLD,
        "if city.citizens == city.growth_cap:\n                    city.growing_since = world.turn - 1",
        "if False:\n                    city.growing_since = world.turn - 1",
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    Mutant(
        "birth-delta-not-rederived",
        WORLD,
        "city.citizens += 1\n                _rederive(world, city)\n",
        "city.citizens += 1\n",
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    Mutant(
        "negative-delta-city-not-live",
        WORLD,
        "or city.citizens < city.growth_cap or delta < 0:",
        "or city.citizens < city.growth_cap:",
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    Mutant(
        "rederive-keeps-old-delta",
        WORLD,
        "city._food, city._delta = stock - delta * world.turn, delta",
        "city._food, city._delta = stock - city._delta * world.turn, delta",
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    Mutant(
        "founding-turn-food-skipped",
        WORLD,
        "city._food += city._delta",
        "pass",
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    Mutant(
        "first-turn-visit-dropped",
        WORLD,
        "visited = world.cities if world.min_food_observed is None else world._live",
        "visited = world._live",
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    Mutant(
        "first-skip-visit-dropped",
        WORLD,
        "min(city.food_stock(turn + 1) for city in world.cities.values())",
        "min((world.cities[index].food_stock(turn + 1) for index in world._live), default=None)",
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    Mutant(
        "lone-live-city-not-copied",
        WORLD,
        "if len(visited) > 1 else list(visited):",
        "if len(visited) > 1 else visited:",
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    Mutant(
        "city-food-counts-first-cell-only",
        WORLD,
        '(get(cell) == "worked") + (get(cell + 1) == "worked")',
        '(get(cell) == "worked")',
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    Mutant(
        "starving-turn-feeds-later-cities",
        WORLD,
        "later._food -= later._delta",
        "pass",
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    # The event log's references: the instruction record and the issued job.
    Mutant(
        "instruction-end-logged-before-run",
        CONTROLLER,
        "    if ruleset == RULESET_VI:\n"
        "        _execute_vi(world, macro, head, game_read, record)\n"
        "    else:\n"
        "        _execute_be_v(world, macro, head, game_read, record)\n\n"
        "    record.turns = world.turn - start_turn\n"
        '    world.event_log.append((world.turn, "controller", "instruction_end", record))\n',
        '    world.event_log.append((world.turn, "controller", "instruction_end", record))\n'
        "    if ruleset == RULESET_VI:\n"
        "        _execute_vi(world, macro, head, game_read, record)\n"
        "    else:\n"
        "        _execute_be_v(world, macro, head, game_read, record)\n\n"
        "    record.turns = world.turn - start_turn\n",
        ("tests/test_harness.py",),
    ),
    Mutant(
        "issue-entry-logs-command",
        WORLD,
        "world.event_log.append((world.turn, unit_id, op, job))",
        "world.event_log.append((world.turn, unit_id, op, command))",
        ("tests/test_controller.py", "tests/test_harness.py"),
    ),
    # The snapshot's state region, read from the params.
    Mutant(
        "snapshot-base-yield-swapped",
        WORLD,
        '"base_yield": p.base_faith if vi else p.base_culture,',
        '"base_yield": p.base_culture if vi else p.base_faith,',
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    # The one macro constructor in controller.compile_program, whose macros
    # every program shares, so a macro must stay frozen.
    Mutant(
        "command-macro-not-frozen",
        CONTROLLER,
        "@dataclass(frozen=True)\nclass CommandMacro:",
        "@dataclass\nclass CommandMacro:",
        ("tests/test_controller.py",),
    ),
    # The symbol map every program of one shape shares, so it must stay
    # read-only.
    Mutant(
        "shared-symbol-map-writable",
        CODEC,
        "return MappingProxyType(mapping)",
        "return mapping",
        ("tests/test_controller.py",),
    ),
    Mutant(
        "halt-macro-keeps-move",
        CONTROLLER,
        "head_move=None if halt else rule.move,",
        'head_move="R" if halt else rule.move,',
        ("tests/test_controller.py", "tests/test_harness.py"),
    ),
    # The jobs table and the BE/V scheduler.
    Mutant(
        "drive-busy-check-misread",
        CONTROLLER,
        "uid not in jobs",
        "True",
        ("tests/test_controller.py", "tests/test_harness.py"),
    ),
    Mutant(
        "unit-issues-player-op",
        WORLD,
        "if op in _INSTANT_OPS:\n            raise",
        "if False:\n            raise",
        ("tests/test_world.py",),
    ),
    Mutant(
        "apply-busy-check-dropped",
        WORLD,
        "if job is not None:\n            raise IllegalCommand(f\"unit {unit_id} is busy",
        "if False:\n            raise IllegalCommand(f\"unit {unit_id} is busy",
        ("tests/test_world.py",),
    ),
    Mutant(
        "jobs-complete-in-issue-order",
        WORLD,
        "for uid in sorted(jobs):",
        "for uid in list(jobs):",
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    Mutant(
        "rover-gate-dropped",
        CONTROLLER,
        'lanes.append((ROVER, rover, lambda w: w.tape.get(head) == "road"))',
        "lanes.append((ROVER, rover, None))",
        ("tests/test_acceptance.py", "tests/test_harness.py"),
    ),
    # The one boundary: the drive ends at it, a VI city below its cap holds
    # it back, and a lane waits for its unit to exist.
    Mutant(
        "drive-ends-on-jobs-alone",
        CONTROLLER,
        "if not waiting and not jobs and world.at_boundary():",
        "if not waiting and not jobs:",
        ("tests/test_acceptance.py", "tests/test_controller.py", "tests/test_harness.py"),
    ),
    Mutant(
        "boundary-ignores-cap",
        WORLD,
        "if city.training_cost is not None or city.citizens < city.growth_cap:\n                return False",
        "if city.training_cost is not None:\n                return False",
        ("tests/test_acceptance.py", "tests/test_controller.py", "tests/test_harness.py"),
    ),
    Mutant(
        "drive-issues-to-absent-unit",
        CONTROLLER,
        "uid not in jobs and uid in units and",
        "uid not in jobs and",
        ("tests/test_acceptance.py", "tests/test_controller.py", "tests/test_harness.py"),
    ),
    Mutant(
        "drive-returns-with-a-command-left",
        CONTROLLER,
        "            if queue:\n                waiting = True\n",
        "",
        ("tests/test_controller.py", "tests/test_harness.py"),
    ),
    # The one table of tape writes: V's build-road and build-railroad rows
    # with their ops swapped, and V's road-to-railroad row without its removal.
    Mutant(
        "tape-plan-entry-swapped",
        CONTROLLER,
        '("none", "road"): ("build_road", ("build_road",), ()),\n'
        '        ("none", "railroad"): ("build_railroad", ("build_railroad",), ()),',
        '("none", "road"): ("build_road", ("build_railroad",), ()),\n'
        '        ("none", "railroad"): ("build_railroad", ("build_road",), ()),',
        ("tests/test_controller.py", "tests/test_harness.py"),
    ),
    Mutant(
        "remove-first-check-dropped",
        CONTROLLER,
        '("road", "railroad"): ("build_railroad", ("remove_improvement", "build_railroad"), ()),',
        '("road", "railroad"): ("build_railroad", ("build_railroad",), ()),',
        ("tests/test_controller.py", "tests/test_harness.py"),
    ),
    # A VI macro's write is carried out as written, not inverted.
    Mutant(
        "vi-write-inverted",
        CONTROLLER,
        'Command(op="set_worked", cell=head, worked=write == "worked")',
        'Command(op="set_worked", cell=head, worked=write != "worked")',
        ("tests/test_harness.py",),
    ),
    # The derived bound folds the whole plan over the world's durations.
    Mutant(
        "macro-turns-rover-dropped",
        HARNESS,
        "for op in (*worker_ops, *rover_ops))",
        "for op in worker_ops)",
        ("tests/test_harness.py",),
    ),
    # Commands fail closed on a missing or mistyped target.
    Mutant(
        "tape-cell-type-unchecked",
        WORLD,
        'if type(command.cell) is not int:\n            raise _mistyped(command, "cell", int)\n        if world.units[unit_id]',
        "if world.units[unit_id]",
        ("tests/test_world.py",),
    ),
    Mutant("move-target-type-unchecked", WORLD, "if type(command.to) is not int:", "if False:", ("tests/test_world.py",)),
    Mutant(
        "state-region-any-unit",
        WORLD,
        "if unit_id != STATE_WORKER:",
        "if False:",
        ("tests/test_world.py",),
    ),
    # Units act where they stand: faults a lockstep compare cannot see.
    Mutant(
        "head-moves-before-its-build",
        CONTROLLER,
        "    if macro.head_move is not None:\n"
        '        worker.append(Command("move", None, head + (1 if macro.head_move == "R" else -1)))\n'
        "        record.movement_turns = move_turns(world.params, TAPE_WORKER, 1)\n"
        "    for op in reversed(worker_ops):\n"
        "        worker.append(Command(op, head))\n",
        "    for op in reversed(worker_ops):\n"
        "        worker.append(Command(op, head))\n"
        "    if macro.head_move is not None:\n"
        '        worker.append(Command("move", None, head + (1 if macro.head_move == "R" else -1)))\n'
        "        record.movement_turns = move_turns(world.params, TAPE_WORKER, 1)\n",
        ("tests/test_controller.py", "tests/test_harness.py"),
    ),
    Mutant(
        "settler-founds-without-moving",
        CONTROLLER,
        'settler = [Command(op="found_city", city=new_index), Command(op="move", to=params.city_spacing * new_index)]',
        'settler = [Command(op="found_city", city=new_index)]',
        ("tests/test_controller.py", "tests/test_harness.py"),
    ),
    # The one move rule: a VI tape cell spans city_spacing // 2 hexes.
    Mutant(
        "move-turns-vi-factor-dropped",
        WORLD,
        "cells *= params.city_spacing // 2",
        "pass",
        ("tests/test_world.py", "tests/test_harness.py"),
    ),
    # The units each ruleset starts with.
    Mutant(
        "start-units-rover-dropped",
        WORLD,
        "RULESET_BE: (TAPE_WORKER, STATE_WORKER, ROVER),",
        "RULESET_BE: (TAPE_WORKER, STATE_WORKER),",
        ("tests/test_world.py", "tests/test_acceptance.py"),
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _stale(mutants: list[Mutant]) -> dict[str, int]:
    """Each mutant whose text to replace does not occur exactly once in its
    file, with the number of times it does occur."""
    counts = {m.name: (ROOT / m.path).read_text().count(m.old) for m in mutants}
    return {name: count for name, count in counts.items() if count != 1}


def _apply(dest: Path, mutant: Mutant) -> None:
    path = dest / mutant.path
    path.write_text(path.read_text().replace(mutant.old, mutant.new))


def _pytest(dest: Path, tests: tuple[str, ...]) -> tuple[int, str, float]:
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-m", "not hypothesis", *tests]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=dest, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout, time.perf_counter() - start


def _first_failure(output: str) -> str | None:
    match = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return match.group(1) if match else None


def _judge(tmp: Path, mutant: Mutant) -> dict:
    dest = tmp / mutant.name
    _copy(dest)
    _apply(dest, mutant)
    status, output, seconds = _pytest(dest, mutant.tests)
    shutil.rmtree(dest)
    # pytest exits 1 when a test failed; any other status means the mutant
    # did not run (an import error, say), which proves nothing.
    verdict = {0: "survived", 1: "killed"}.get(status, f"error (pytest status {status})")
    row = {"mutant": mutant.name, "file": mutant.path, "verdict": verdict, "killed_by": _first_failure(output)}
    return {**row, "s": round(seconds, 1)}


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(json.dumps({"error": f"unknown mutants: {sorted(unknown)}"}), file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    stale = _stale(chosen)
    if stale:
        error = {"error": "the text to replace must occur exactly once", "occurrences": stale}
        print(json.dumps(error), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutcheck-") as tmp:
        baseline = Path(tmp) / "baseline"
        _copy(baseline)
        files = tuple(sorted({test for m in chosen for test in m.tests}))
        status, output, seconds = _pytest(baseline, files)
        if status != 0:
            print(output)
            print(json.dumps({"error": "the unmutated tests fail", "status": status}), file=sys.stderr)
            return 2
        print(json.dumps({"baseline": "passed", "tests": list(files), "s": round(seconds, 1)}))
        survivors = 0
        with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
            for row in pool.map(lambda mutant: _judge(Path(tmp), mutant), chosen):
                survivors += row["verdict"] != "killed"
                print(json.dumps(row), flush=True)
    print(json.dumps({"mutants": len(chosen), "killed": len(chosen) - survivors}))
    return 0 if survivors == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
