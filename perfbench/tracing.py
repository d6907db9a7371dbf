"""Per-layer spans and counters, recorded from outside the program.

The tracer replaces module attributes that civutm's own callers look up
(``harness.step``, ``controller.advance_turn`` ...) with wrappers that record
a span (layer, start, end, parent span, verification id) and read counts off
the arguments and results. Spans stay in memory until the run ends. A layer's
self time is its spans' duration minus the time covered by their child spans.

A target that no longer exists, or that nothing called in a pass, is
reported as untraced by name; its metrics are left out, never given as 0.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute the callers look up) -> layer the span times.
TARGETS = {
    ("harness", "lockstep_verify"): "harness.lockstep_verify",
    ("harness", "random_tm"): "harness.random_tm",
    ("harness", "compile_program"): "controller.compile_program",
    ("harness", "init_world"): "world.init_world",
    ("harness", "step"): "tm.step",
    ("harness", "execute_instruction"): "controller.execute_instruction",
    ("codec", "decode"): "codec.decode",
    ("controller", "advance_turn"): "world.advance_turn",
    ("controller", "apply_command"): "world.apply_command",
    ("controller", "extend_tape"): "controller.extend_tape",
    ("tm", "run"): "tm.run",
}

# (metric, unit, layer it is read from). A metric ending in .calls, .s or
# .self_s is the layer's span count, total or self time; .quiet_frac is the
# share of calls that logged no event; any other is a counter of that name.
PER_LAYER = [
    ("world.advance_turn.calls", "count", "world.advance_turn"),
    ("world.advance_turn.s", "s", "world.advance_turn"),
    ("world.advance_turn.quiet_frac", "fraction", "world.advance_turn"),
    ("world.turns", "count", "harness.lockstep_verify"),
    ("world.cities", "count", "harness.lockstep_verify"),
    ("world.events", "count", "harness.lockstep_verify"),
    ("codec.decode.calls", "count", "codec.decode"),
    ("codec.decode.s", "s", "codec.decode"),
    ("codec.decode.cells", "count", "codec.decode"),
    ("tm.step.s", "s", "tm.step"),
    ("tm.step.cells_copied", "count", "tm.step"),
    ("tm.run.s", "s", "tm.run"),
    ("tm.run.trace_cells", "count", "tm.run"),
    ("controller.execute_instruction.calls", "count", "controller.execute_instruction"),
    ("controller.execute_instruction.self_s", "s", "controller.execute_instruction"),
    ("world.apply_command.calls", "count", "world.apply_command"),
    ("world.apply_command.s", "s", "world.apply_command"),
    ("controller.extend_tape.calls", "count", "controller.extend_tape"),
    ("controller.extend_tape.self_s", "s", "controller.extend_tape"),
    ("controller.compile_program.s", "s", "controller.compile_program"),
    ("world.init_world.s", "s", "world.init_world"),
    ("harness.random_tm.s", "s", "harness.random_tm"),
    ("harness.lockstep_verify.self_s", "s", "harness.lockstep_verify"),
]
TIME_SUFFIXES = (".s", ".self_s")


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.spans: list = []  # (layer, start, end, parent index or -1, verification id)
        self.counts: Counter = Counter()
        self.missing: dict[str, str] = {}  # layer -> why it could not be wrapped
        self.vid = None  # id of the verification in progress
        self._stack: list[int] = []

    def _hooks(self, layer: str):
        """(before, after) readers of a layer's counts; either may be None.

        ``before(args)`` runs ahead of the call and its return value is
        passed to ``after(args, result, token)``. Neither is timed.
        """
        counts = self.counts
        before = after = None
        if layer == "codec.decode":

            def before(args):
                counts["codec.decode.cells"] += len(args[0].tape)

        elif layer == "tm.step":

            def before(args):
                counts["tm.step.cells_copied"] += len(args[1].tape)

        elif layer == "world.advance_turn":

            def before(args):
                return len(args[0].event_log)

            def after(args, result, events_before):
                counts["world.advance_turn.quiet"] += len(args[0].event_log) == events_before

        elif layer == "tm.run":

            def after(args, result, token):
                counts["tm.run.trace_cells"] += sum(len(config.tape) for config in result.trace)

        elif layer == "harness.lockstep_verify":

            def before(args):
                self.vid = 0 if self.vid is None else self.vid + 1

            def after(args, result, token):
                world = result.world
                counts["world.turns"] += world.turn
                counts["world.cities"] += len(world.cities)
                counts["world.events"] += len(world.event_log)

        return before, after

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = self._hooks(layer)

        def traced(*args, **kwargs):
            token = before(args) if before else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.vid)
            if after:
                after(args, result, token)
            return result

        return traced

    @contextmanager
    def installed(self, lib):
        """Wrap every target in ``lib``'s modules; restore them on exit."""
        saved = []
        try:
            for (module_name, attr), layer in TARGETS.items():
                module = getattr(lib, module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing[layer] = f"{module_name}.{attr} does not exist"
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def layer_stats(self) -> dict[str, dict]:
        """Per layer: span count, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (layer, start, end, _, _), covered in zip(self.spans, child):
            entry = stats[layer]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered
        return dict(stats)

    def untraced(self) -> dict[str, str]:
        """Layers without measurements: target missing or never called."""
        called = {span[0] for span in self.spans}
        out = dict(self.missing)
        for layer in TARGETS.values():
            if layer not in called and layer not in out:
                out[layer] = "never called"
        return out

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric whose layer was traced."""
        stats = self.layer_stats()
        untraced = self.untraced()
        out = {}
        for name, _, layer in PER_LAYER:
            if layer in untraced:
                continue
            entry = stats[layer]
            if name.endswith(".quiet_frac"):
                out[name] = self.counts["world.advance_turn.quiet"] / entry["calls"]
            elif name.endswith(".self_s"):
                out[name] = entry["self_s"]
            elif name.endswith(".s"):
                out[name] = entry["s"]
            elif name.endswith(".calls"):
                out[name] = entry["calls"]
            else:
                out[name] = self.counts[name]
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span; times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for layer, start, end, parent, vid in self.spans:
                out.write(json.dumps([layer, round(start - origin, 9), round(end - origin, 9), parent, vid]) + "\n")
