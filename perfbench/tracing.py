"""Outside-in tracing of the solvmaps layers for the benchmark's traced runs.

Nothing under ``src/`` is instrumented.  :class:`Tracer` wraps the public
functions of each module and rebinds *every* module attribute that holds
one, because the modules import each other's functions by name
(``from .numeric import cpow``): patching ``numeric.cpow`` alone would miss
the calls made from ``ysystem``, ``stepmaps`` and ``polybridge``.  The CLI's
system table also holds three solver functions directly; it is swapped for a
copy that points at the wrappers while tracing is installed.

Every wrapped call adds its duration to its layer and to its caller's child
time, so a layer's self time is its own duration minus its wrapped
children.  Spans (operation, id, parent id, layer, start, end) are kept in
memory for the calls made while ``recording`` is set and written out at the
end; the ``numeric`` layers are aggregated only, since they are called far
too often to keep a span each.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

#: layer -> (module, public functions).  The layer names are the metric prefixes.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "numeric.cpow": ("numeric", ("cpow",)),
    "numeric.compare": ("numeric", ("approx_eq", "pair_eq_unordered", "pair_eq_ordered")),
    "ysystem.closed": ("ysystem", ("y_closed", "y_closed_special")),
    "ysystem.step": ("ysystem", ("y_step",)),
    "polybridge.invert": ("polybridge", ("quad_zeros", "cubic_zeros_branch", "cubic_zeros_printed")),
    "stepmaps.step": ("stepmaps", (
        "step_quadratic_family", "step_cubic_family", "double_step_cubic", "step_generalized",
        "step_sqrt_quadratic", "step_sqrt_cubic", "step_conjugated",
    )),
    "solver": ("solver", (
        "solve_quadratic_family", "solve_cubic_family", "solve_sqrt_quadratic",
        "solve_sqrt_cubic", "solve_generalized", "solve_conjugated",
    )),
    "verify.enumerate": ("verify", ("enumerate_sign_orbits",)),
    "verify": ("verify", ("run_verify",)),
    "cli": ("cli", ("main",)),
}

#: Layers recorded as aggregates only (no per-call span).
AGGREGATED = {"numeric.cpow", "numeric.compare"}


class Tracer:
    def __init__(self) -> None:
        # layer -> [calls, self seconds]
        self.stats: dict[str, list] = {layer: [0, 0.0] for layer in LAYERS}
        self.counts: dict[str, int] = defaultdict(int)
        self.exp_bits_max = 0
        self.spans: list[tuple] = []
        self.recording = False
        self.op = 0
        # Frames: [child seconds, layer, span id]; the bottom frame is the benchmark.
        self._stack: list[list] = [[0.0, "bench", None]]
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "solvmaps" or name.startswith("solvmaps.")]
        wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules[f"solvmaps.{module_name}"]
            for name in names:
                original = getattr(module, name)
                wrappers[id(original)] = (original, self._wrap(layer, original))

        def wrapped(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        for module in modules:
            for attr, value in list(vars(module).items()):
                if wrapped(value) is not value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapped(value))
        cli = sys.modules["solvmaps.cli"]
        self._undo.append((cli, "_SYSTEMS", cli._SYSTEMS))
        cli._SYSTEMS = {
            name: dataclasses.replace(spec, solve=wrapped(spec.solve)) for name, spec in cli._SYSTEMS.items()
        }

    def uninstall(self) -> None:
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    # --- wrappers -------------------------------------------------------

    def _wrap(self, layer: str, fn):
        if layer == "numeric.cpow":
            return self._wrap_cpow(fn)
        stats = self.stats[layer]
        stack = self._stack
        spans = self.spans
        ids = self._ids
        perf = time.perf_counter
        after = _AFTER.get(fn.__name__)
        aggregated = layer in AGGREGATED
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, layer, None]
            if tracer.recording and not aggregated:
                frame[2] = next(ids)
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                stats[0] += 1
                stats[1] += dt - frame[0]
                if frame[2] is not None:
                    spans.append((tracer.op, frame[2], parent[2], layer, t0, t1))
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _wrap_cpow(self, fn):
        stats = self.stats["numeric.cpow"]
        stack = self._stack
        counts = self.counts
        perf = time.perf_counter
        tracer = self

        def cpow(z, n, step=None):
            t0 = perf()
            try:
                return fn(z, n, step=step)
            finally:
                dt = perf() - t0
                top = stack[-1]
                top[0] += dt
                stats[0] += 1
                stats[1] += dt
                bits = (n if n >= 0 else -n).bit_length()
                counts["numeric.cpow.exp_bits"] += bits
                if top[1] == "ysystem.closed" and bits > tracer.exp_bits_max:
                    tracer.exp_bits_max = bits

        return cpow

    # --- operations and output -----------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        if self.recording:
            self._stack[0][2] = next(self._ids)
            self._op_start = time.perf_counter()

    def end_op(self) -> None:
        if self.recording:
            self.spans.append((self.op, self._stack[0][2], None, "op", self._op_start, time.perf_counter()))
        self._stack[0][2] = None

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("op", "id", "parent", "layer", "start", "end")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, ops: int, op_seconds: float) -> dict[str, float]:
        """Per-operation counts and self-time shares (percent of traced op time)."""
        m: dict[str, float] = {}

        def calls(layer: str) -> float:
            return self.stats[layer][0] / ops

        def self_pct(layer: str) -> float:
            return 100.0 * self.stats[layer][1] / op_seconds if op_seconds else 0.0

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        c = self.counts
        m["numeric.cpow.calls"] = calls("numeric.cpow")
        m["numeric.cpow.self_pct"] = self_pct("numeric.cpow")
        m["numeric.cpow.exp_bits"] = c["numeric.cpow.exp_bits"] / ops
        m["numeric.compare.calls"] = calls("numeric.compare")
        m["numeric.compare.self_pct"] = self_pct("numeric.compare")
        m["ysystem.closed.calls"] = calls("ysystem.closed")
        m["ysystem.closed.self_pct"] = self_pct("ysystem.closed")
        m["ysystem.closed.terms"] = c["ysystem.closed.terms"] / ops
        m["ysystem.exp_bits.max"] = float(self.exp_bits_max)
        m["ysystem.step.calls"] = calls("ysystem.step")
        m["ysystem.step.self_pct"] = self_pct("ysystem.step")
        m["polybridge.invert.calls"] = calls("polybridge.invert")
        m["polybridge.invert.self_pct"] = self_pct("polybridge.invert")
        m["stepmaps.step.calls"] = calls("stepmaps.step")
        m["stepmaps.step.self_pct"] = self_pct("stepmaps.step")
        m["solver.solve.calls"] = calls("solver")
        m["solver.self_pct"] = self_pct("solver")
        m["solver.steps_delivered"] = c["solver.steps_delivered"] / ops
        m["solver.truncated"] = c["solver.truncated"] / ops
        m["verify.enumerate.calls"] = calls("verify.enumerate")
        m["verify.enumerate.candidates"] = c["verify.enumerate.candidates"] / ops
        m["verify.enumerate.self_pct"] = self_pct("verify.enumerate")
        m["verify.enumerate.kept_ratio"] = ratio(c["verify.enumerate.kept"], c["verify.enumerate.candidates"])
        m["verify.skipped_ratio"] = ratio(c["verify.skipped"], c["verify.draws"])
        m["verify.self_pct"] = self_pct("verify")
        m["cli.self_pct"] = self_pct("cli")
        return m


# --- counters taken from arguments and results, keyed by function name ----


def _after_y_closed(tracer: Tracer, args, kwargs, result) -> None:
    p = args[0] if args else kwargs["p"]
    ell = args[2] if len(args) > 2 else kwargs["ell"]
    if p.gamma != 0:
        tracer.counts["ysystem.closed.terms"] += ell


def _after_solve(tracer: Tracer, args, kwargs, result) -> None:
    if tracer._stack[-1][1] == "solver":
        return  # solve_conjugated delegates to solve_cubic_family; count the outer call only
    tracer.counts["solver.steps_delivered"] += len(result.entries)
    tracer.counts["solver.truncated"] += result.overflow_at is not None


def _after_enumerate(tracer: Tracer, args, kwargs, result) -> None:
    levels = result[0]
    # Every state of every level but the last is expanded under both signs.
    tracer.counts["verify.enumerate.candidates"] += 2 * sum(len(level) for level in levels[:-1])
    tracer.counts["verify.enumerate.kept"] += sum(len(level) for level in levels[1:])


def _after_run_verify(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["verify.draws"] += sum(s.draws for s in result.suites)
    tracer.counts["verify.skipped"] += sum(s.skipped for s in result.suites)


_AFTER = {
    "y_closed": _after_y_closed,
    **{name: _after_solve for name in LAYERS["solver"][1]},
    "enumerate_sign_orbits": _after_enumerate,
    "run_verify": _after_run_verify,
}
