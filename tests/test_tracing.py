"""The benchmark's tracer sees every layer it names.

``perfbench/tracing.py`` wraps the package's functions by rebinding module
attributes, so a call that does not go through such an attribute (a CLI
step entry called as the table holds it, say) leaves its layer at 0 calls
without failing anything.  This runs one operation of each kind under the
tracer, checks that each reached the layers it must reach, which between
them are all the tracer's layers, and that uninstalling puts every attribute
back.
"""

import importlib.util
import json
import sys
from pathlib import Path

import solvmaps.cli
import solvmaps.verify  # the tracer wraps each layer's module as imported; cli loads verify only to run it

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_attributes():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "solvmaps" or name.startswith("solvmaps.")
        for attr, value in vars(module).items()
    }


SQRT = {"alpha": [0, 1], "beta": [-1, 0], "gamma": [0, -1], "k": 1, "q": 1, "r": 3}
CUBIC = {"a": [1 / 3, 0], "b": [0, 1 / 3], "k": 1}
GENERALIZED = {"alpha": 1, "beta": 1, "B1": 1, "B2": 1, "C1": 1, "C2": 1, "C3": 0, "k": 1}
CONJUGATED = {**CUBIC, "A11": 1, "A12": 1, "A21": 0, "A22": 1}


def _iterate(system, params, layer):
    """A 3-step ``iterate`` of ``system``, which must reach its step layer."""
    argv = ["iterate", "--system", system, "--params", json.dumps(params),
            "--x0", "[1, [-2, -1]]", "--steps", "3"]
    return argv, {"cli", layer}


#: One run of each kind, and the layers it must reach.
RUNS = [
    (["iterate", "--system", "sqrt-cubic", "--params", json.dumps(SQRT),
      "--x0", "[1, [-2, -1]]", "--steps", "3"],
     {"cli", "stepmaps.step", "ysystem.step", "polybridge.invert", "numeric.cpow"}),
    (["iterate", "--system", "sqrt-quad", "--params", json.dumps(SQRT),
      "--x0", "[1, [-2, -1]]", "--steps", "3"],
     {"cli", "stepmaps.step", "ysystem.step", "polybridge.invert", "numeric.cpow"}),
    (["solve", "--system", "cubic-family", "--params", json.dumps(CUBIC),
      "--x0", "[[0, 1], [-1, -2]]", "--steps", "3"],
     {"cli", "solver", "ysystem.closed"}),
    (["verify", "--suites", "quad-family"],
     {"cli", "verify", "verify.enumerate", "numeric.compare", "stepmaps.step", "solver", "ysystem.closed"}),
    _iterate("y", SQRT, "ysystem.step"),
    _iterate("quad-family", CUBIC, "stepmaps.step"),
    _iterate("cubic-family", CUBIC, "stepmaps.step"),
    _iterate("generalized", GENERALIZED, "stepmaps.step"),
    _iterate("conjugated", CONJUGATED, "stepmaps.step"),
]


def test_every_layer_counts_calls_and_uninstall_restores(capsys):
    tracing = _load_tracing()
    assert set().union(*(layers for _, layers in RUNS)) == set(tracing.LAYERS)
    before = _package_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv, layers in RUNS:
            calls = {layer: stats[0] for layer, stats in tracer.stats.items()}
            # Looked up on the module, so the call goes through the tracer's wrapper.
            assert solvmaps.cli.main(argv) == 0
            missed = sorted(layer for layer in layers if tracer.stats[layer][0] == calls[layer])
            assert missed == [], argv[:3]
    finally:
        tracer.uninstall()
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
