"""Command-line front end: iterate orbits, evaluate closed-form solutions,
run verification suites, and export data.

Exit codes: 0 success, 1 a verify property failed, 2 configuration, usage or
parameter error, 3 numeric error (the message names the failing step).
``--params`` and ``--x0`` are JSON.  Complex values are accepted as plain
numbers, ``re+imi`` strings, or ``[re, im]`` arrays, and always emitted in the
canonical ``[re, im]`` form (CSV splits them into ``_re``/``_im`` columns).
A reader that closes the output early also exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields
from typing import Callable, ContextManager, Sequence, TextIO

from .errors import ConfigError, NumericError, SolvmapsError
from .numeric import (
    MINUS,
    PLUS,
    ComplexPair,
    Sign,
    complex_from_obj,
    ensure_all_finite,
    is_finite,
)
from .solver import (
    BranchSolution,
    solve_conjugated,
    solve_cubic_family,
    solve_generalized,
    solve_quadratic_family,
    solve_sqrt_cubic,
    solve_sqrt_quadratic,
    solve_y,
)
from .stepmaps import (
    CubicFamilyParams,
    GeneralizedParams,
    LinearChange,
    QuadraticFamilyParams,
    step_conjugated,
    step_cubic_family,
    step_generalized,
    step_quadratic_family,
    step_sqrt_cubic,
    step_sqrt_quadratic,
)
from .verify import SUITE_NAMES, run_verify
from .ysystem import YParams, YState, y_step

_INT_PARAMS = {"k", "q", "r"}


@dataclass(frozen=True)
class SystemSpec:
    """One CLI system, read off its parameter types.

    ``--params`` holds the ``init`` fields of each type, in order, and the
    system's parameters are one instance of each type (a tuple of them when
    there are several).  An unsigned system's step ignores the sign, and its
    rows have no ``branch`` column: its state is the coefficient pair itself.
    """

    types: tuple[type, ...]
    step: Callable[[object, Sign, ComplexPair], ComplexPair]
    solve: Callable[[object, ComplexPair, int], BranchSolution]
    signed: bool = True

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(name for cls in self.types for name in _init_names(cls))

    def build(self, params: dict) -> object:
        built = [cls(**{name: params[name] for name in _init_names(cls)}) for cls in self.types]
        return built[0] if len(built) == 1 else tuple(built)


def _init_names(cls: type) -> list[str]:
    return [f.name for f in fields(cls) if f.init]


# Each step entry looks its map up by name at every call, so a rebound module attribute is used.
_SYSTEMS: dict[str, SystemSpec] = {
    "y": SystemSpec(
        (YParams,), lambda p, s, y: y_step(p, YState(*y)), solve_y, signed=False
    ),
    "quad-family": SystemSpec(
        (QuadraticFamilyParams,),
        lambda p, s, x: step_quadratic_family(p, s, x),
        solve_quadratic_family,
    ),
    "cubic-family": SystemSpec(
        (CubicFamilyParams,), lambda p, s, x: step_cubic_family(p, s, x), solve_cubic_family
    ),
    "generalized": SystemSpec(
        (GeneralizedParams,), lambda p, s, x: step_generalized(p, s, x), solve_generalized
    ),
    "sqrt-quad": SystemSpec(
        (YParams,), lambda p, s, x: step_sqrt_quadratic(p, s, x), solve_sqrt_quadratic
    ),
    "sqrt-cubic": SystemSpec(
        (YParams,), lambda p, s, x: step_sqrt_cubic(p, s, x), solve_sqrt_cubic
    ),
    "conjugated": SystemSpec(
        (CubicFamilyParams, LinearChange),
        lambda p, s, x: step_conjugated(p[1], p[0], s, x),
        lambda p, x0, n: solve_conjugated(p[1], p[0], x0, n),
    ),
}


def _load_json(option: str, raw: str | None) -> object:
    if raw is None:
        raise ConfigError(f"{option} is required")
    try:
        return json.loads(raw)
    except ValueError as exc:  # also an integer past the interpreter's digit limit
        raise ConfigError(f"{option} is not valid JSON: {exc}") from exc


def _parse_params(system: str, raw: str | None) -> dict:
    names = _SYSTEMS[system].param_names
    obj = _load_json("--params", raw)
    if not isinstance(obj, dict):
        raise ConfigError("--params must be a JSON object")
    missing = [name for name in names if name not in obj]
    if missing:
        raise ConfigError(f"missing parameters for {system!r}: {', '.join(missing)}")
    unknown = [name for name in obj if name not in names]
    if unknown:
        raise ConfigError(f"unknown parameters for {system!r}: {', '.join(map(repr, unknown))}")
    params: dict = {}
    for name in names:
        value = obj[name]
        if name in _INT_PARAMS:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"parameter {name!r} must be an integer")
            params[name] = value
        else:
            params[name] = _parse_complex(value, f"parameter {name!r}")
    return params


def _parse_state(raw: str | None) -> ComplexPair:
    obj = _load_json("--x0", raw)
    if not isinstance(obj, list) or len(obj) != 2:
        raise ConfigError("--x0 must be a two-element list, e.g. '[[1,0],[0,0]]' or '[1, 2]'")
    return (_parse_complex(obj[0], "--x0"), _parse_complex(obj[1], "--x0"))


def _parse_complex(value: object, what: str) -> complex:
    """A finite complex scalar, so no ``nan`` or ``inf`` reaches a row."""
    try:
        z = complex_from_obj(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    if not is_finite(z):
        raise ConfigError(f"{what}: {value!r} is not finite")
    return z


def _check_steps(steps: int) -> None:
    if steps < 0:
        raise ConfigError(f"--steps must be >= 0, got {steps}")


def _parse_signs(raw: str | None, steps: int) -> list[Sign]:
    if raw is None:
        return [PLUS] * steps
    signs: list[Sign] = []
    for ch in raw:
        if ch == "+":
            signs.append(PLUS)
        elif ch == "-":
            signs.append(MINUS)
        else:
            raise ConfigError(f"--signs may contain only '+' and '-', got {ch!r}")
    if len(signs) != steps:
        raise ConfigError(f"--signs length {len(signs)} does not match --steps {steps}")
    return signs


#: Column kinds of the row schemas; every other column holds a float.
_COLUMN_KINDS = {"ell": int, "branch": str}

#: printf-style cell spellings: ``%.17g`` is ``f"{v:.17g}"`` and ``%r`` is
#: ``float.__repr__``, the spelling ``json.dumps`` uses for a finite float.
_CSV_CELLS = {int: "%s", str: "%s", float: "%.17g"}
_JSON_CELLS = {int: "%s", str: '"%s"', float: "%r"}


class _Writer:
    """Row sink for csv or jsonl output.

    Each row is formatted by one template, built from the column list, and
    written to the stream on its own.  The bytes are those of ``csv.writer``
    with floats as ``.17g`` and of ``json.dumps`` on the row dict: the column
    names and the ``branch`` labels hold only characters (letters, digits,
    ``_``, ``+``, ``-``) that neither module quotes or escapes, and every
    schema has several columns, so an empty label is not quoted either.
    Every float is finite: the commands check their values before a row is
    written.
    """

    def __init__(self, stream: TextIO, fmt: str, columns: Sequence[str]):
        self.stream = stream
        kinds = [_COLUMN_KINDS.get(name, float) for name in columns]
        if fmt == "jsonl":
            cells = (f'"{name}": {_JSON_CELLS[kind]}' for name, kind in zip(columns, kinds))
            self._template = "{" + ", ".join(cells) + "}\n"
        else:
            stream.write(",".join(columns) + "\r\n")
            self._template = ",".join(_CSV_CELLS[kind] for kind in kinds) + "\r\n"

    def row(self, values: Sequence[object]) -> None:
        self.stream.write(self._template % tuple(values))


def _state_columns(system: str, with_y: bool) -> list[str]:
    if not _SYSTEMS[system].signed:
        return ["ell", "y1_re", "y1_im", "y2_re", "y2_im"]
    cols = ["ell", "branch", "x1_re", "x1_im", "x2_re", "x2_im"]
    if with_y:
        cols += ["y1_re", "y1_im", "y2_re", "y2_im"]
    return cols


def _flatten(pair: ComplexPair) -> list[float]:
    z1, z2 = pair
    return [z1.real, z1.imag, z2.real, z2.imag]


def _open_out(path: str | None) -> ContextManager[TextIO]:
    """The ``--out`` stream as a context manager; stdout is never closed."""
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path}: {exc.strerror or exc}") from exc


def cmd_iterate(args: argparse.Namespace) -> int:
    spec = _SYSTEMS[args.system]
    params = spec.build(_parse_params(args.system, args.params))
    state = _parse_state(args.x0)
    _check_steps(args.steps)
    signed = spec.signed
    if not signed and args.signs is not None:
        raise ConfigError(f"the {args.system} system takes no per-step signs")
    signs = _parse_signs(args.signs, args.steps)

    with _open_out(args.out) as stream:
        writer = _Writer(stream, args.format, _state_columns(args.system, with_y=False))
        flat = _flatten(state)
        writer.row([0, "", *flat] if signed else [0, *flat])
        prefix = ""
        for ell, s in enumerate(signs, 1):
            try:
                state = tuple(spec.step(params, s, state))
                ensure_all_finite(*state)
            except NumericError as exc:
                exc.step = ell
                raise
            prefix += "+" if s == PLUS else "-"
            flat = _flatten(state)
            writer.row([ell, prefix, *flat] if signed else [ell, *flat])
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    spec = _SYSTEMS[args.system]
    params = spec.build(_parse_params(args.system, args.params))
    state = _parse_state(args.x0)
    _check_steps(args.steps)

    with _open_out(args.out) as stream:
        solution = spec.solve(params, state, args.steps)
        writer = _Writer(stream, args.format, _state_columns(args.system, with_y=True))
        for entry in solution.entries:
            yflat = _flatten(entry.y)
            if spec.signed:
                writer.row([entry.ell, "+", *_flatten(entry.plus), *yflat])
                writer.row([entry.ell, "-", *_flatten(entry.minus), *yflat])
            else:
                writer.row([entry.ell, *yflat])
        if solution.error is not None:
            print(
                f"error: closed-form evaluation failed at step {solution.overflow_at}: "
                f"{solution.error.reason}; output truncated",
                file=sys.stderr,
            )
            return 3
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    suites = None
    if args.suites is not None:
        suites = [name.strip() for name in args.suites.split(",") if name.strip()]
    report = run_verify(seed=args.seed, suites=suites)
    with _open_out(args.out) as stream:
        stream.write(report.to_json() + "\n")
    print(report.summary(), file=sys.stderr)
    return 0 if report.passed else 1


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--system", required=True, choices=sorted(_SYSTEMS), help="system family to run"
    )
    parser.add_argument("--params", help="JSON object of named parameters")
    parser.add_argument("--x0", help="initial state: a JSON list of two complex values, e.g. '[[1,0],[0,0]]'")
    parser.add_argument("--steps", type=int, default=1, help="number of discrete-time steps")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solvmaps",
        description="Iterate, solve in closed form, and verify solvable discrete-time systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_iterate = sub.add_parser("iterate", help="iterate a step map along a sign sequence")
    _add_run_arguments(p_iterate)
    p_iterate.add_argument("--signs", help="per-step sign string over '+-' (default: all '+')")
    p_iterate.set_defaults(func=cmd_iterate)

    p_solve = sub.add_parser("solve", help="evaluate the closed-form branch solution")
    _add_run_arguments(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument(
        "--suites", help=f"comma-separated suite names (default all: {', '.join(SUITE_NAMES)})"
    )
    p_verify.add_argument("--seed", type=int, default=42, help="PRNG seed (default: 42)")
    p_verify.add_argument("--out", help="write the JSON report to this path (default: stdout)")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return args.func(args)
        finally:
            # Rows still buffered for a reader that has gone fail here, not at exit.
            sys.stdout.flush()
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SolvmapsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The interpreter flushes stdout once more at exit: let that write go nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: the output was closed before it was all written", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
