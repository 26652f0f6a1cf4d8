"""Command-line front end: iterate orbits, evaluate closed-form solutions,
run verification suites, and export data.

Exit codes: 0 success, 1 a verify property failed, 2 configuration, usage or
parameter error, 3 numeric error (the message names the failing step).
This module is the one reader of outside input.  ``--params`` and ``--x0``
are JSON; a complex value is a real number, an ``[re, im]`` pair of reals or
numeric strings, or a string such as ``"2i"`` or ``"1+2i"`` (``j`` also
works, the unit comes last, spaces are ignored), and must be finite.  Output
rows hold each complex as two float columns (``_re``/``_im``).  A failure to
write the output, a reader that closes it early included, is a ``ConfigError``.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import json
import os
import sys
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, NoReturn, Sequence, TextIO

from .errors import ConfigError, NumericError, SolvmapsError
from .numeric import MINUS, PLUS, ComplexPair, Sign, ensure_finite
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
    ConjugatedParams,
    CubicFamilyParams,
    GeneralizedParams,
    QuadraticFamilyParams,
    step_conjugated,
    step_cubic_family,
    step_generalized,
    step_quadratic_family,
    step_sqrt_cubic,
    step_sqrt_quadratic,
)
from .ysystem import YParams, YState, y_step


@dataclass(frozen=True)
class SystemSpec:
    """One CLI system, read off its parameter type.

    ``--params`` holds the ``init`` fields of ``params``, in order, and the
    system's parameters are one instance of it.  The type judges its own
    values: the CLI passes a field annotated ``int`` on as it is and parses
    every other as a complex.  An unsigned system's step ignores the sign,
    and its rows have no ``branch`` column: its state is the coefficient pair
    itself.  ``iterate`` calls what this module binds to ``step``'s name,
    looked up once a run, so a rebound module attribute is used.
    """

    params: type
    step: Callable[[object, Sign, ComplexPair], ComplexPair]
    solve: Callable[[object, ComplexPair, int], BranchSolution]
    signed: bool = True


def _y_step(p: YParams, s: Sign, y: ComplexPair) -> YState:
    return y_step(p, YState(*y))


_SYSTEMS: dict[str, SystemSpec] = {
    "y": SystemSpec(YParams, _y_step, solve_y, signed=False),
    "quad-family": SystemSpec(QuadraticFamilyParams, step_quadratic_family, solve_quadratic_family),
    "cubic-family": SystemSpec(CubicFamilyParams, step_cubic_family, solve_cubic_family),
    "generalized": SystemSpec(GeneralizedParams, step_generalized, solve_generalized),
    "sqrt-quad": SystemSpec(YParams, step_sqrt_quadratic, solve_sqrt_quadratic),
    "sqrt-cubic": SystemSpec(YParams, step_sqrt_cubic, solve_sqrt_cubic),
    "conjugated": SystemSpec(ConjugatedParams, step_conjugated, solve_conjugated),
}


def _load_json(option: str, raw: str | None) -> object:
    if raw is None:
        raise ConfigError(f"{option} is required")
    try:
        return json.loads(raw)
    except ValueError as exc:  # also an integer past the interpreter's digit limit
        raise ConfigError(f"{option} is not valid JSON: {exc}") from exc


def _read_params(system: str, raw: str | None) -> object:
    """The system's parameters, one instance of its type, from the type's ``init`` fields.

    Postponed annotations make a field's ``type`` the string ``"int"`` or
    ``"complex"``.  Every value is read before the instance is built.
    """
    obj = _load_json("--params", raw)
    if not isinstance(obj, dict):
        raise ConfigError("--params must be a JSON object")
    cls = _SYSTEMS[system].params
    init = [f for f in fields(cls) if f.init]
    names = [f.name for f in init]
    missing = [name for name in names if name not in obj]
    if missing:
        raise ConfigError(f"missing parameters for {system!r}: {', '.join(missing)}")
    unknown = [name for name in obj if name not in names]
    if unknown:
        raise ConfigError(f"unknown parameters for {system!r}: {', '.join(map(repr, unknown))}")
    return cls(**{
        f.name: obj[f.name] if f.type == "int" else _parse_complex(obj[f.name], f"parameter {f.name!r}")
        for f in init
    })


def _parse_complex(value: object, what: str) -> complex:
    """A finite complex scalar from a JSON literal, so no ``nan`` or ``inf`` reaches a row.

    JSON ``true`` and ``false`` are not numbers here, nor inside a pair.  A
    string that does not parse is "not a complex literal", and so is one,
    alone or in a pair, that is not ASCII or holds ``_``, ``(`` or ``)``:
    ``complex`` and ``float`` read other digits, separators and parentheses,
    the README's grammar does not.  A pair component or an integer that
    ``float`` refuses is reported with ``float``'s reason.
    """
    z = None
    parts = value if isinstance(value, list) else [value]
    if any(isinstance(v, str) and (not v.isascii() or any(c in "_()" for c in v)) for v in parts):
        raise ConfigError(f"{what}: not a complex literal: {value!r}")
    try:
        if isinstance(value, str):
            with suppress(ValueError):
                text = value.strip().replace(" ", "")
                z = complex(text[:-1] + "j" if text.endswith("i") else text)
        elif isinstance(value, list) and len(value) == 2 and not any(isinstance(v, bool) for v in value):
            z = complex(float(value[0]), float(value[1]))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            z = complex(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    if z is None:
        raise ConfigError(f"{what}: not a complex literal: {value!r}")
    if not cmath.isfinite(z):
        raise ConfigError(f"{what}: {value!r} is not finite")
    return z


def _read_run(args: argparse.Namespace) -> tuple[SystemSpec, object, ComplexPair]:
    """An ``iterate`` or ``solve`` run's system, parameters and ``--x0``, with ``--steps`` checked."""
    params = _read_params(args.system, args.params)
    obj = _load_json("--x0", args.x0)
    if not isinstance(obj, list) or len(obj) != 2:
        raise ConfigError("--x0 must be a two-element list, e.g. '[[1,0],[0,0]]' or '[1, 2]'")
    state = (_parse_complex(obj[0], "--x0"), _parse_complex(obj[1], "--x0"))
    if args.steps < 0:
        raise ConfigError(f"--steps must be >= 0, got {args.steps}")
    return _SYSTEMS[args.system], params, state


def _parse_signs(raw: str | None, steps: int) -> Iterable[str]:
    if raw is None:
        return itertools.repeat("+", steps)
    for ch in raw:
        if ch not in "+-":
            raise ConfigError(f"--signs may contain only '+' and '-', got {ch!r}")
    if len(raw) != steps:
        raise ConfigError(f"--signs length {len(raw)} does not match --steps {steps}")
    return raw


#: Column kinds of the row schemas; every other column holds a float.
_COLUMN_KINDS = {"ell": int, "branch": str}

#: printf-style cell spellings: ``%.17g`` is ``f"{v:.17g}"`` and ``%r`` is
#: ``float.__repr__``, the spelling ``json.dumps`` uses for a finite float.
_CSV_CELLS = {int: "%s", str: "%s", float: "%.17g"}
_JSON_CELLS = {int: "%s", str: '"%s"', float: "%r"}


class _Writer:
    """Row templates for csv or jsonl output, built from the column list (writing the csv header).

    ``row % (ell, label, *cells)`` is one row; a schema without a ``branch``
    column spells the label as nothing.  ``pair % (*own, tail, *own, tail)``
    is a ``solve`` step's two rows, with ``tail = shared % cells`` for the
    ``shared`` cells they end with.  The bytes are those of ``csv.writer``
    with floats as ``.17g`` and of ``json.dumps`` on the row dict: the column
    names and the ``branch`` labels hold only characters (letters, digits,
    ``_``, ``+``, ``-``) that neither module quotes or escapes, and every
    schema has several columns, so an empty label is not quoted either.
    Every float is finite: the commands check their values before a row is
    written.
    """

    def __init__(self, stream: TextIO, fmt: str, columns: Sequence[str], shared: int = 0):
        kinds = [_COLUMN_KINDS.get(name, float) for name in columns]
        if fmt == "jsonl":
            cells = [f'"{name}": {_JSON_CELLS[kind]}' for name, kind in zip(columns, kinds)]
            start, sep, end = "{", ", ", "}\n"
        else:
            stream.write(",".join(columns) + "\r\n")
            cells = [_CSV_CELLS[kind] for kind in kinds]
            start, sep, end = "", ",", "\r\n"
        if "branch" not in columns:
            cells[0] += "%.0s"  # ell's cell, then the label at precision 0
        self.row = start + sep.join(cells) + end
        if shared:
            own = len(cells) - shared
            self.shared = sep.join(cells[own:])
            row = start + sep.join([*cells[:own], "%s"]) + end
            self.pair = row + row


def _state_columns(system: str, with_y: bool) -> list[str]:
    if not _SYSTEMS[system].signed:
        return ["ell", "y1_re", "y1_im", "y2_re", "y2_im"]
    cols = ["ell", "branch", "x1_re", "x1_im", "x2_re", "x2_im"]
    if with_y:
        cols += ["y1_re", "y1_im", "y2_re", "y2_im"]
    return cols


@contextmanager
def _open_out(path: str | None) -> Iterator[TextIO]:
    """The ``--out`` file, closed on the way out, or stdout; either is flushed then, so a
    write that fails does so before any message that follows the rows.

    A failure to open, write, flush or close the stream is one ``ConfigError``
    that names it.  A failed stdout is first pointed at the null device, so the
    interpreter's flush at exit writes nowhere.
    """
    to_stdout = path is None or path == "-"
    try:
        with nullcontext(sys.stdout) if to_stdout else open(path, "w", newline="") as stream:
            try:
                yield stream
            finally:
                stream.flush()
    except OSError as exc:  # a reader that closed early too: BrokenPipeError
        if to_stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        where = "stdout" if to_stdout else f"--out {path}"
        raise ConfigError(f"cannot write {where}: {exc.strerror or exc}") from exc


def cmd_iterate(args: argparse.Namespace) -> int:
    spec, params, state = _read_run(args)
    if not spec.signed and args.signs is not None:
        raise ConfigError(f"the {args.system} system takes no per-step signs")
    signs = _parse_signs(args.signs, args.steps)

    with _open_out(args.out) as stream:
        row = _Writer(stream, args.format, _state_columns(args.system, with_y=False)).row
        step = globals()[spec.step.__name__]  # by name, so a rebound module attribute is used
        write, isfinite = stream.write, cmath.isfinite
        x1, x2 = state
        write(row % (0, "", x1.real, x1.imag, x2.real, x2.imag))
        sign_of = {"+": PLUS, "-": MINUS}
        prefix = ""
        for ell, ch in enumerate(signs, 1):
            try:
                x1, x2 = step(params, sign_of[ch], (x1, x2))
                if not isfinite(x1 + x2):
                    ensure_finite(x1)
                    ensure_finite(x2)
            except NumericError as exc:
                exc.step = ell
                raise
            prefix += ch
            write(row % (ell, prefix, x1.real, x1.imag, x2.real, x2.imag))
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    spec, params, state = _read_run(args)

    with _open_out(args.out) as stream:
        solution = spec.solve(params, state, args.steps)
        # A step's two rows share their last four cells, y1_re .. y2_im.
        writer = _Writer(stream, args.format, _state_columns(args.system, with_y=True), shared=4)
        write = stream.write
        if spec.signed:
            pair, shared = writer.pair, writer.shared
            for ell, ((x1, x2), (w1, w2), (y1, y2)) in enumerate(solution.entries):
                tail = shared % (y1.real, y1.imag, y2.real, y2.imag)
                write(pair % (ell, "+", x1.real, x1.imag, x2.real, x2.imag, tail,
                              ell, "-", w1.real, w1.imag, w2.real, w2.imag, tail))
        else:
            row = writer.row
            for ell, (_, _, (y1, y2)) in enumerate(solution.entries):
                write(row % (ell, "", y1.real, y1.imag, y2.real, y2.imag))
    if solution.error is not None:
        raise NumericError(
            f"closed-form evaluation failed at step {solution.overflow_at}: "
            f"{solution.error.reason}; output truncated"
        ) from solution.error
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verify  # here, so that only a verify command compiles and runs verify.py

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


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, as the CLI reports every other exit-2 error."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache  # built on the first call, by the first main(), and shared by every later one
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_verify.add_argument("--suites", help="comma-separated suite names (default: all)")
    p_verify.add_argument("--seed", type=int, default=42, help="PRNG seed (default: 42)")
    p_verify.add_argument("--out", help="write the JSON report to this path (default: stdout)")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolvmapsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericError) else 2


if __name__ == "__main__":
    sys.exit(main())
