"""Workload inputs and independent oracles for the solvmaps benchmark.

Every workload turns a seed into a deterministic, endless sequence of CLI
operations.  Each operation carries the argument vector for
``solvmaps.cli.main`` (without ``--out``) and an oracle that judges the bytes
the operation wrote.  The oracles re-derive the expected coefficients with
their own arithmetic (Python's ``**`` on complex numbers, Vieta's formulas
written out here) and never call back into ``solvmaps``, so a defect in the
code under test cannot also hide in its check.
"""

from __future__ import annotations

import cmath
import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

ROOTS = (1 + 0j, -1 + 0j, 1j, -1j)

#: Largest normalized deviation an oracle accepts for a delivered value.
ORACLE_TOL = 1e-9


@dataclass
class Outcome:
    """The oracle's verdict on one operation."""

    failed: bool
    mismatch: str | None = None
    steps: int = 0
    max_err: float = 0.0


@dataclass
class Op:
    argv: list[str]
    check: Callable[[int, bytes], Outcome]
    label: str


@dataclass(frozen=True)
class YChain:
    """Parameters of y1' = alpha y1**(1+k), y2' = beta**2 y2 y1**q + gamma y1**r."""

    alpha: complex
    beta: complex
    gamma: complex
    k: int
    q: int
    r: int

    def orbit(self, y1: complex, y2: complex, steps: int) -> list[tuple[complex, complex]]:
        out = [(y1, y2)]
        b2 = self.beta * self.beta
        for _ in range(steps):
            y1, y2 = self.alpha * y1 ** (1 + self.k), b2 * y2 * y1 ** self.q + self.gamma * y1 ** self.r
            out.append((y1, y2))
        return out


def rel_err(got: complex, want: complex) -> float:
    """Normalized deviation |got - want| / max(|got|, |want|, 1)."""
    return abs(got - want) / max(abs(got), abs(want), 1.0)


def vieta_quad(x1: complex, x2: complex) -> tuple[complex, complex]:
    return -(x1 + x2), x1 * x2


def vieta_cubic(x1: complex, x2: complex) -> tuple[complex, complex]:
    """(y1, y2) of (z - x1)**2 (z - x2) = z**3 + y1 z**2 + y2 z + y3."""
    return -(2 * x1 + x2), x1 * x1 + 2 * x1 * x2


def _wire(z: complex) -> list[float]:
    return [z.real, z.imag]


def _params(**values) -> str:
    return json.dumps({k: v if isinstance(v, int) else _wire(v) for k, v in values.items()})


def _state(x1: complex, x2: complex) -> str:
    return json.dumps([_wire(x1), _wire(x2)])


class OracleError(Exception):
    """The output disagrees with the oracle (a mismatch, not a failed run)."""


def iter_rows(data: bytes, fmt: str, columns: list[str]) -> Iterator[dict]:
    """Rows of a CSV or JSONL orbit file as dicts of floats (plus ell/branch).

    Rows are parsed one at a time, so checking a 2 MB output does not hold a
    second copy of it in memory (that would show in ``peak_rss_mb``).
    """
    lines = (line.decode() for line in io.BytesIO(data))
    if fmt == "csv":
        reader = csv.reader(lines)
        header = next(reader, None)
        if header != columns:
            raise OracleError(f"csv header {header} != {columns}")
        records = (dict(zip(columns, rec)) for rec in reader)
    else:
        records = (json.loads(line) for line in lines)
    for row in records:
        if list(row) != columns:
            raise OracleError(f"row keys {list(row)} != {columns}")
        out = {"ell": int(row["ell"])}
        if "branch" in row:
            out["branch"] = row["branch"]
        for name in columns:
            if name.endswith(("_re", "_im")):
                value = float(row[name])
                if not math.isfinite(value):
                    raise OracleError(f"non-finite {name} at ell={out['ell']}")
                out[name] = value
        yield out


def _pair(row: dict, prefix: str) -> tuple[complex, complex]:
    return (
        complex(row[f"{prefix}1_re"], row[f"{prefix}1_im"]),
        complex(row[f"{prefix}2_re"], row[f"{prefix}2_im"]),
    )


def _compare(got: tuple[complex, complex], want: tuple[complex, complex], where: str) -> float:
    err = max(rel_err(got[0], want[0]), rel_err(got[1], want[1]))
    if not err <= ORACLE_TOL:
        raise OracleError(f"{where}: got {got}, want {want} (err {err:.3e})")
    return err


def _judged(rc: int, judge: Callable[[], Outcome]) -> Outcome:
    if rc != 0:
        return Outcome(failed=True, mismatch=f"exit code {rc}")
    try:
        return judge()
    except (OracleError, ValueError, KeyError) as exc:
        return Outcome(failed=True, mismatch=str(exc))


# --- solve-long -------------------------------------------------------------

SOLVE_COLUMNS = ["ell", "branch", "x1_re", "x1_im", "x2_re", "x2_im", "y1_re", "y1_im", "y2_re", "y2_im"]


def _solve_check(chain: YChain, y0: tuple[complex, complex], steps: int, vieta) -> Callable[[int, bytes], Outcome]:
    def check(rc: int, data: bytes) -> Outcome:
        def judge() -> Outcome:
            want = chain.orbit(*y0, steps)
            worst = 0.0
            rows = 0
            for i, row in enumerate(iter_rows(data, "csv", SOLVE_COLUMNS)):
                rows += 1
                ell = i // 2
                if ell > steps or row["ell"] != ell or row["branch"] != "+-"[i % 2]:
                    raise OracleError(f"row {i} labelled ({row['ell']}, {row['branch']}) for {steps} steps")
                worst = max(
                    worst,
                    _compare(_pair(row, "y"), want[ell], f"y at ell={ell}"),
                    _compare(vieta(*_pair(row, "x")), want[ell], f"zeros at ell={ell}"),
                )
            if rows != 2 * (steps + 1):
                raise OracleError(f"{rows} rows for {steps} steps")
            return Outcome(failed=False, steps=steps + 1, max_err=worst)

        return _judged(rc, judge)

    return check


def solve_long(seed: int) -> Iterator[Op]:
    """Long ``solve`` orbits whose bases are fourth roots of unity.

    |y1| stays 1 and |y2| grows at most linearly, so nothing overflows while
    the closed-form exponents grow like (1+k)**ell.
    """
    rng = random.Random(f"solve-long:{seed}")
    while True:
        u, w, z, g = (rng.choice(ROOTS) for _ in range(4))
        # b**2 = -a**2 keeps gamma = a**2 - b**2 away from 0, so the
        # inhomogeneous term of the closed form is never skipped.
        v = u * rng.choice((1j, -1j))
        a, b = u / 3, v / 3
        chain = YChain(3 * a, 3 * b, 3 * (a * a - b * b), 1, 2, 4)
        x0 = (w, z - 2 * w)
        yield Op(
            ["solve", "--system", "cubic-family", "--params", _params(a=a, b=b, k=1),
             "--x0", _state(*x0), "--steps", "1000"],
            _solve_check(chain, vieta_cubic(*x0), 1000, vieta_cubic),
            "cubic-family k=1 x1000",
        )
        a, b = u / 2, v / 2
        chain = YChain(2 * a, 2 * b, a * a - b * b, 2, 4, 6)
        x0 = (w, z - w)
        yield Op(
            ["solve", "--system", "quad-family", "--params", _params(a=a, b=b, k=2),
             "--x0", _state(*x0), "--steps", "400"],
            _solve_check(chain, vieta_quad(*x0), 400, vieta_quad),
            "quad-family k=2 x400",
        )
        chain = YChain(u, v, g, 1, 1, 3)
        x0 = (z, w - 2 * z)
        yield Op(
            ["solve", "--system", "sqrt-cubic", "--params", _params(alpha=u, beta=v, gamma=g, k=1, q=1, r=3),
             "--x0", _state(*x0), "--steps", "150"],
            _solve_check(chain, vieta_cubic(*x0), 150, vieta_cubic),
            "sqrt-cubic q=1 r=3 x150",
        )


# --- iterate-long -----------------------------------------------------------

ITERATE_STEPS = 2000
ITERATE_COLUMNS = ["ell", "branch", "x1_re", "x1_im", "x2_re", "x2_im"]


def _iterate_check(
    chain: YChain, image: Callable[[complex, complex], tuple[complex, complex]],
    x0: tuple[complex, complex], signs: str, fmt: str,
) -> Callable[[int, bytes], Outcome]:
    """Coefficient image of every row must follow the sign-independent y chain."""

    def check(rc: int, data: bytes) -> Outcome:
        def judge() -> Outcome:
            want = chain.orbit(*image(*x0), len(signs))
            worst = 0.0
            rows = 0
            for ell, row in enumerate(iter_rows(data, fmt, ITERATE_COLUMNS)):
                rows += 1
                if ell > len(signs) or row["ell"] != ell or row["branch"] != signs[:ell]:
                    raise OracleError(f"row {ell} labelled ell={row['ell']} with a wrong sign prefix")
                worst = max(worst, _compare(image(*_pair(row, "x")), want[ell], f"image at ell={ell}"))
            if rows != len(signs) + 1:
                raise OracleError(f"{rows} rows for {len(signs)} steps")
            return Outcome(failed=False, steps=len(signs) + 1, max_err=worst)

        return _judged(rc, judge)

    return check


def _disc(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))


def _iterate_systems(rng: random.Random):
    """(label, system, params, y chain, coefficient image, x0) for every step map.

    The k = -1 orbits contract (|b| < |a|, |beta|**2 |alpha|**q < 1); the
    k = 1 cubic orbit with b = 0 sits on the triple-root locus with |y1| = 1.
    """
    a = _disc(rng, 0.8, 1.2)
    b = a * _disc(rng, 0.2, 0.6)
    x0 = (_disc(rng, 0.3, 1.0), _disc(rng, 0.3, 1.0))
    yield ("quad-family k=-1", "quad-family", _params(a=a, b=b, k=-1),
           YChain(2 * a, 2 * b, a * a - b * b, -1, -2, 0), vieta_quad, x0)
    yield ("cubic-family k=-1", "cubic-family", _params(a=a, b=b, k=-1),
           YChain(3 * a, 3 * b, 3 * (a * a - b * b), -1, -2, 0), vieta_cubic, x0)

    alpha = _disc(rng, 0.8, 1.2)
    beta = alpha * _disc(rng, 0.2, 0.6)
    gamma = _disc(rng, 0.2, 1.0)
    q, r = rng.choice((-2, -1, 0)), rng.choice((-1, 0, 1, 2))
    sqrt_params = _params(alpha=alpha, beta=beta, gamma=gamma, k=-1, q=q, r=r)
    chain = YChain(alpha, beta, gamma, -1, q, r)
    yield ("sqrt-quad k=-1", "sqrt-quad", sqrt_params, chain, vieta_quad, x0)
    yield ("sqrt-cubic k=-1", "sqrt-cubic", sqrt_params, chain, vieta_cubic, x0)

    B1, B2, C1, C2, C3 = (_disc(rng, 0.5, 1.5) for _ in range(5))
    denom = B1 * B1 * C2 + B2 * B2 * C1 - B1 * B2 * C3
    gen_gamma = (C3 * C3 - 4 * C1 * C2) * (beta * beta - alpha * alpha) / (4 * denom)

    def yz_image(z1: complex, z2: complex) -> tuple[complex, complex]:
        return B1 * z1 + B2 * z2, C1 * z1 * z1 + C2 * z2 * z2 + C3 * z1 * z2

    yield ("generalized k=-1", "generalized",
           _params(alpha=alpha, beta=beta, B1=B1, B2=B2, C1=C1, C2=C2, C3=C3, k=-1),
           YChain(alpha, beta, gen_gamma, -1, -2, 0), yz_image, x0)

    A11, A22 = 1 + _disc(rng, 0.0, 0.3), 1 + _disc(rng, 0.0, 0.3)
    A12, A21 = _disc(rng, 0.0, 0.3), _disc(rng, 0.0, 0.3)
    det = A11 * A22 - A12 * A21

    def conj_image(z1: complex, z2: complex) -> tuple[complex, complex]:
        return vieta_cubic((A22 * z1 - A12 * z2) / det, (-A21 * z1 + A11 * z2) / det)

    yield ("conjugated k=-1", "conjugated",
           _params(a=a, b=b, k=-1, A11=A11, A12=A12, A21=A21, A22=A22),
           YChain(3 * a, 3 * b, 3 * (a * a - b * b), -1, -2, 0), conj_image, x0)

    u, w, z = (rng.choice(ROOTS) for _ in range(3))
    yield ("cubic-family k=1 triple root", "cubic-family", _params(a=u / 3, b=0j, k=1),
           YChain(u, 0j, u * u / 3, 1, 2, 4), vieta_cubic, (w, z - 2 * w))


#: Output formats in turn.  CSV is slower per row than JSONL, so an even mix
#: would put the median operation time on the gap between the two clusters.
FORMATS = ("csv", "csv", "jsonl")


def iterate_long(seed: int) -> Iterator[Op]:
    """``iterate`` over every step-map system on bounded orbits, formats in turn."""
    rng = random.Random(f"iterate-long:{seed}")
    formats = itertools.cycle(FORMATS)
    while True:
        for label, system, params, chain, image, x0 in list(_iterate_systems(rng)):
            signs = "".join(rng.choice("+-") for _ in range(ITERATE_STEPS))
            fmt = next(formats)
            yield Op(
                # "--signs=..." because argparse reads a leading "-" as an option.
                ["iterate", "--system", system, "--params", params, "--x0", _state(*x0),
                 "--steps", str(ITERATE_STEPS), f"--signs={signs}", "--format", fmt],
                _iterate_check(chain, image, x0, signs, fmt),
                f"{label} {fmt}",
            )


# --- verify-sweep -----------------------------------------------------------


def _verify_check(rc: int, data: bytes) -> Outcome:
    """A report fails when it is not ``passed`` or carries NaN/Infinity; the
    byte-identical repeat is checked by the run loop in run.py."""
    try:
        text = data.decode()
        report = json.loads(text)
        passed = report["passed"]
        draws = sum(s["draws"] for s in report["suites"])
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(failed=True, mismatch=f"malformed report: {exc}")
    if rc != (0 if passed else 1):
        return Outcome(failed=True, mismatch=f"exit code {rc} for passed={passed}")
    nonfinite = "NaN" in text or "Infinity" in text
    return Outcome(failed=not passed or nonfinite, steps=draws)


#: Verify seeds that every verify-sweep run covers.  A fixed range, so that
#: the count of failing reports is the same on every run (8 of these 200
#: fail today); the run seed only draws the order.
VERIFY_SEEDS = range(200)


def verify_sweep(seed: int) -> Iterator[Op]:
    """``verify --seed s`` for every s in VERIFY_SEEDS, in an order drawn
    from ``seed``, over and over."""
    order = list(VERIFY_SEEDS)
    random.Random(f"verify-sweep:{seed}").shuffle(order)
    while True:
        for s in order:
            yield Op(["verify", "--seed", str(s)], _verify_check, f"verify seed {s}")


WORKLOADS: dict[str, Callable[[int], Iterator[Op]]] = {
    "solve-long": solve_long,
    "iterate-long": iterate_long,
    "verify-sweep": verify_sweep,
}

#: Operations per repeated block in traced runs: one whole rotation of the
#: workload's kinds, so per-operation counts repeat exactly for a seed.
TRACE_BLOCK = {"solve-long": 3, "iterate-long": 21, "verify-sweep": 10}

#: Operations a run completes before it may stop, however short ``--seconds``:
#: one whole pass over VERIFY_SEEDS, so every run judges the same operations.
FULL_PASS = {"verify-sweep": len(VERIFY_SEEDS)}
