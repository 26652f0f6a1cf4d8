"""Brute-force oracles and property checks certifying the solvability claims.

The central oracle is exhaustive sign-sequence enumeration: expanding all
2**ell per-step sign choices, deduplicating states, and checking that the
reachable set per step collapses to at most two states that coincide with
the closed-form solver branches.  The remaining suites check the algebraic
identities (double-step, reductions between families, conjugation,
common-zero constraint, coefficient-bridge round-trips) on seeded random
draws, and the report records the printed-vs-corrected inversion-prefactor
discrepancy explicitly.

Reports are deterministic: the same seed and suite selection produce a
byte-identical JSON document.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import ConfigError, NumericError, SingularChangeError
from .numeric import PLUS, SIGNS, ComplexPair, pair_eq_ordered, pair_eq_unordered
from .polybridge import (
    cubic_from_zeros,
    cubic_zeros_branch,
    cubic_zeros_printed,
)
from .solver import (
    BranchSolution,
    solve_cubic_family,
    solve_quadratic_family,
)
from .stepmaps import (
    CubicFamilyParams,
    GeneralizedParams,
    K1CoeffTable,
    LinearChange,
    QuadraticFamilyParams,
    conda_residual,
    double_step_cubic,
    k1_coeff_table,
    step_conjugated,
    step_cubic_family,
    step_generalized,
    step_quadratic_family,
    step_sqrt_cubic,
    step_sqrt_quadratic,
    yz_forward,
    yz_invert,
)
from .ysystem import YParams, YState, y_closed, y_closed_special, y_iterate, y_step

#: Hard cap on exhaustive enumeration depth (2**ell sequences).
ENUMERATION_CAP = 10

#: Default sampling scale for random complex parameter components.
SAMPLING_SCALE = 1.25

#: Residual tolerance of most properties: absorbs double-precision error over
#: <= 8 steps at unit-scale inputs.
TOL = 1e-9


@dataclass
class PropertyResult:
    name: str
    passed: bool
    max_residual: float
    tolerance: float
    detail: str = ""


@dataclass
class SuiteResult:
    name: str
    properties: list[PropertyResult] = field(default_factory=list)
    draws: int = 0
    skipped: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)


@dataclass
class VerifyReport:
    seed: int
    suites: list[SuiteResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["passed"] = self.passed
        for suite, entry in zip(self.suites, data["suites"]):
            entry["passed"] = suite.passed
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        lines = [f"verify report (seed={self.seed})"]
        for s in self.suites:
            status = "PASS" if s.passed else "FAIL"
            lines.append(f"[{status}] suite {s.name} (draws={s.draws}, skipped={s.skipped})")
            for p in s.properties:
                pstatus = "PASS" if p.passed else "FAIL"
                line = f"  [{pstatus}] {p.name}: max residual {p.max_residual:.3e} (tol {p.tolerance:.1e})"
                if p.detail:
                    line += f" -- {p.detail}"
                lines.append(line)
            for note in s.notes:
                lines.append(f"  note: {note}")
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def residual(got: complex, want: complex) -> float:
    """Normalized deviation: |got - want| / max(|got|, |want|, 1)."""
    return abs(got - want) / max(abs(got), abs(want), 1.0)


def pair_residual(got: ComplexPair, want: ComplexPair) -> float:
    return max(residual(got[0], want[0]), residual(got[1], want[1]))


def pair_residual_unordered(got: ComplexPair, want: ComplexPair) -> float:
    return min(
        pair_residual(got, want),
        pair_residual(got, (want[1], want[0])),
    )


def draw_complex(rng: random.Random, scale: float = SAMPLING_SCALE) -> complex:
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def draw_pair(rng: random.Random) -> ComplexPair:
    return (draw_complex(rng), draw_complex(rng))


def enumerate_sign_orbits(
    step: Callable[[int, ComplexPair], ComplexPair],
    x0: ComplexPair,
    ellmax: int,
    unordered: bool = False,
) -> tuple[list[list[ComplexPair]], int]:
    """Breadth-first expansion over all sign sequences with tolerance dedupe.

    Returns the per-step deduplicated state sets (index 0 holds the initial
    state) and the number of expansions that died with a numeric error.
    """
    if ellmax > ENUMERATION_CAP:
        raise ValueError(f"ellmax {ellmax} exceeds enumeration cap {ENUMERATION_CAP}")
    eq = pair_eq_unordered if unordered else pair_eq_ordered
    levels: list[list[ComplexPair]] = [[(complex(x0[0]), complex(x0[1]))]]
    failures = 0
    for _ in range(ellmax):
        frontier: list[ComplexPair] = []
        for state in levels[-1]:
            for s in SIGNS:
                try:
                    candidate = tuple(step(s, state))
                except NumericError:
                    failures += 1
                    continue
                # Looser than TOL, so roundoff never splits a genuine branch into two.
                if not any(eq(candidate, seen, rel=1e-8) for seen in frontier):
                    frontier.append(candidate)
        levels.append(frontier)
    return levels, failures


def _set_equal_residual(
    got: Sequence[ComplexPair], want: Sequence[ComplexPair], unordered: bool
) -> float:
    """Two-sided Hausdorff-style residual between small state sets."""
    dist = pair_residual_unordered if unordered else pair_residual
    worst = 0.0
    for a in got:
        worst = max(worst, min((dist(a, b) for b in want), default=float("inf")))
    for b in want:
        worst = max(worst, min((dist(a, b) for a in got), default=float("inf")))
    return worst


def check_branch_collapse(
    step: Callable[[int, ComplexPair], ComplexPair],
    solution: BranchSolution,
    x0: ComplexPair,
    unordered: bool = False,
) -> float:
    """Max residual of (cardinality <= 2) + (set equality with solver branches).

    Every sign orbit is enumerated as deep as ``solution`` reaches.  A
    residual above the dedupe tolerance means either a third distinct state
    appeared or the enumerated and closed-form sets diverged.
    """
    levels, _ = enumerate_sign_orbits(step, x0, len(solution.entries) - 1, unordered=unordered)
    dist = pair_residual_unordered if unordered else pair_residual
    worst = 0.0
    for entry, states in zip(solution.entries, levels):
        if len(states) > 2:
            return float("inf")
        if not states:
            continue
        # Indistinguishable zeros: the branch set is one unordered pair.
        branches = [entry.plus] if unordered else [entry.plus, entry.minus]
        if entry.ell == 0:
            # 2**0 sequences reach only the initial state; the contract there
            # is that one branch reproduces it, not set equality.
            worst = max(worst, min(dist(states[0], b) for b in branches))
        else:
            worst = max(worst, _set_equal_residual(states, branches, unordered))
    return worst


# --- suites -----------------------------------------------------------------
#
# A randomized suite is a draw function ``draw(rng, record)`` that samples one
# instance, checks it, and reports residuals with ``record(i, *residuals)``
# for its i-th property; :func:`_run_draws` owns the loop around it.


def _property(name: str, worst: float, tol: float, detail: str = "") -> PropertyResult:
    """A property passes when its worst residual is within its tolerance."""
    return PropertyResult(name, worst <= tol, worst, tol, detail)


def _run_draws(
    suite: SuiteResult,
    rng: random.Random,
    draws: int,
    draw: Callable[[random.Random, Callable[..., None]], None],
    properties: Sequence[tuple[str, float]],
    skip: type[Exception] | tuple[type[Exception], ...] = NumericError,
) -> None:
    """Run ``draws`` draws and append one result per ``(name, tol)`` property.

    A draw that raises ``skip`` counts as skipped; the residuals it recorded
    before raising still count.  A NaN residual fails its property.
    """
    worst = [0.0] * len(properties)

    def record(i: int, *residuals: float) -> None:
        # max() keeps a number over a NaN that follows it, yet a NaN must fail the
        # property.  Residuals are non-negative: their sum is NaN iff one of them is.
        worst[i] = math.nan if math.isnan(sum(residuals)) else max(worst[i], *residuals)

    suite.draws += draws
    for _ in range(draws):
        try:
            draw(rng, record)
        except skip:
            suite.skipped += 1
    suite.properties += [_property(name, w, tol) for (name, tol), w in zip(properties, worst)]


def _draw_y_closed(rng: random.Random, record: Callable[..., None]) -> None:
    k = rng.choice([-2, -1, 1, 2])
    special = rng.random() < 0.5
    if special:
        q, r = 2 * k, 2 * (1 + k)
    else:
        q, r = rng.randint(-3, 4), rng.randint(-3, 4)
    p = YParams(draw_complex(rng, 1.5), draw_complex(rng, 1.5), draw_complex(rng, 1.5), k, q, r)
    y0 = YState(draw_complex(rng, 1.5), draw_complex(rng, 1.5))
    ell = rng.randint(0, 6)
    closed = y_closed(p, y0, ell)
    iterated = y_iterate(p, y0, ell)
    record(0, residual(closed.y1, iterated.y1), residual(closed.y2, iterated.y2))
    if special:
        spec = y_closed_special(p, y0, ell)
        record(1, residual(spec.y1, closed.y1), residual(spec.y2, closed.y2))
        a = rng.randint(0, ell)
        mid = y_closed_special(p, y0, a)
        chained = y_closed_special(p, mid, ell - a)
        record(2, residual(chained.y1, closed.y1), residual(chained.y2, closed.y2))


def _draw_quad_family(rng: random.Random, record: Callable[..., None]) -> None:
    p = QuadraticFamilyParams(draw_complex(rng), draw_complex(rng), rng.choice([-1, 1, 2]))
    x0 = draw_pair(rng)
    for s in SIGNS:
        a = step_quadratic_family(p, s, x0)
        b = step_quadratic_family(p, -s, x0)
        # Exact swap covariance, no tolerance.
        if (a[0], a[1]) != (b[1], b[0]):
            record(0, pair_residual(a, (b[1], b[0])))
    solution = solve_quadratic_family(p, x0, 5)
    step = lambda s, x: step_quadratic_family(p, s, x)
    record(1, check_branch_collapse(step, solution, x0, unordered=True))


def _draw_cubic_collapse(rng: random.Random, record: Callable[..., None]) -> None:
    p = CubicFamilyParams(draw_complex(rng), draw_complex(rng), rng.choice([-1, 1, 2]))
    x0 = draw_pair(rng)
    solution = solve_cubic_family(p, x0, 5)
    step = lambda s, x: step_cubic_family(p, s, x)
    record(0, check_branch_collapse(step, solution, x0))


def _draw_double_step(rng: random.Random, record: Callable[..., None]) -> None:
    p = CubicFamilyParams(draw_complex(rng), draw_complex(rng), rng.choice([-1, 1, 2]))
    x0 = draw_pair(rng)
    for s0 in SIGNS:
        for s1 in SIGNS:
            two = step_cubic_family(p, s1, step_cubic_family(p, s0, x0))
            direct = double_step_cubic(p, s0 * s1, x0)
            record(0, pair_residual(direct, two))


def _draw_reductions(rng: random.Random, record: Callable[..., None]) -> None:
    a, b = draw_complex(rng), draw_complex(rng)
    k = rng.choice([-1, 1, 2])
    x0 = draw_pair(rng)
    qp = QuadraticFamilyParams(a, b, k)
    sp = qp.y_params()
    for s in SIGNS:
        got = step_sqrt_quadratic(sp, s, x0)
        want_plus = step_quadratic_family(qp, PLUS, x0)
        record(0, pair_residual_unordered(got, want_plus))

    cp = CubicFamilyParams(a, b, k)
    scp = cp.y_params()
    branch_want = [step_cubic_family(cp, s, x0) for s in SIGNS]
    for s in SIGNS:
        got = step_sqrt_cubic(scp, s, x0)
        record(1, min(pair_residual(got, w) for w in branch_want))

    gp = GeneralizedParams(2 * a, 2 * b, -1, -1, 0, 0, 1, k)
    for s in SIGNS:
        got = step_generalized(gp, s, x0)
        record(2, min(pair_residual(got, step_quadratic_family(qp, ss, x0)) for ss in SIGNS))


def _draw_conda(rng: random.Random, record: Callable[..., None]) -> None:
    A = LinearChange(*(draw_complex(rng) for _ in range(4)))
    p = CubicFamilyParams(draw_complex(rng), draw_complex(rng), 1)
    table = k1_coeff_table(A, p, rng.choice(SIGNS))
    scale = max(abs(c) for c in table)
    bound = max(scale, 1e-6) ** 4
    record(0, abs(conda_residual(table)) / bound)


def _draw_conjugation(rng: random.Random, record: Callable[..., None]) -> None:
    A = LinearChange(*(draw_complex(rng) for _ in range(4)))
    p = CubicFamilyParams(draw_complex(rng), draw_complex(rng), rng.choice([-1, 1, 2]))
    z = draw_pair(rng)
    s = rng.choice(SIGNS)
    got = step_conjugated(A, p, s, z)
    want = A.apply(step_cubic_family(p, s, A.invert(z)))
    record(0, pair_residual(got, want))

    if p.k == 1:
        table = k1_coeff_table(A, p, s)
        for _probe in range(5):
            w = draw_pair(rng)
            via_table = (
                table.a11 * w[0] ** 2 + table.a12 * w[1] ** 2 + table.a13 * w[0] * w[1],
                table.a21 * w[0] ** 2 + table.a22 * w[1] ** 2 + table.a23 * w[0] * w[1],
            )
            record(1, pair_residual(via_table, step_conjugated(A, p, s, w)))


def _draw_yz(rng: random.Random, record: Callable[..., None]) -> None:
    gp = GeneralizedParams(
        draw_complex(rng), draw_complex(rng),
        draw_complex(rng), draw_complex(rng),
        draw_complex(rng), draw_complex(rng), draw_complex(rng),
        rng.choice([-1, 1, 2]),
    )
    z = draw_pair(rng)
    y = yz_forward(gp, z)
    # Forward-inverse round trip on coefficients, both branches.
    for b in SIGNS:
        back = yz_forward(gp, yz_invert(gp, y, b))
        record(0, residual(back.y1, y.y1), residual(back.y2, y.y2))
    # Inverse-forward recovers z on one branch.
    record(1, min(pair_residual(yz_invert(gp, y, b), z) for b in SIGNS))
    # The coefficient image of the step is sign-independent and y-steps.
    images = [yz_forward(gp, step_generalized(gp, s, z)) for s in SIGNS]
    record(2, residual(images[0].y1, images[1].y1), residual(images[0].y2, images[1].y2))
    stepped = y_step(gp.y_params(), y)
    record(2, residual(images[0].y1, stepped.y1), residual(images[0].y2, stepped.y2))
    record(3, abs(gp.g3 + gp.g1))


def _cubic_worked_instance() -> list[PropertyResult]:
    """a = b = k = 1, x0 = (1, 0): the step-1 branch set is {(-6, 0), (-2, -8)}."""
    branches = solve_cubic_family(CubicFamilyParams(1, 1, 1), (1, 0), 1).branch_set(1)
    res = _set_equal_residual(list(branches), [(-6 + 0j, 0j), (-2 + 0j, -8 + 0j)], unordered=False)
    return [_property("worked instance branch set", res, 1e-12)]


def _double_step_hand_instance() -> list[PropertyResult]:
    """a = b = k = 1, x0 = (1, 0), sign product +: the double step gives (-216, 0)."""
    direct = double_step_cubic(CubicFamilyParams(1, 1, 1), PLUS, (1, 0))
    return [_property("hand instance (-216, 0)", pair_residual(direct, (-216 + 0j, 0j)), 1e-12)]


def _conda_positive_control() -> list[PropertyResult]:
    res = abs(conda_residual(K1CoeffTable(1, 0, 0, 0, 1, 0)) - 1)
    return [_property("positive control residual equals 1", res, 0.0)]


def _prefactor_instances() -> list[PropertyResult]:
    """Demonstrates the printed 1/2 inversion prefactor is wrong and 1/3 right."""
    y1, y2 = -2 + 0j, 1 + 0j
    corrected, printed = 0.0, float("inf")
    for s in SIGNS:
        m = cubic_from_zeros(cubic_zeros_branch(y1, y2, s))
        corrected = max(corrected, residual(m.y1, y1), residual(m.y2, y2))
        mp = cubic_from_zeros(cubic_zeros_printed(y1, y2, s))
        printed = min(printed, max(residual(mp.y1, y1), residual(mp.y2, y2)))
    detail = f"printed 1/2 variant residual {printed:.3e} (> 0.1 demonstrates the misprint)"
    return [
        _property("corrected 1/3 inversion round-trips", corrected, 1e-12, detail),
        # Inverted rule: this property passes when the printed variant fails.
        PropertyResult("printed 1/2 inversion fails round-trip", printed > 0.1, printed, 0.1,
                       detail="pass means the discrepancy is confirmed"),
    ]


class _Suite(NamedTuple):
    """One suite: ``draws`` calls of ``draw``, scored against ``properties`` in ``record`` index
    order, skipping a draw that raises ``skip``; ``fixed()``'s results follow the drawn ones."""

    draws: int
    draw: Callable[[random.Random, Callable[..., None]], None] | None
    properties: Sequence[tuple[str, float]]
    skip: type[Exception] | tuple[type[Exception], ...] = NumericError
    fixed: Callable[[], list[PropertyResult]] | None = None


_SUITES: dict[str, _Suite] = {
    "y-closed": _Suite(100, _draw_y_closed, [
        ("closed-form equals iteration", TOL),
        ("special closed form equals general", TOL),
        ("semigroup property", TOL),
    ]),
    "quad-family": _Suite(50, _draw_quad_family, [
        ("sign flip swaps components exactly", 0.0),
        ("orbits match closed-form unordered pair", 1e-8),
    ]),
    "cubic-collapse": _Suite(25, _draw_cubic_collapse, [
        ("2**ell orbits collapse to solver branch pair", 1e-8),
    ], fixed=_cubic_worked_instance),
    "double-step": _Suite(50, _draw_double_step, [
        ("double-step formula equals two steps", TOL),
    ], fixed=_double_step_hand_instance),
    "reductions": _Suite(50, _draw_reductions, [
        ("sqrt-quadratic reduces to quadratic family", TOL),
        ("sqrt-cubic reduces to cubic family", TOL),
        ("generalized reduces to quadratic family", TOL),
    ]),
    "conda": _Suite(100, _draw_conda, [
        ("common-zero constraint residual vanishes", TOL),
    ], skip=SingularChangeError, fixed=_conda_positive_control),
    "conjugation": _Suite(100, _draw_conjugation, [
        ("conjugation identity", TOL),
        ("k=1 coefficient table matches map on probes", TOL),
    ], skip=(SingularChangeError, NumericError)),
    "yz": _Suite(100, _draw_yz, [
        ("yz forward/inverse round trip", TOL),
        ("inverse recovers state on one branch", TOL),
        ("coefficient image sign-independent and y-steps", TOL),
        ("g3 = -g1 exactly", 0.0),
    ], skip=(ConfigError, NumericError)),
    "prefactor": _Suite(0, None, [], fixed=_prefactor_instances),
}

SUITE_NAMES = tuple(_SUITES)


def run_verify(seed: int = 42, suites: Iterable[str] | None = None) -> VerifyReport:
    """Run the selected suites (all by default) with a seeded PRNG."""
    names = list(suites) if suites is not None else list(SUITE_NAMES)
    if not names:
        raise ConfigError(f"no verify suites selected; known: {', '.join(SUITE_NAMES)}")
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise ConfigError(f"unknown verify suites: {', '.join(unknown)}; known: {', '.join(SUITE_NAMES)}")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ConfigError(f"verify suites selected more than once: {', '.join(repeated)}")
    report = VerifyReport(seed=seed)
    for name in names:
        row = _SUITES[name]
        suite = SuiteResult(name)
        # Per-suite child seeds keep reports stable under suite selection.
        _run_draws(suite, random.Random(f"{seed}:{name}"), row.draws, row.draw, row.properties, row.skip)
        if row.fixed is not None:
            suite.properties += row.fixed()
        if suite.skipped > 0.2 * suite.draws:
            suite.notes.append(
                f"skipped {suite.skipped}/{suite.draws} draws; consider lowering the sampling scale"
            )
        report.suites.append(suite)
    return report
