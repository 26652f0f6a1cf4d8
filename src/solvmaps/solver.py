"""Closed-form initial-value solvers.

Each solver evolves the polynomial coefficients with the y-system closed
form (evaluated directly per step, not by chaining), inverts the matching
bridge, and returns the explicit two-branch solution set.  Branch labels
follow the bridge conventions and are not claimed to align with any
particular sign sequence; the contract is set-equality per step.

The squarings of alpha, beta and y1(0) are shared across the steps of one
orbit (one :class:`~solvmaps.ysystem.OrbitPowers` per solve), so a long
orbit costs far less than a fresh closed-form call per step while every
result stays bit-identical to one.

If closed-form evaluation or the bridge inversion fails with a numeric error
(overflow, zero base to a negative power) before ``ellmax``, the solution is
truncated at the failing step and records the error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NumericError
from .numeric import MINUS, PLUS, ComplexPair
from .polybridge import (
    DistinctZeroPair,
    MonicQuadratic,
    ZeroPair,
    cubic_zeros_branch,
    quad_from_zeros,
    quad_zeros,
)
from .stepmaps import (
    CubicFamilyParams,
    GeneralizedParams,
    LinearChange,
    QuadraticFamilyParams,
    yz_forward,
    yz_invert,
)
from .ysystem import OrbitPowers, YClosedForm, YParams, YState, y_closed, y_closed_special


@dataclass(frozen=True)
class BranchEntry:
    """Both closed-form branches plus the underlying coefficients at one step."""

    ell: int
    plus: ComplexPair
    minus: ComplexPair
    y: YState


@dataclass
class BranchSolution:
    """Per-step branch sets.

    A truncated solution has ``overflow_at`` set to the step that failed
    (whatever the numeric error was) and ``error`` to the error itself.
    """

    entries: list[BranchEntry] = field(default_factory=list)
    overflow_at: int | None = None
    error: NumericError | None = None

    def branch_set(self, ell: int) -> tuple[ComplexPair, ComplexPair]:
        entry = self.entries[ell]
        assert entry.ell == ell
        return (entry.plus, entry.minus)


def _evolve(
    yp: YParams,
    y0: YState,
    ellmax: int,
    invert,
    special: bool,
) -> BranchSolution:
    solution = BranchSolution()
    powers = OrbitPowers(yp, y0)
    for ell in range(ellmax + 1):
        try:
            closed: YClosedForm = (
                y_closed_special(yp, y0, ell, powers=powers)
                if special
                else y_closed(yp, y0, ell, powers=powers)
            )
            plus, minus = invert(closed.state)
        except NumericError as exc:
            solution.overflow_at = ell
            solution.error = exc
            break
        solution.entries.append(BranchEntry(ell, plus, minus, closed.state))
    return solution


def _quad_invert(y: YState) -> tuple[ZeroPair, ZeroPair]:
    pair = quad_zeros(MonicQuadratic(y.y1, y.y2))
    # Indistinguishable zeros: both branches coincide as unordered pairs.
    return pair, (pair[1], pair[0])


def _cubic_invert(y: YState) -> tuple[DistinctZeroPair, DistinctZeroPair]:
    return (
        cubic_zeros_branch(y.y1, y.y2, PLUS),
        cubic_zeros_branch(y.y1, y.y2, MINUS),
    )


def solve_sqrt_quadratic(p: YParams, x0: ZeroPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the square-root quadratic system (free q, r)."""
    y0 = quad_from_zeros(x0)
    return _evolve(p, YState(y0.y1, y0.y2), ellmax, _quad_invert, special=False)


def solve_quadratic_family(p: QuadraticFamilyParams, x0: ZeroPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the quadratic family."""
    y0 = quad_from_zeros(x0)
    return _evolve(p.y_params(), YState(y0.y1, y0.y2), ellmax, _quad_invert, special=True)


def solve_sqrt_cubic(p: YParams, x0: DistinctZeroPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the square-root cubic system (free q, r)."""
    x1, x2 = x0
    y0 = YState(-(2 * x1 + x2), x1 * (x1 + 2 * x2))
    return _evolve(p, y0, ellmax, _cubic_invert, special=False)


def solve_cubic_family(p: CubicFamilyParams, x0: DistinctZeroPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the cubic family."""
    x1, x2 = x0
    y0 = YState(-(2 * x1 + x2), x1 * (x1 + 2 * x2))
    return _evolve(p.y_params(), y0, ellmax, _cubic_invert, special=True)


def solve_generalized(p: GeneralizedParams, z0: ComplexPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the generalized B/C system."""

    def invert(y: YState) -> tuple[ComplexPair, ComplexPair]:
        return yz_invert(p, y, PLUS), yz_invert(p, y, MINUS)

    return _evolve(p.y_params(), yz_forward(p, z0), ellmax, invert, special=True)


def solve_conjugated(
    A: LinearChange, p: CubicFamilyParams, z0: ComplexPair, ellmax: int
) -> BranchSolution:
    """Closed-form orbit of the conjugated cubic family: A applied componentwise."""
    x0 = A.invert(z0)
    inner = solve_cubic_family(p, DistinctZeroPair(*x0), ellmax)
    mapped = BranchSolution(overflow_at=inner.overflow_at, error=inner.error)
    for entry in inner.entries:
        mapped.entries.append(
            BranchEntry(entry.ell, A.apply(entry.plus), A.apply(entry.minus), entry.y)
        )
    return mapped
