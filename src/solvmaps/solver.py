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
(overflow, zero base to a negative power), or yields a non-finite value,
before ``ellmax``, the solution is truncated at the failing step and records
the error, whose ``step`` is set to that ``ell``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

from .errors import NumericError
from .numeric import MINUS, PLUS, ComplexPair, ensure_finite
from .polybridge import (
    DistinctZeroPair,
    MonicQuadratic,
    ZeroPair,
    cubic_from_zeros,
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
from .ysystem import OrbitPowers, YParams, YState, y_closed, y_closed_special


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

    A truncated solution has ``error`` set to the numeric error (whatever it
    was) that ended it, and ``overflow_at`` names its step: the ``ell`` of
    the first entry not delivered.
    """

    entries: list[BranchEntry] = field(default_factory=list)
    error: NumericError | None = None

    @property
    def overflow_at(self) -> int | None:
        return None if self.error is None else self.error.step

    def branch_set(self, ell: int) -> tuple[ComplexPair, ComplexPair]:
        entry = self.entries[ell]
        assert entry.ell == ell
        return (entry.plus, entry.minus)


def _evolve(yp: YParams, y0: YState, ellmax: int, closed_form, invert) -> BranchSolution:
    """Evaluate ``closed_form`` at each step and ``invert`` its state into branches.

    Callers name the closed form at the call, never as a default argument:
    a default is bound once, when the module is loaded, and would bypass a
    later rebinding of the module attribute.
    """
    solution = BranchSolution()
    powers = OrbitPowers(yp, y0)
    for ell in range(ellmax + 1):
        try:
            y = closed_form(yp, y0, ell, powers=powers)
            plus, minus = invert(y)
            # A finite sum means finite values; an overflowing sum is checked value by value.
            if not cmath.isfinite(plus[0] + plus[1] + minus[0] + minus[1] + y.y1 + y.y2):
                for z in (*plus, *minus, y.y1, y.y2):
                    ensure_finite(z)
        except NumericError as exc:
            exc.step = ell
            solution.error = exc
            break
        solution.entries.append(BranchEntry(ell, plus, minus, y))
    return solution


def _identity_invert(y: YState) -> tuple[ComplexPair, ComplexPair]:
    pair = (y.y1, y.y2)
    return pair, pair


def _quad_invert(y: YState) -> tuple[ZeroPair, ZeroPair]:
    pair = quad_zeros(MonicQuadratic(y.y1, y.y2))
    # Indistinguishable zeros: both branches coincide as unordered pairs.
    return pair, (pair[1], pair[0])


def _cubic_invert(y: YState) -> tuple[DistinctZeroPair, DistinctZeroPair]:
    return (
        cubic_zeros_branch(y.y1, y.y2, PLUS),
        cubic_zeros_branch(y.y1, y.y2, MINUS),
    )


def solve_y(p: YParams, y0: ComplexPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the y-system itself; both branches are (y1, y2)."""
    return _evolve(p, YState(*y0), ellmax, y_closed, _identity_invert)


def solve_sqrt_quadratic(p: YParams, x0: ZeroPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the square-root quadratic system (free q, r)."""
    return _evolve(p, YState(*quad_from_zeros(x0)), ellmax, y_closed, _quad_invert)


def solve_quadratic_family(p: QuadraticFamilyParams, x0: ZeroPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the quadratic family."""
    return _evolve(p.y_params(), YState(*quad_from_zeros(x0)), ellmax, y_closed_special, _quad_invert)


def solve_sqrt_cubic(p: YParams, x0: DistinctZeroPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the square-root cubic system (free q, r)."""
    return _evolve(p, YState(*cubic_from_zeros(x0)[:2]), ellmax, y_closed, _cubic_invert)


def solve_cubic_family(p: CubicFamilyParams, x0: DistinctZeroPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the cubic family."""
    return _evolve(p.y_params(), YState(*cubic_from_zeros(x0)[:2]), ellmax, y_closed_special, _cubic_invert)


def solve_generalized(p: GeneralizedParams, z0: ComplexPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the generalized B/C system."""

    def invert(y: YState) -> tuple[ComplexPair, ComplexPair]:
        return yz_invert(p, y, PLUS), yz_invert(p, y, MINUS)

    return _evolve(p.y_params(), yz_forward(p, z0), ellmax, y_closed_special, invert)


def solve_conjugated(
    A: LinearChange, p: CubicFamilyParams, z0: ComplexPair, ellmax: int
) -> BranchSolution:
    """Closed-form orbit of the conjugated cubic family: A applied componentwise."""

    def invert(y: YState) -> tuple[ComplexPair, ComplexPair]:
        plus, minus = _cubic_invert(y)
        return A.apply(plus), A.apply(minus)

    return _evolve(p.y_params(), YState(*cubic_from_zeros(A.invert(z0))[:2]), ellmax, y_closed_special, invert)
