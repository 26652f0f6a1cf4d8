"""Closed-form initial-value solvers.

Each solver evolves the coefficients (y1, y2) with the y-system closed form
(evaluated directly per step, not by chaining) and inverts them into the
explicit two-branch solution set.  Branch labels follow the principal square
root of the inversion; the contract is set-equality per step.

Zeros rebuilt from sqrt(y1**2 - c y2) lose half their digits near a double
zero, where that difference cancels.  So the four special-form families
(q = 2k, r = 2(1+k)) also evolve D, the discriminant of their inversion:
(x1 - x2)**2 in the quadratic and cubic families, (g2 z1 + g3 z2)**2 in the
generalized system.  D obeys the y-system with gamma = 0,
D' = beta**2 y1**(2k) D, so its closed form is a product of powers with
nothing to cancel, and each zero is linear in (y1, +/-sqrt(D)).  Where that
linear form cancels instead, because one zero is far smaller than the other,
the quadratic and cubic maps take the small zero from y2 (Vieta).  The
square-root systems' D carries a gamma term, so they invert (y1, y2) alone.

A numeric error (overflow, zero base to a negative power) or a non-finite
value before ``ellmax`` truncates the solution at the failing step and is
recorded with its ``step`` set to that ``ell``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import NumericError
from .numeric import MINUS, PLUS, ComplexPair, ensure_all_finite, principal_sqrt
from .polybridge import (
    DistinctZeroPair,
    ZeroPair,
    cubic_from_zeros,
    cubic_zeros_branch,
    cubic_zeros_from_root,
    quad_from_zeros,
    quad_zeros,
    quad_zeros_from_root,
)
from .stepmaps import CubicFamilyParams, GeneralizedParams, LinearChange, QuadraticFamilyParams, yz_forward, yz_from_root
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


def _evolve(ellmax: int, branches) -> BranchSolution:
    """Collect ``branches(ell) = (plus, minus, y)`` for ``ell = 0 .. ellmax``."""
    solution = BranchSolution()
    for ell in range(ellmax + 1):
        try:
            plus, minus, y = branches(ell)
            ensure_all_finite(*plus, *minus, *y)
        except NumericError as exc:
            exc.step = ell
            solution.error = exc
            break
        solution.entries.append(BranchEntry(ell, plus, minus, y))
    return solution


def _solve_coefficients(yp: YParams, y0: YState, ellmax: int, invert) -> BranchSolution:
    """Evolve (y1, y2) with the general closed form; ``invert`` maps it to ``(plus, minus, y)``."""
    powers = OrbitPowers(yp, y0)
    return _evolve(ellmax, lambda ell: invert(y_closed(yp, y0, ell, powers=powers)))


def _quad_invert(y: YState) -> tuple[ZeroPair, ZeroPair, YState]:
    pair = quad_zeros(y)
    # Indistinguishable zeros: both branches coincide as unordered pairs.
    return pair, (pair[1], pair[0]), y


def _cubic_invert(y: YState) -> tuple[DistinctZeroPair, DistinctZeroPair, YState]:
    return cubic_zeros_branch(y.y1, y.y2, PLUS), cubic_zeros_branch(y.y1, y.y2, MINUS), y


def _solve_family(yp: YParams, y0: YState, r: complex, ellmax: int, zeros) -> BranchSolution:
    """Evolve (y1, y2) and (y1, D = r**2); the branches are ``zeros(y1, +/-sqrt(D), y2)``."""
    dp, d0 = replace(yp, gamma=0), YState(y0.y1, r * r)
    powers = OrbitPowers(yp, y0)  # D's orbit has the same alpha, beta and y1(0)

    def branches(ell: int) -> tuple[ComplexPair, ComplexPair, YState]:
        y = y_closed_special(yp, y0, ell, powers=powers)
        root = principal_sqrt(y_closed(dp, d0, ell, powers=powers).y2)
        return zeros(y.y1, root, y.y2), zeros(y.y1, -root, y.y2), y

    return _evolve(ellmax, branches)


def solve_y(p: YParams, y0: ComplexPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the y-system itself; both branches are (y1, y2)."""
    return _solve_coefficients(p, YState(*y0), ellmax, lambda y: (y, y, y))


def solve_sqrt_quadratic(p: YParams, x0: ZeroPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the square-root quadratic system (free q, r)."""
    return _solve_coefficients(p, quad_from_zeros(x0), ellmax, _quad_invert)


def solve_quadratic_family(p: QuadraticFamilyParams, x0: ZeroPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the quadratic family."""
    return _solve_family(p.y_params(), quad_from_zeros(x0), x0[0] - x0[1], ellmax, quad_zeros_from_root)


def solve_sqrt_cubic(p: YParams, x0: DistinctZeroPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the square-root cubic system (free q, r)."""
    return _solve_coefficients(p, cubic_from_zeros(x0), ellmax, _cubic_invert)


def solve_cubic_family(p: CubicFamilyParams, x0: DistinctZeroPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the cubic family."""
    return _solve_family(p.y_params(), cubic_from_zeros(x0), x0[0] - x0[1], ellmax, cubic_zeros_from_root)


def solve_generalized(p: GeneralizedParams, z0: ComplexPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the generalized B/C system."""
    r0 = p.g2 * z0[0] + p.g3 * z0[1]
    return _solve_family(p.y_params(), yz_forward(p, z0), r0, ellmax, lambda y1, r, y2: yz_from_root(p, y1, r))


def solve_conjugated(A: LinearChange, p: CubicFamilyParams, z0: ComplexPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the conjugated cubic family: A applied componentwise."""
    x0 = A.invert(z0)
    return _solve_family(
        p.y_params(), cubic_from_zeros(x0), x0[0] - x0[1], ellmax,
        lambda y1, r, y2: A.apply(cubic_zeros_from_root(y1, r, y2)),
    )
