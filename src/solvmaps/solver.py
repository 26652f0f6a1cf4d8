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
nothing to cancel, and each zero is linear in (y1, +/-sqrt(D)).  Those
powers are factors of y2's closed form too, so each step's one closed-form
call forms D in the same pass (an ``OrbitPowers`` built with D(0)).  Each
branch is then its bridge's one root inversion (``quad_zeros_from_root``,
``cubic_zeros_from_root`` or ``yz_from_root``) at +sqrt(D) or -sqrt(D).
Where that linear form cancels instead, because one zero is far smaller than
the other, the quadratic and cubic maps take the small zero from y2 (Vieta).
The square-root systems' D carries a gamma term, so they invert (y1, y2)
alone.

A numeric error (overflow, zero base to a negative power) or a non-finite
value before ``ellmax`` truncates the solution at the failing step and is
recorded with its ``step`` set to that ``ell``.
"""

from __future__ import annotations

from cmath import isfinite
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import NumericError
from .numeric import MINUS, PLUS, ComplexPair, ensure_finite, principal_sqrt
from .polybridge import (
    cubic_from_zeros,
    cubic_zeros_from_root,
    quad_from_zeros,
    quad_zeros_from_root,
)
from .stepmaps import ConjugatedParams, CubicFamilyParams, GeneralizedParams, QuadraticFamilyParams, yz_forward, yz_from_root
from .ysystem import OrbitPowers, YParams, YState, y_closed, y_closed_special


class BranchEntry(NamedTuple):
    """Both closed-form branches plus the underlying coefficients at one step."""

    plus: ComplexPair
    minus: ComplexPair
    y: YState


@dataclass
class BranchSolution:
    """Per-step branch sets: ``entries[ell]`` is step ``ell``.

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
        return (entry.plus, entry.minus)


def _evolve(ellmax: int, branches) -> BranchSolution:
    """Collect ``branches(ell)``, a :class:`BranchEntry`, for ``ell = 0 .. ellmax``.

    Its ``y`` comes from a closed form, which has checked it; its branches
    are checked here.
    """
    solution = BranchSolution()
    for ell in range(ellmax + 1):
        try:
            (x1, x2), (w1, w2), _ = entry = branches(ell)
            if not isfinite(x1 + x2 + w1 + w2):  # a finite sum has four finite terms
                for z in (x1, x2, w1, w2):
                    ensure_finite(z)
        except NumericError as exc:
            exc.step = ell
            solution.error = exc
            break
        solution.entries.append(entry)
    return solution


def _solve_coefficients(yp: YParams, y0: YState, ellmax: int, invert) -> BranchSolution:
    """Evolve (y1, y2) with the general closed form; ``invert`` maps it to its entry."""
    powers = OrbitPowers(yp, y0)
    return _evolve(ellmax, lambda ell: invert(y_closed(yp, y0, ell, powers=powers)))


def _root_invert(y: YState, c: int, zeros) -> BranchEntry:
    """The root inversion ``zeros`` at PLUS and MINUS times the principal root w of y1**2 - c y2.

    These are the bits of its bridge's sign-taking inversion, ``quad_zeros`` or ``cubic_zeros_branch``.
    """
    y1, y2 = y
    w = principal_sqrt(y1 * y1 - c * y2)
    return BranchEntry(zeros(y1, PLUS * w, y2), zeros(y1, MINUS * w, y2), y)


def _solve_family(yp: YParams, y0: YState, r: complex, ellmax: int, zeros) -> BranchSolution:
    """Evolve (y1, y2) and D from D(0) = r**2; ``zeros(y1, +/-sqrt(D), y2)`` gives each branch."""
    powers = OrbitPowers(yp, y0, d0=r * r)

    def branches(ell: int) -> BranchEntry:
        y1, y2 = y = y_closed_special(yp, y0, ell, powers=powers)
        root = principal_sqrt(powers.d)  # D(ell), from the same pass
        return BranchEntry(zeros(y1, root, y2), zeros(y1, -root, y2), y)

    return _evolve(ellmax, branches)


def solve_y(p: YParams, y0: ComplexPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the y-system itself; both branches are (y1, y2)."""
    return _solve_coefficients(p, YState(*y0), ellmax, lambda y: BranchEntry(y, y, y))


def solve_sqrt_quadratic(p: YParams, x0: ComplexPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the square-root quadratic system (free q, r)."""
    return _solve_coefficients(p, quad_from_zeros(x0), ellmax, lambda y: _root_invert(y, 4, quad_zeros_from_root))


def solve_quadratic_family(p: QuadraticFamilyParams, x0: ComplexPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the quadratic family."""
    return _solve_family(p.y_params(), quad_from_zeros(x0), x0[0] - x0[1], ellmax, quad_zeros_from_root)


def solve_sqrt_cubic(p: YParams, x0: ComplexPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the square-root cubic system (free q, r)."""
    return _solve_coefficients(p, cubic_from_zeros(x0), ellmax, lambda y: _root_invert(y, 3, cubic_zeros_from_root))


def solve_cubic_family(p: CubicFamilyParams, x0: ComplexPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the cubic family."""
    return _solve_family(p.y_params(), cubic_from_zeros(x0), x0[0] - x0[1], ellmax, cubic_zeros_from_root)


def solve_generalized(p: GeneralizedParams, z0: ComplexPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the generalized B/C system."""
    r0 = p.g2 * z0[0] + p.g3 * z0[1]
    return _solve_family(p.y_params(), yz_forward(p, z0), r0, ellmax, lambda y1, r, y2: yz_from_root(p, y1, r))


def solve_conjugated(c: ConjugatedParams, z0: ComplexPair, ellmax: int) -> BranchSolution:
    """Closed-form orbit of the conjugated cubic family: A applied componentwise."""
    x0 = c.invert(z0)
    return _solve_family(c.y_params(), cubic_from_zeros(x0), x0[0] - x0[1], ellmax,
                         lambda y1, r, y2: c.apply(cubic_zeros_from_root(y1, r, y2)))
