"""Bidirectional maps between dependent variables and polynomial coefficients.

Two bridges are provided:

* the quadratic bridge: the unordered pair (x1, x2) as the two
  indistinguishable zeros of z**2 + y1 z + y2;
* the cubic double-root bridge: the ordered pair (x1, x2) as the zeros of
  z**3 + y1 z**2 + y2 z + y3 = (z - x1)**2 (z - x2), where x1 has
  multiplicity 2 and the labels are meaningful.

Both pairs are plain ``numeric.ComplexPair`` tuples; only the cubic one is ordered.
Each bridge has one root inversion (``*_zeros_from_root``) and one sign-taking
inversion (``quad_zeros``, ``cubic_zeros_branch``): the first at b times the principal root.

The double-root inversion is implemented with the algebraically consistent
prefactor 1/3 (the 1/2 printed in the source formula fails the round-trip
test); the printed variant is kept available for the discrepancy report.
"""

from __future__ import annotations

from .numeric import ComplexPair, Sign, principal_sqrt
from .ysystem import YState


def quad_from_zeros(p: ComplexPair) -> YState:
    """Vieta: coefficients of the monic quadratic with the given (unordered) zeros."""
    x1, x2 = p
    return YState(-(x1 + x2), x1 * x2)


def quad_zeros(y1: complex, y2: complex, b: Sign) -> ComplexPair:
    """The zero pair of z**2 + y1 z + y2 at b times the principal root; the signs give both orders."""
    return quad_zeros_from_root(y1, b * principal_sqrt(y1 * y1 - 4 * y2), y2)


def quad_zeros_from_root(y1: complex, r: complex, y2: complex) -> ComplexPair:
    """The zero pair ((-y1 + r) / 2, (-y1 - r) / 2) of z**2 + y1 z + y2.

    ``r`` is a square root of the discriminant y1**2 - 4 y2; the other root
    swaps the pair.  Only the larger zero is taken from that sum: the smaller
    one would cancel in it, so it is y2 over the larger (Vieta).
    """
    first, second = (-y1 + r) / 2, (-y1 - r) / 2
    if abs(second) > abs(first):
        return (y2 / second, second)
    return (first, y2 / first) if first else (0j, 0j)


def cubic_from_zeros(d: ComplexPair) -> YState:
    """(y1, y2) of (z - x1)**2 (z - x2) for the ordered pair (x1, x2); y3 is -x1**2 x2."""
    x1, x2 = d
    return YState(-(2 * x1 + x2), x1 * (x1 + 2 * x2))


def cubic_zeros_branch(y1: complex, y2: complex, b: Sign) -> ComplexPair:
    """One branch of the double-root inversion.

    x1 solves 3 x1**2 + 2 y1 x1 + y2 = 0; the two branches enumerate both
    solutions, with x2 back-substituted from y1 = -(2 x1 + x2).  A zero
    discriminant yields the triple-root pair for both branches.
    """
    return cubic_zeros_from_root(y1, b * principal_sqrt(y1 * y1 - 3 * y2), y2)


def cubic_zeros_from_root(y1: complex, r: complex, y2: complex) -> ComplexPair:
    """The double-root pair with 2 x1 + x2 = -y1 and x1 - x2 = r.

    ``r`` is a square root of the discriminant y1**2 - 3 y2; the two roots
    give the two branches.  x1 = (-y1 + r) / 3, unless that sum comes out
    smaller than y1 and so has cancelled: then x1 is y2 / (-y1 - r), since
    (-y1 + r)(-y1 - r) = 3 y2.  A simple zero x2 far smaller than x1 keeps
    only the absolute accuracy of y1, as (y1, y2) determine it no better.
    """
    head = -y1 + r
    try:
        cancelled = abs(head) < abs(y1)
    except OverflowError:  # a finite modulus past the float range; halving is exact
        cancelled = abs(head / 2) < abs(y1 / 2)
    x1 = y2 / (-y1 - r) if cancelled else head / 3
    return (x1, -y1 - 2 * x1)


def cubic_zeros_printed(y1: complex, y2: complex, s: Sign) -> ComplexPair:
    """The double-root inversion with the (incorrect) printed 1/2 prefactor.

    Kept only so the verification report can demonstrate that this variant
    fails the round-trip check while :func:`cubic_zeros_branch` passes.
    """
    w = s * principal_sqrt(y1 * y1 - 3 * y2)
    x1 = (-y1 - w) / 2
    x2 = (-y1 + 2 * w) / 2
    return (x1, x2)
