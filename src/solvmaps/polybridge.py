"""Bidirectional maps between dependent variables and polynomial coefficients.

Two bridges are provided:

* the quadratic bridge: the unordered pair (x1, x2) as the two
  indistinguishable zeros of z**2 + y1 z + y2;
* the cubic double-root bridge: the ordered pair (x1, x2) as the zeros of
  z**3 + y1 z**2 + y2 z + y3 = (z - x1)**2 (z - x2), where x1 has
  multiplicity 2 and the labels are meaningful.

The double-root inversion is implemented with the algebraically consistent
prefactor 1/3 (the 1/2 printed in the source formula fails the round-trip
test); the printed variant is kept available for the discrepancy report.
"""

from __future__ import annotations

from typing import NamedTuple

from .numeric import ComplexPair, Sign, cpow, principal_sqrt, sqrt_branch
from .ysystem import YState


class DistinctZeroPair(NamedTuple):
    """Ordered pair: x1 is the double zero, x2 the simple zero."""

    x1: complex
    x2: complex


#: Unordered pair of indistinguishable zeros; equality is pair_eq_unordered.
ZeroPair = ComplexPair


def quad_from_zeros(p: ZeroPair) -> YState:
    """Vieta: coefficients of the monic quadratic with the given zeros."""
    x1, x2 = p
    return YState(-(x1 + x2), x1 * x2)


def quad_zeros(m: YState) -> ZeroPair:
    """The unordered zero pair of z**2 + y1 z + y2, the larger-magnitude zero first."""
    y1, y2 = complex(m[0]), complex(m[1])
    s = principal_sqrt(y1 * y1 - 4 * y2)
    if abs(-y1 + s) < abs(-y1 - s):
        s = -s  # the sign-matched root: (-y1 + s) / 2 is the larger zero
    return quad_zeros_from_root(y1, s, y2)


def quad_zeros_from_root(y1: complex, r: complex, y2: complex) -> ZeroPair:
    """The zero pair ((-y1 + r) / 2, (-y1 - r) / 2) of z**2 + y1 z + y2.

    ``r`` is a square root of the discriminant y1**2 - 4 y2; the other root
    swaps the pair.  Only the larger zero is taken from that sum: the smaller
    one would cancel in it, so it is y2 over the larger (Vieta).
    """
    first, second = (-y1 + r) / 2, (-y1 - r) / 2
    if abs(second) > abs(first):
        return (y2 / second, second)
    return (first, y2 / first) if first else (0j, 0j)


def cubic_from_zeros(d: DistinctZeroPair) -> YState:
    """(y1, y2) of (z - x1)**2 (z - x2); the dependent y3 is :func:`y3_from_y12`'s."""
    x1, x2 = d
    return YState(-(2 * x1 + x2), x1 * (x1 + 2 * x2))


def cubic_zeros_branch(y1: complex, y2: complex, b: Sign) -> DistinctZeroPair:
    """One branch of the double-root inversion.

    x1 solves 3 x1**2 + 2 y1 x1 + y2 = 0; the two branches enumerate both
    solutions, with x2 back-substituted from y1 = -(2 x1 + x2).  A zero
    discriminant yields the triple-root pair for both branches.
    """
    return cubic_zeros_from_root(y1, b * principal_sqrt(y1 * y1 - 3 * y2), y2)


def cubic_zeros_from_root(y1: complex, r: complex, y2: complex) -> DistinctZeroPair:
    """The double-root pair with 2 x1 + x2 = -y1 and x1 - x2 = r.

    ``r`` is a square root of the discriminant y1**2 - 3 y2; the two roots
    give the two branches.  x1 = (-y1 + r) / 3, unless that sum comes out
    smaller than y1 and so has cancelled: then x1 is y2 / (-y1 - r), since
    (-y1 + r)(-y1 - r) = 3 y2.  A simple zero x2 far smaller than x1 keeps
    only the absolute accuracy of y1, as (y1, y2) determine it no better.
    """
    head = -y1 + r
    x1 = y2 / (-y1 - r) if abs(head) < abs(y1) else head / 3
    return DistinctZeroPair(x1, -y1 - 2 * x1)


def cubic_zeros_printed(y1: complex, y2: complex, s: Sign) -> DistinctZeroPair:
    """The double-root inversion with the (incorrect) printed 1/2 prefactor.

    Kept only so the verification report can demonstrate that this variant
    fails the round-trip check while :func:`cubic_zeros_branch` passes.
    """
    w = sqrt_branch(y1 * y1 - 3 * y2, s)
    x1 = (-y1 - w) / 2
    x2 = (-y1 + 2 * w) / 2
    return DistinctZeroPair(x1, x2)


def y3_from_y12(y1: complex, y2: complex, s: Sign) -> complex:
    """The dependent cubic coefficient y3 in terms of y1 and y2.

    y3 = (-2 y1**3 + 9 y1 y2 + 2 S (y1**2 - 3 y2)**(3/2)) / 27, with the
    half-integer power evaluated as the cubed branch square root.
    """
    w = sqrt_branch(y1 * y1 - 3 * y2, s)
    return (-2 * cpow(y1, 3) + 9 * y1 * y2 + 2 * cpow(w, 3)) / 27
