"""A 60-digit reference for the y-system and the family zeros (mpmath; tests only).

The y-chain is iterated step by step at 60 significant digits, and the zeros
of each step's polynomial are read off that chain, so the reference shares
no formula and no rounding with the closed forms it judges.  Inputs are the
exact binary values of the given floats.
"""

from __future__ import annotations

import mpmath

DIGITS = 60


def y_chain(alpha, beta, gamma, k: int, q: int, r: int, y1, y2, ellmax: int) -> list[tuple]:
    """``[(y1, y2)]`` for ``ell = 0..ellmax`` of the y-system, iterated.

    y1' = alpha y1**(1+k), y2' = beta**2 y2 y1**q + gamma y1**r.
    """
    with mpmath.workdps(DIGITS):
        alpha, beta, gamma, y1, y2 = (mpmath.mpc(z) for z in (alpha, beta, gamma, y1, y2))
        chain = [(y1, y2)]
        for _ in range(ellmax):
            y1, y2 = alpha * y1 ** (1 + k), beta * beta * y2 * y1**q + gamma * y1**r
            chain.append((y1, y2))
        return chain


def quad_branches(y1, y2) -> list[tuple]:
    """The zero pair of z**2 + y1 z + y2, once per label order."""
    with mpmath.workdps(DIGITS):
        s = mpmath.sqrt(y1 * y1 - 4 * y2)
        pair = ((-y1 + s) / 2, (-y1 - s) / 2)
        return [pair, pair[::-1]]


def cubic_branches(y1, y2) -> list[tuple]:
    """Both double-root pairs (x1 double, x2 simple) of z**3 + y1 z**2 + y2 z + y3."""
    with mpmath.workdps(DIGITS):
        s = mpmath.sqrt(y1 * y1 - 3 * y2)
        branches = []
        for root in (s, -s):
            x1 = (-y1 + root) / 3
            branches.append((x1, -y1 - 2 * x1))
        return branches


def family_orbit(family: str, a, b, k: int, x0, ellmax: int) -> list[tuple[tuple, list[tuple]]]:
    """``[((y1, y2), branches)]`` per step of the quadratic or cubic family with parameters (a, b, k)."""
    with mpmath.workdps(DIGITS):
        a, b = mpmath.mpc(a), mpmath.mpc(b)
        x1, x2 = (mpmath.mpc(z) for z in x0)
        if family == "quad":
            alpha, beta, gamma = 2 * a, 2 * b, a * a - b * b
            y0, branches = (-(x1 + x2), x1 * x2), quad_branches
        else:
            alpha, beta, gamma = 3 * a, 3 * b, 3 * (a * a - b * b)
            y0, branches = (-(2 * x1 + x2), x1 * (x1 + 2 * x2)), cubic_branches
        chain = y_chain(alpha, beta, gamma, k, 2 * k, 2 * (1 + k), *y0, ellmax)
        return [(y, branches(*y)) for y in chain]
