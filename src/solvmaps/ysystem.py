"""The base solvable triangular system and its closed-form solutions.

One step of the recursion

    y1' = alpha * y1**(1+k)
    y2' = beta**2 * y2 * y1**q + gamma * y1**r

together with the general closed form (arbitrary integer exponents q, r) and
the more explicit special closed form available under the assignment
q = 2k, r = 2(1+k), where the accumulator sum collapses to a geometric
series.

All closed-form exponents are computed in exact integer arithmetic first
(they grow like (1+k)**ell) and only then applied to complex bases, so the
divisibility identities underlying the formulas are checked rather than
approximated.  Where k divides q, the scale factor alpha**e_alpha *
y1(0)**e_y10 is read off y1 instead, as y1**(q/k) alpha**(-q ell/k)
y1(0)**(-q/k): the same closed form, with exponents of O(log ell) bits.

Every power of alpha, beta and y1(0) is drawn from an :class:`OrbitPowers`,
one squaring ladder per base.  A caller that evaluates many steps of one
orbit builds it once and passes it to each call, so the squarings are shared
across the orbit.  It also keeps the last step's factors, so orbits with the
same alpha, beta and y1(0) (the family solvers' coefficients and
discriminant) compute each step's factors once, and the general form's last
gamma sum, which it evaluates by Horner's rule in beta**2: the next step of
the orbit adds one term to it, not ell.  Sums and scale are the same
whichever steps were evaluated before, so a closed form is bit-identical
with and without a shared :class:`OrbitPowers`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError, NonIntegerExponentError, NumericError, QRMismatchError
from .numeric import Powers, cpow, ensure_finite, is_finite


def _require_int(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class YParams:
    """Parameters of the triangular system; k, q, r are integers, k != 0."""

    alpha: complex
    beta: complex
    gamma: complex
    k: int
    q: int
    r: int

    def __post_init__(self) -> None:
        for name in ("k", "q", "r"):
            _require_int(name, getattr(self, name))
        if self.k == 0:
            raise ConfigError("k = 0 is rejected: closed-form exponents divide by k")
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "gamma", complex(self.gamma))


class YState(NamedTuple):
    """Coefficients (y1, y2) of the system, and of the monic quadratic z**2 + y1 z + y2."""

    y1: complex
    y2: complex


class OrbitPowers:
    """Squaring ladders of alpha, beta and y1(0), and the last step's results.

    Pass the same instance to every closed-form call whose alpha, beta and
    y1(0) it was built from: the steps of one orbit, and orbits that share
    those bases, such as one with another y2(0) or gamma.  Drop it when they
    are done.  What it keeps only saves work: a call returns the same bits
    whatever was asked of the instance before.
    """

    __slots__ = ("alpha", "beta", "y10", "_last", "_gamma_sum")

    def __init__(self, p: YParams, y0: YState):
        self.alpha = Powers(p.alpha)
        self.beta = Powers(p.beta)
        self.y10 = Powers(y0.y1)
        self._last: tuple | None = None
        #: ``((k, q, r), ell, sum)`` of the general form's last gamma sum.
        self._gamma_sum: tuple | None = None

    def factors(self, k: int, q: int, ell: int) -> tuple[complex, complex, complex]:
        """``(y1, beta**(2 ell), alpha**e_alpha * y1(0)**e_y10)`` at time ``ell``.

        The last result is kept, so orbits sharing these bases and k, q
        compute each step's factors once.
        """
        last = self._last
        if last is not None and last[0] == (k, q, ell):
            return last[1]
        growth = (1 + k) ** ell
        y1 = self.alpha.pow(_exact_div(growth - 1, k)) * self.y10.pow(growth)
        result = (y1, self.beta.pow(2 * ell), self._scale(k, q, ell, growth, y1))
        self._last = ((k, q, ell), result)
        return result

    def _scale(self, k: int, q: int, ell: int, growth: int, y1: complex) -> complex:
        """``alpha**e_alpha * y1(0)**e_y10``, read off ``y1`` where k divides q.

        With m = q/k, e_alpha = m (growth - 1)/k - m ell and e_y10 =
        m (growth - 1), so the scale is y1**m alpha**(-m ell) y1(0)**(-m).
        Where that product raises, overflows or underflows to 0, the scale
        is taken from the exponents themselves, which have O(ell) bits.  So
        it is at ell = 0, where both exponents are 0 and the scale is
        exactly 1.
        """
        m, rem = divmod(q, k)
        if ell and not rem:
            try:
                scale = cpow(y1, m) * self.alpha.pow(-m * ell) * self.y10.pow(-m)
            except NumericError:
                pass
            else:
                if scale != 0 and is_finite(scale):
                    return scale
        e_alpha = _exact_div(q * (growth - k * ell - 1), k * k)
        e_y10 = _exact_div(q * (growth - 1), k)
        return self.alpha.pow(e_alpha) * self.y10.pow(e_y10)


def _orbit_powers(p: YParams, y0: YState, powers: OrbitPowers | None) -> OrbitPowers:
    if powers is None:
        return OrbitPowers(p, y0)
    # Tuple equality tries identity first, so the very base a ladder was built from matches even if NaN.
    if (powers.alpha.base, powers.beta.base, powers.y10.base) != (p.alpha, p.beta, y0.y1):
        raise ValueError("powers were built for other bases")
    return powers


def u_exponent(k: int, q: int, r: int) -> int:
    """The auxiliary exponent u = k*r - (1+k)*q."""
    return k * r - (1 + k) * q


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise NonIntegerExponentError(f"{num} is not divisible by {den}")
    return q


def y_step(p: YParams, s: YState) -> YState:
    """One step of the recursion.

    Terms with an identically zero coefficient are skipped, so e.g. gamma = 0
    never evaluates y1**r.  A product of finite factors that overflows raises,
    as a power would.
    """
    y1n = p.alpha * cpow(s.y1, 1 + p.k)
    y2n = 0j
    if p.beta != 0:
        y2n += p.beta * p.beta * s.y2 * cpow(s.y1, p.q)
    if p.gamma != 0:
        y2n += p.gamma * cpow(s.y1, p.r)
    return YState(ensure_finite(y1n), ensure_finite(y2n))


def _closed(
    p: YParams, y0: YState, ell: int, powers: OrbitPowers | None, add_gamma
) -> YState:
    """The closed form at time ``ell``, with the gamma terms added by ``add_gamma``.

    Every power is finite, but their products may still overflow: those raise.
    """
    if ell < 0:
        raise ValueError("ell must be non-negative")
    powers = _orbit_powers(p, y0, powers)
    y1, beta_2ell, scale = powers.factors(p.k, p.q, ell)
    # beta**(2 ell)-scaled accumulator: polynomial in beta, so beta = 0 is fine.
    bracket = add_gamma(p, powers, y0, ell, beta_2ell * y0.y2)
    return YState(ensure_finite(y1), ensure_finite(scale * bracket))


def _add_gamma_terms(
    p: YParams, powers: OrbitPowers, y0: YState, ell: int, bracket: complex
) -> complex:
    """The general form's gamma terms, gamma * sum_{s<ell} beta**(2(ell-1-s)) t_s.

    The sum is evaluated by Horner's rule in beta**2, from s = 0 or from the
    last sum kept in ``powers`` if that was for these exponents and an ell no
    larger: along an orbit each step adds one term.  At ell = 0 the sum is
    empty and gamma is not read.
    """
    if p.gamma == 0 or ell == 0:
        return bracket
    key = (p.k, p.q, p.r)
    last = powers._gamma_sum
    if last is not None and last[0] == key and last[1] <= ell:
        _, start, total = last
    else:
        start, total = 0, 0j
    b2 = p.beta * p.beta
    for s in range(start, ell):
        total = b2 * total + _gamma_term(p, powers, s)
    powers._gamma_sum = (key, ell, total)
    return bracket + p.gamma * total


def _gamma_term(p: YParams, powers: OrbitPowers, s: int) -> complex:
    """t_s = alpha**e_s * y1(0)**f_s, the gamma term of step s before beta's powers."""
    k, q, u = p.k, p.q, u_exponent(p.k, p.q, p.r)
    gs = (1 + k) ** s
    e_s = _exact_div(u * (gs - 1) + q * s * k, k * k)
    f_s = _exact_div(u * gs + q, k)
    return powers.alpha.pow(e_s) * powers.y10.pow(f_s)


def _add_geometric_sum(
    p: YParams, powers: OrbitPowers, y0: YState, ell: int, bracket: complex
) -> complex:
    """The special form's gamma term: sum_{s<ell} beta**(2(ell-1-s)) alpha**(2s).

    With a2 = alpha**2, b2 = beta**2 the sum is (a2**ell - b2**ell)/(a2 - b2).
    Where a2 is near b2 that quotient cancels, so the sum is built by
    doubling instead (:func:`_doubled_geometric_sum`).  alpha**(2 ell) and
    beta**(2 ell) are drawn even when gamma = 0, so an overflowing one still
    fails the step.  At ell = 0 the sum is empty and gamma is not read, so a
    non-finite gamma leaves the initial state intact.
    """
    if ell == 0:
        return bracket
    a2_ell, b2_ell = powers.alpha.pow(2 * ell), powers.beta.pow(2 * ell)
    if p.gamma == 0:
        return bracket
    a2 = p.alpha * p.alpha
    b2 = p.beta * p.beta
    if 2 * abs(a2 - b2) > abs(b2):
        gsum = (a2_ell - b2_ell) / (a2 - b2)
    else:
        gsum = _doubled_geometric_sum(powers, ell)
    return bracket + p.gamma * y0.y1 * y0.y1 * gsum


def _doubled_geometric_sum(powers: OrbitPowers, ell: int) -> complex:
    """sum_{s<ell} b2**(ell-1-s) a2**s for ell >= 1, from the bits of ell.

    S(2n) = S(n) (a2**n + b2**n) and S(n+1) = b2 S(n) + a2**n: O(log ell)
    steps, none of which cancels while a2 is near b2.
    """
    alpha, beta = powers.alpha, powers.beta
    b2 = beta.pow(2)
    total, n = 1 + 0j, 1
    for bit in bin(ell)[3:]:
        total *= alpha.pow(2 * n) + beta.pow(2 * n)
        n *= 2
        if bit == "1":
            total = b2 * total + alpha.pow(2 * n)
            n += 1
    return total


def y_closed(
    p: YParams, y0: YState, ell: int, *, powers: OrbitPowers | None = None
) -> YState:
    """General closed-form solution at time ``ell`` (arbitrary integer q, r).

    ``powers`` shares squarings, factors and the gamma sum between the
    steps of one orbit; without it the call builds its own.
    """
    return _closed(p, y0, ell, powers, _add_gamma_terms)


def y_closed_special(
    p: YParams, y0: YState, ell: int, *, powers: OrbitPowers | None = None
) -> YState:
    """Closed form under q = 2k, r = 2(1+k): the sum becomes geometric.

    The geometric sum stays accurate as (alpha/beta)**2 nears 1 and takes
    its limit ell * beta**(2(ell-1)) there.  ``powers`` is as for
    :func:`y_closed`.
    """
    # A negative ell is reported first, by _closed.
    if ell >= 0 and (p.q != 2 * p.k or p.r != 2 * (1 + p.k)):
        raise QRMismatchError(
            f"special closed form requires q = 2k, r = 2(1+k); got q={p.q}, r={p.r}"
        )
    return _closed(p, y0, ell, powers, _add_geometric_sum)


def y_iterate(p: YParams, y0: YState, ell: int) -> YState:
    """Chain ``ell`` steps of :func:`y_step` (the iteration oracle)."""
    state = y0
    for step in range(1, ell + 1):
        try:
            state = y_step(p, state)
        except NumericError as exc:
            exc.step = step
            raise
    return state
