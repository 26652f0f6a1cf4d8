"""The base solvable triangular system and its closed-form solutions.

One step of the recursion

    y1' = alpha * y1**(1+k)
    y2' = beta**2 * y2 * y1**q + gamma * y1**r

together with the general closed form (arbitrary integer exponents q, r) and
the more explicit special closed form available under the assignment
q = 2k, r = 2(1+k), where the accumulator sum collapses to a geometric
series.

All closed-form exponents are computed in exact integer arithmetic (they
grow like (1+k)**ell).  Their quotients by k and k**2 are exact by algebra
for every integer k != 0, q, r and ell >= 0, so floor division yields them;
Tier-1 checks the identities on a grid (ROADMAP item 18 is the proof).
Where k divides q, the scale factor alpha**e_alpha * y1(0)**e_y10 is read
off y1 instead, as y1**(q/k) alpha**(-q ell/k) y1(0)**(-q/k): the same
closed form, with exponents of O(log ell) bits.

Every closed-form step is one pass of an :class:`OrbitPowers`, which holds
what all steps of one orbit share; a call without one builds a fresh orbit
and asks it for one step.  Each step draws its factors once and forms from
them y(ell) and, for the family solvers, their discriminant D(ell).  For
k >= 1, y1 = alpha**S(ell) y1(0)**((1+k)**ell) comes off a radix-(1+k)
ladder, alpha and y1(0) kept apart, that gains O(log(1+k)) multiplications
per step; the general form's gamma sum, by Horner's rule in beta**2, gains
one term.  Neither depends on the steps evaluated before, so a closed form
is bit-identical with and without a shared :class:`OrbitPowers`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError, NumericError
from .numeric import Powers, cpow, ensure_finite


def _require_int(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class YParams:
    """Parameters of the triangular system, kept as given; k, q, r are integers, k != 0."""

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


class YState(NamedTuple):
    """Coefficients (y1, y2) of the system, and of the monic quadratic z**2 + y1 z + y2."""

    y1: complex
    y2: complex


class OrbitPowers:
    """One closed-form orbit: what its steps share, and one pass per step.

    Built from the parameters and y(0), it computes once what every step
    reads: the squaring ladders of alpha, beta and y1(0), beta**2, the
    special form's choice of geometric sum and its factor gamma * y1(0)**2,
    and q/k with y1(0)**(-q/k).  Each step (:meth:`at`) draws y1, for k >= 1
    off a radix-(1+k) ladder that the orbit advances (:meth:`_y1`),
    beta**(2 ell) and the scale once and forms y(ell) from them.  Built with
    ``d0``, the orbit also forms D(ell) = scale * beta**(2 ell) * D(0) in the
    same pass and keeps it as ``d``: the gamma = 0 orbit from (y1(0), D(0)),
    which the family solvers evolve for their discriminant.  The general
    form's gamma sum is kept as the orbit goes, so the next step adds one
    term to it.  A step gives the same bits whichever steps were asked
    before, so a single-point closed form is a fresh orbit asked for one
    step.
    """

    __slots__ = (
        "p", "y0", "d0", "d", "alpha", "beta", "y10",
        "_b2", "_a2_minus_b2", "_doubled", "_gamma_y10_2", "_m", "_y10_m", "_start", "_rung", "_sum_ell", "_sum",
    )

    def __init__(self, p: YParams, y0: YState, d0: complex | None = None):
        self.p, self.y0, self.d0 = p, y0, d0
        #: D at the step last formed, on an orbit built with ``d0``.
        self.d: complex | None = None
        self.alpha = Powers(p.alpha)
        self.beta = Powers(p.beta)
        self.y10 = Powers(y0.y1)
        a2 = p.alpha * p.alpha
        self._b2 = p.beta * p.beta
        self._a2_minus_b2 = a2 - self._b2
        # Near a2 = b2 the geometric sum's quotient cancels, so it is built by doubling.
        self._doubled = not 2 * _modulus(self._a2_minus_b2) > _modulus(self._b2)
        self._gamma_y10_2 = p.gamma * y0.y1 * y0.y1
        m, rem = divmod(p.q, p.k)
        self._m = m
        #: y1(0)**(-q/k) where k divides q and it is finite, else None.
        self._y10_m = None
        if not rem:
            try:
                self._y10_m = self.y10.pow(-m)
            except NumericError:
                pass
        #: For k >= 1, ``(n, g(n), alpha**S(n), alpha**g(n-1), y1(0)**g(n))`` at
        #: step 0 and at the step last asked for (:meth:`_y1`); a zero base is +0.
        self._start = self._rung = (0, 1, 1 + 0j, self.alpha.base or 0j, self.y10.base or 0j)
        #: The general form's gamma sum up to ``_sum_ell`` (see :meth:`_gamma_sum`).
        self._sum_ell, self._sum = 0, 0j

    def at(self, ell: int, special: bool) -> YState:
        """y(ell) by the special or the general closed form; D(ell) as ``d``.

        Every power is finite, but their products may still overflow: those
        raise, y's before D's.
        """
        p = self.p
        y1, growth = self._y1(ell)
        beta_2ell = self.beta.pow(2 * ell)
        scale, alpha_mell = self._scale(ell, growth, y1)
        # beta**(2 ell)-scaled accumulator: polynomial in beta, so beta = 0 is fine.
        bracket = beta_2ell * self.y0.y2
        # At ell = 0 the gamma sum is empty and gamma is not read, so a
        # non-finite gamma leaves the initial state intact.
        if p.gamma != 0 and ell:
            if special:
                bracket = bracket + self._gamma_y10_2 * self._geometric_sum(ell, alpha_mell, beta_2ell)
            else:
                bracket = bracket + p.gamma * self._gamma_sum(ell)
        y = YState(ensure_finite(y1), ensure_finite(scale * bracket))
        if self.d0 is not None:
            self.d = ensure_finite(scale * (beta_2ell * self.d0))
        return y

    def _y1(self, ell: int) -> tuple[complex, int]:
        """``y1(ell) = alpha**S * y1(0)**g``, g = (1+k)**ell and S = (g - 1)/k; and g.

        For k >= 1, step n + 1 of the ladder takes alpha**g(n) =
        (alpha**g(n-1))**(1+k), alpha**S(n) alpha**g(n) and (y1(0)**g(n))**(1+k):
        where 1+k is a power of two, the products of ``Powers.pow``.  A step
        below the ladder's restarts it from 0.
        """
        radix = 1 + self.p.k
        if radix <= 0:  # k < 0: ``Powers`` reuses its products, O(1) per step for k >= -3.
            growth = radix**ell
            return self.alpha.pow((growth - 1) // self.p.k) * self.y10.pow(growth), growth
        n, growth, alpha_s, alpha_g, y10_g = self._rung if self._rung[0] <= ell else self._start
        for n in range(n, ell):
            alpha_g = _radix_pow(alpha_g, radix) if n else alpha_g  # alpha**g(n)
            alpha_s, y10_g, growth = alpha_s * alpha_g, _radix_pow(y10_g, radix), growth * radix
        self._rung = (ell, growth, alpha_s, alpha_g, y10_g)
        # y1(0)**g onto 1, as ``Powers.pow`` forms it, so the signs of zero agree.
        return ensure_finite(alpha_s) * ensure_finite((1 + 0j) * y10_g), growth

    def _scale(self, ell: int, growth: int, y1: complex) -> tuple[complex, complex | None]:
        """``alpha**e_alpha * y1(0)**e_y10``, read off ``y1`` where k divides q.

        With m = q/k, e_alpha = m (growth - 1)/k - m ell and e_y10 =
        m (growth - 1), so the scale is y1**m alpha**(-m ell) y1(0)**(-m).
        Where that product cannot be formed, overflows or underflows to 0,
        the scale is taken from the exponents themselves, which have O(ell)
        bits.  So it is at ell = 0, where both exponents are 0 and the scale
        is exactly 1.  For m > 0, alpha**(-m ell) is the reciprocal of
        alpha**(m ell), as ``Powers.pow`` forms it; that power, which the
        special form's geometric sum reads too, is returned with the scale
        (None where it was not drawn).
        """
        m, y10_m = self._m, self._y10_m
        alpha_mell = None
        if ell and y10_m is not None:
            n = m * ell
            try:
                if n > 0:
                    alpha_mell = self.alpha.pow(n)
                    # A zero alpha**n is a zero or underflowed base: no reciprocal.
                    alpha_neg = 1 / alpha_mell
                else:
                    alpha_neg = self.alpha.pow(-n)
                scale = cpow(y1, m) * alpha_neg * y10_m
            except (NumericError, ZeroDivisionError):
                pass
            else:
                if scale != 0 and cmath.isfinite(scale):
                    return scale, alpha_mell
        k, q = self.p.k, self.p.q
        e_alpha = q * (growth - k * ell - 1) // (k * k)
        e_y10 = q * (growth - 1) // k
        return self.alpha.pow(e_alpha) * self.y10.pow(e_y10), alpha_mell

    def _geometric_sum(self, ell: int, alpha_2ell: complex | None, beta_2ell: complex) -> complex:
        """The special form's sum_{s<ell} beta**(2(ell-1-s)) alpha**(2s), ell >= 1.

        With a2 = alpha**2, b2 = beta**2 the sum is (a2**ell - b2**ell)/(a2 - b2),
        from alpha**(2 ell) as the scale drew it (drawn here if it was not).
        Where a2 is near b2 that quotient cancels, so the sum is built by
        doubling instead (:func:`_doubled_geometric_sum`).
        """
        if self._doubled:
            return _doubled_geometric_sum(self, ell)
        if alpha_2ell is None:
            alpha_2ell = self.alpha.pow(2 * ell)
        return (alpha_2ell - beta_2ell) / self._a2_minus_b2

    def _gamma_sum(self, ell: int) -> complex:
        """The general form's sum_{s<ell} beta**(2(ell-1-s)) t_s, ell >= 1.

        Evaluated by Horner's rule in beta**2, from the orbit's last sum if
        that was for an ell no larger, else from s = 0: along an orbit each
        step adds one term, and any step gives the same bits.
        """
        start, total = (self._sum_ell, self._sum) if self._sum_ell <= ell else (0, 0j)
        p, b2 = self.p, self._b2
        for s in range(start, ell):
            total = b2 * total + _gamma_term(p, self, s)
        self._sum_ell, self._sum = ell, total
        return total


def u_exponent(k: int, q: int, r: int) -> int:
    """The auxiliary exponent u = k*r - (1+k)*q."""
    return k * r - (1 + k) * q


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


def _modulus(z: complex) -> float:
    """``abs(z)``, or inf where that is past the float range and ``abs`` raises."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _radix_pow(z: complex, n: int) -> complex:
    """``z**n`` for n >= 1 over the bits of n from the top: squarings alone for a power of two."""
    result = z
    for bit in bin(n)[3:]:
        result = result * result * z if bit == "1" else result * result
    return result


def _gamma_term(p: YParams, powers: OrbitPowers, s: int) -> complex:
    """t_s = alpha**e_s * y1(0)**f_s, the gamma term of step s before beta's powers."""
    k, q, u = p.k, p.q, u_exponent(p.k, p.q, p.r)
    gs = (1 + k) ** s
    e_s = (u * (gs - 1) + q * s * k) // (k * k)
    f_s = (u * gs + q) // k
    return powers.alpha.pow(e_s) * powers.y10.pow(f_s)


def _doubled_geometric_sum(powers: OrbitPowers, ell: int) -> complex:
    """sum_{s<ell} b2**(ell-1-s) a2**s for ell >= 1, from the bits of ell.

    S(2n) = S(n) (a2**n + b2**n) and S(n+1) = b2 S(n) + a2**n: O(log ell)
    steps, none of which cancels while a2 is near b2.
    """
    alpha, beta, b2 = powers.alpha, powers.beta, powers._b2
    total, n = 1 + 0j, 1
    for bit in bin(ell)[3:]:
        total *= alpha.pow(2 * n) + beta.pow(2 * n)
        n *= 2
        if bit == "1":
            total = b2 * total + alpha.pow(2 * n)
            n += 1
    return total


def _closed(p: YParams, y0: YState, ell: int, powers: OrbitPowers | None, special: bool) -> YState:
    if ell < 0:
        raise ValueError("ell must be non-negative")
    if powers is None:
        powers = OrbitPowers(p, y0)
    # Tuple equality tries identity first, so the very objects an orbit was built from match even if NaN.
    elif (powers.p, powers.y0) != (p, y0):
        raise ValueError("powers were built for another orbit")
    return powers.at(ell, special)


def y_closed(
    p: YParams, y0: YState, ell: int, *, powers: OrbitPowers | None = None
) -> YState:
    """General closed-form solution at time ``ell`` (arbitrary integer q, r).

    ``powers``, the :class:`OrbitPowers` of ``(p, y0)``, shares squarings
    and the gamma sum between the steps of one orbit; without it the call
    builds its own.
    """
    return _closed(p, y0, ell, powers, False)


def y_closed_special(
    p: YParams, y0: YState, ell: int, *, powers: OrbitPowers | None = None
) -> YState:
    """Closed form under q = 2k, r = 2(1+k): the sum becomes geometric.

    The geometric sum stays accurate as (alpha/beta)**2 nears 1, where it
    is built by doubling.  ``powers`` is as for :func:`y_closed`.
    """
    # A negative ell is reported first, by _closed.
    if ell >= 0 and (p.q != 2 * p.k or p.r != 2 * (1 + p.k)):
        raise ConfigError(
            f"special closed form requires q = 2k, r = 2(1+k); got q={p.q}, r={p.r}"
        )
    return _closed(p, y0, ell, powers, True)


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
