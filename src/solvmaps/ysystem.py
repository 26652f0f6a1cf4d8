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
approximated.

Every power of alpha, beta and y1(0) is drawn from an :class:`OrbitPowers`,
one squaring ladder per base.  A caller that evaluates many steps of one
orbit builds it once and passes it to each call, so the squarings are shared
across the orbit and the general form's accumulator terms, which do not
depend on ell, are computed once.  The closed form is still evaluated
directly at every step, and every result is bit-identical to evaluating each
power on its own with :func:`~solvmaps.numeric.cpow`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, NonIntegerExponentError, NumericError, QRMismatchError
from .numeric import Powers, approx_eq, cpow


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

    @property
    def u(self) -> int:
        return u_exponent(self.k, self.q, self.r)


@dataclass(frozen=True)
class YState:
    y1: complex
    y2: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "y1", complex(self.y1))
        object.__setattr__(self, "y2", complex(self.y2))


class OrbitPowers:
    """Squaring ladders of alpha, beta and y1(0) for one orbit of one system.

    Pass the same instance to every closed-form call of the orbit it was
    built for, with the same ``p`` and ``y0`` objects; drop it when the
    orbit is done.
    """

    __slots__ = ("params", "y0", "alpha", "beta", "y10")

    def __init__(self, p: YParams, y0: YState):
        self.params = p
        self.y0 = y0
        self.alpha = Powers(p.alpha)
        self.beta = Powers(p.beta)
        self.y10 = Powers(y0.y1)


def _orbit_powers(p: YParams, y0: YState, powers: OrbitPowers | None) -> OrbitPowers:
    if powers is None:
        return OrbitPowers(p, y0)
    if powers.params is not p or powers.y0 is not y0:
        raise ValueError("powers were built for a different orbit")
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
    never evaluates y1**r.
    """
    y1n = p.alpha * cpow(s.y1, 1 + p.k)
    y2n = 0j
    if p.beta != 0:
        y2n += p.beta * p.beta * s.y2 * cpow(s.y1, p.q)
    if p.gamma != 0:
        y2n += p.gamma * cpow(s.y1, p.r)
    return YState(y1n, y2n)


def _closed(
    p: YParams, y0: YState, ell: int, powers: OrbitPowers | None, add_gamma
) -> YState:
    """The closed form at time ``ell``, with the gamma terms added by ``add_gamma``."""
    if ell < 0:
        raise ValueError("ell must be non-negative")
    powers = _orbit_powers(p, y0, powers)
    alpha, beta, y10 = powers.alpha, powers.beta, powers.y10
    k, q = p.k, p.q
    growth = (1 + k) ** ell
    y1 = alpha.pow(_exact_div(growth - 1, k)) * y10.pow(growth)

    e_alpha = _exact_div(q * (growth - k * ell - 1), k * k)
    e_y10 = _exact_div(q * (growth - 1), k)
    # beta**(2 ell)-scaled accumulator: polynomial in beta, so beta = 0 is fine.
    bracket = add_gamma(p, powers, y0, ell, beta.pow(2 * ell) * y0.y2)
    return YState(y1, alpha.pow(e_alpha) * y10.pow(e_y10) * bracket)


def _add_gamma_terms(
    p: YParams, powers: OrbitPowers, y0: YState, ell: int, bracket: complex
) -> complex:
    """The general form's gamma terms, one for each s < ell."""
    if p.gamma != 0:
        alpha, beta, y10 = powers.alpha, powers.beta, powers.y10
        k, q, u = p.k, p.q, p.u
        for s in range(ell):
            gs = (1 + k) ** s
            e_s = _exact_div(u * (gs - 1) + q * s * k, k * k)
            f_s = _exact_div(u * gs + q, k)
            bracket += (
                p.gamma
                * beta.pow(2 * (ell - 1 - s))
                * alpha.pow(e_s)
                * y10.pow(f_s)
            )
    return bracket


def _add_geometric_sum(
    p: YParams, powers: OrbitPowers, y0: YState, ell: int, bracket: complex
) -> complex:
    """The special form's gamma term: sum_{s<ell} beta**(2(ell-1-s)) alpha**(2s).

    The sum is evaluated even when gamma = 0, so an overflowing
    alpha**(2 ell) still fails the step.
    """
    alpha, beta = powers.alpha, powers.beta
    a2 = p.alpha * p.alpha
    b2 = p.beta * p.beta
    if ell == 0:
        gsum = 0j
    elif approx_eq(a2, b2):
        gsum = ell * beta.pow(2 * (ell - 1))
    else:
        gsum = (alpha.pow(2 * ell) - beta.pow(2 * ell)) / (a2 - b2)
    if p.gamma != 0:
        bracket += p.gamma * y0.y1 * y0.y1 * gsum
    return bracket


def y_closed(
    p: YParams, y0: YState, ell: int, *, powers: OrbitPowers | None = None
) -> YState:
    """General closed-form solution at time ``ell`` (arbitrary integer q, r).

    ``powers`` shares squarings and accumulator terms between the steps of
    one orbit; without it the call builds its own.
    """
    return _closed(p, y0, ell, powers, _add_gamma_terms)


def y_closed_special(
    p: YParams, y0: YState, ell: int, *, powers: OrbitPowers | None = None
) -> YState:
    """Closed form under q = 2k, r = 2(1+k): the sum becomes geometric.

    When (alpha/beta)**2 = 1 to the default tolerance the degenerate
    geometric ratio is resolved by its analytic limit ell.  ``powers`` is as
    for :func:`y_closed`.
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
