"""One-step recursion maps for every system family.

Covers the quadratic family (indistinguishable zeros), its B/C-parameter
generalization, the cubic double-root family and its double-step identity,
the square-root intermediate systems with free exponents q and r (whose
parameters are exactly the y-system's :class:`YParams`), systems conjugated
by an invertible linear change of variables, and the k = 1 coefficient
table together with the common-zero constraint residual.

Sign conventions: every map takes the per-step sign s in {+1, -1}; for the
quadratic family flipping s merely swaps the two (label-free) components,
while for the cubic family the two signs give genuinely different ordered
states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ConfigError
from .numeric import SIGNS, ComplexPair, Sign, cpow, principal_sqrt
from .polybridge import (
    cubic_from_zeros,
    cubic_zeros_branch,
    quad_from_zeros,
    quad_zeros,
)
from .ysystem import YParams, YState, _require_int, y_step


@dataclass(frozen=True)
class _FamilyParams:
    """Parameters (a, b, k) shared by the quadratic and cubic families."""

    a: complex
    b: complex
    k: int

    def __post_init__(self) -> None:
        _require_int("k", self.k)


class QuadraticFamilyParams(_FamilyParams):
    """Parameters (a, b, k) of the quadratic (indistinguishable-zeros) family."""

    def y_params(self) -> YParams:
        """Coefficient-evolution parameters: alpha = 2a, beta = 2b, gamma = a**2 - b**2."""
        return YParams(
            2 * self.a, 2 * self.b, self.a * self.a - self.b * self.b,
            self.k, 2 * self.k, 2 * (1 + self.k),
        )


class CubicFamilyParams(_FamilyParams):
    """Parameters (a, b, k) of the cubic (double-root) family."""

    def y_params(self) -> YParams:
        """Coefficient-evolution parameters: alpha = 3a, beta = 3b, gamma = 3(a**2 - b**2)."""
        return YParams(
            3 * self.a, 3 * self.b, 3 * (self.a * self.a - self.b * self.b),
            self.k, 2 * self.k, 2 * (1 + self.k),
        )


@dataclass(frozen=True)
class GeneralizedParams:
    """Parameters of the generalized B/C system, with derived coefficients.

    Invariants checked at construction: B2 != 0 (divisor in the update of the
    second component) and B1**2 C2 + B2**2 C1 - B1 B2 C3 != 0 (divisor in d).
    The derived coefficients, and the linear-part table of each sign, are
    computed once, there.
    """

    alpha: complex
    beta: complex
    B1: complex
    B2: complex
    C1: complex
    C2: complex
    C3: complex
    k: int
    denom: complex = field(init=False, repr=False, compare=False)
    g1: complex = field(init=False, repr=False, compare=False)
    g2: complex = field(init=False, repr=False, compare=False)
    g3: complex = field(init=False, repr=False, compare=False)
    #: The coefficient-evolution inhomogeneity implied by the B/C assignment.
    gamma: complex = field(init=False, repr=False, compare=False)
    #: Sign -> the 2x2 linear-part coefficient table.
    tables: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_int("k", self.k)
        a, b, B1, B2, C1, C2, C3 = self.alpha, self.beta, self.B1, self.B2, self.C1, self.C2, self.C3
        if B2 == 0:
            raise ConfigError("B2 must be nonzero")
        denom = B1 * B1 * C2 + B2 * B2 * C1 - B1 * B2 * C3
        if denom == 0:
            raise ConfigError("B1**2 C2 + B2**2 C1 - B1 B2 C3 must be nonzero")
        d = 1 / (2 * denom)
        g1, g2, g3 = 2 * B1 * C2 - B2 * C3, 2 * B2 * C1 - B1 * C3, B2 * C3 - 2 * B1 * C2
        # One table serves all k, as the k = -1 rational form's numerator too.  Of the two
        # printed (1,2) entries, algebraically identical, the canonical d B2 (alpha g1 + s beta g3) is used.
        lead = a * (1 - B1 * d * g1)
        tables = {
            s: (
                (d * (a * g1 * B1 + s * b * B2 * g2), d * B2 * (a * g1 + s * b * g3)),
                (lead * (B1 / B2) - B1 * d * s * b * g2, lead - B1 * d * s * b * g3),
            )
            for s in SIGNS
        }
        num = (C3 * C3 - 4 * C1 * C2) * (b * b - a * a)
        self.__dict__.update(denom=denom, g1=g1, g2=g2, g3=g3, gamma=num / (4 * denom), tables=tables)

    def y_params(self) -> YParams:
        return YParams(self.alpha, self.beta, self.gamma, self.k, 2 * self.k, 2 * (1 + self.k))


@dataclass(frozen=True)
class ConjugatedParams(CubicFamilyParams):
    """The cubic family's (a, b, k) seen through the invertible change of variables z = A x.

    The determinant of A, the common-zero line and each sign's linear
    factors are computed once, at construction.
    """

    A11: complex
    A12: complex
    A21: complex
    A22: complex
    det: complex = field(init=False, repr=False, compare=False)
    #: (z1, z2) coefficients (2 A22 - A21, A11 - 2 A12) of the line on which both components vanish.
    line: ComplexPair = field(init=False, repr=False, compare=False)
    #: Sign -> :func:`_conjugated_f_coeffs`.
    factors: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        det = self.A11 * self.A22 - self.A12 * self.A21
        if det == 0:
            raise ConfigError("change of variables has zero determinant")
        line = (2 * self.A22 - self.A21, self.A11 - 2 * self.A12)
        self.__dict__.update(det=det, line=line, factors={s: _conjugated_f_coeffs(self, s) for s in SIGNS})

    def apply(self, x: ComplexPair) -> ComplexPair:
        x1, x2 = x
        return (self.A11 * x1 + self.A12 * x2, self.A21 * x1 + self.A22 * x2)

    def invert(self, z: ComplexPair) -> ComplexPair:
        z1, z2 = z
        return (
            (self.A22 * z1 - self.A12 * z2) / self.det,
            (-self.A21 * z1 + self.A11 * z2) / self.det,
        )


class K1CoeffTable(NamedTuple):
    """Quadratic-form coefficients of a conjugated k = 1 system.

    Row n gives z_n' = a_n1 z1**2 + a_n2 z2**2 + a_n3 z1 z2.
    """

    a11: complex
    a12: complex
    a13: complex
    a21: complex
    a22: complex
    a23: complex


def step_quadratic_family(p: QuadraticFamilyParams, s: Sign, x: ComplexPair) -> ComplexPair:
    """One step of the quadratic family (flipping s swaps the components)."""
    x1, x2 = x
    w = x1 + x2
    base = cpow(-w, p.k)
    diff = p.b * (x1 - x2)
    return (base * (p.a * w - s * diff), base * (p.a * w + s * diff))


def step_cubic_family(p: CubicFamilyParams, s: Sign, x: ComplexPair) -> ComplexPair:
    """One step of the cubic family (ordered: the labels are meaningful)."""
    x1, x2 = x
    w = 2 * x1 + x2
    base = cpow(w, p.k)
    sign_k = -1 if p.k % 2 else 1
    diff = s * p.b * (x1 - x2)
    return (base * (sign_k * p.a * w - diff), base * (sign_k * p.a * w + 2 * diff))


def double_step_cubic(p: CubicFamilyParams, s01: Sign, x: ComplexPair) -> ComplexPair:
    """Two steps of the cubic family at once; only the sign product matters."""
    x1, x2 = x
    w = 2 * x1 + x2
    v = x1 - x2
    sign_k = -1 if p.k % 2 else 1
    prefactor = (
        sign_k
        * cpow(3, p.k + 1)
        * cpow(p.a, p.k)
        * cpow(w, p.k * (p.k + 2))
    )
    aw = p.a * p.a * w
    bv = s01 * p.b * p.b * v
    return (prefactor * (aw + bv), prefactor * (aw - 2 * bv))


def step_generalized(p: GeneralizedParams, s: Sign, z: ComplexPair) -> ComplexPair:
    """One step of the generalized B/C system."""
    z1, z2 = z
    e = p.tables[s]
    base = cpow(p.B1 * z1 + p.B2 * z2, p.k)
    return (
        base * (e[0][0] * z1 + e[0][1] * z2),
        base * (e[1][0] * z1 + e[1][1] * z2),
    )


def step_sqrt_quadratic(p: YParams, s: Sign, x: ComplexPair) -> ComplexPair:
    """One step of the square-root quadratic system (free exponents q, r).

    The coefficients of the zeros take one :func:`~solvmaps.ysystem.y_step`;
    the zeros are read back by :func:`~solvmaps.polybridge.quad_zeros` at -s.
    """
    return quad_zeros(*y_step(p, quad_from_zeros(x)), -s)


def step_sqrt_cubic(p: YParams, s: Sign, x: ComplexPair) -> ComplexPair:
    """One step of the square-root cubic system (free exponents q, r).

    The coefficients (y1, y2) of the double-root cubic take one
    :func:`~solvmaps.ysystem.y_step`, so the radicand carries the full
    dependent coefficient x1 (x1 + 2 x2) (the consistent choice; the source
    display abbreviates it inconsistently).  The inversion is the cubic
    solver's, with the corrected prefactor 1/3; the printed 1/2 variant is
    :func:`~solvmaps.polybridge.cubic_zeros_printed`.
    """
    return cubic_zeros_branch(*y_step(p, cubic_from_zeros(x)), -s)


def _conjugated_f_coeffs(c: ConjugatedParams, s: Sign) -> list[ComplexPair]:
    """(z1, z2) coefficients of the two linear factors f_n of the conjugated map.

    The theta subscripts follow the conjugation algebra (the printed index
    pattern fails the probe-point oracle; the pattern below is the one the
    oracle certifies): f_n = (theta_{k;2,n;n} A22 - theta_{k;1,n;n+1} A21) z1
    + (theta_{k;1,n;n+1} A11 - theta_{k;2,n;n} A12) z2, where
    theta_{k;n1,n2;n} = (-1)**k n1 a + (-1)**n n2 s b.
    """
    sign_k = -1 if c.k % 2 else 1
    a1, a2, b = sign_k * c.a, sign_k * 2 * c.a, c.b
    coeffs = []
    for n in (1, 2):
        t2 = a2 + (-1 if n % 2 else 1) * n * s * b  # theta_{k;2,n;n}
        t1 = a1 + (1 if n % 2 else -1) * n * s * b  # theta_{k;1,n;n+1}
        coeffs.append((t2 * c.A22 - t1 * c.A21, t1 * c.A11 - t2 * c.A12))
    return coeffs


def step_conjugated(c: ConjugatedParams, s: Sign, z: ComplexPair) -> ComplexPair:
    """One step of the cubic family conjugated by the linear change A."""
    z1, z2 = z
    (lambda2, lambda1), ((f11, f12), (f21, f22)) = c.line, c.factors[s]
    f1 = f11 * z1 + f12 * z2
    f2 = f21 * z1 + f22 * z2
    prefactor = cpow(c.det, -(c.k + 1)) * cpow(lambda2 * z1 + lambda1 * z2, c.k)
    return (
        prefactor * (c.A11 * f1 + c.A12 * f2),
        prefactor * (c.A21 * f1 + c.A22 * f2),
    )


def k1_coeff_table(c: ConjugatedParams, s: Sign) -> K1CoeffTable:
    """Quadratic-form coefficients of the conjugated map at k = 1.

    Expands D**-2 (lambda2 z1 + lambda1 z2)(A_n1 f1 + A_n2 f2) into the six
    a_nj; the resulting table matches :func:`step_conjugated` on probe points
    and satisfies the common-zero constraint residual identically.
    """
    if c.k != 1:
        raise ValueError("coefficient table is defined for k = 1 only")
    # The common-zero line of both rows: lambda2 z1 + lambda1 z2 = 0.
    (lambda2, lambda1), ((f11, f12), (f21, f22)) = c.line, c.factors[s]
    # eta_nm: z_m coefficient of A_n1 f1 + A_n2 f2.
    eta11 = c.A11 * f11 + c.A12 * f21
    eta12 = c.A11 * f12 + c.A12 * f22
    eta21 = c.A21 * f11 + c.A22 * f21
    eta22 = c.A21 * f12 + c.A22 * f22
    d2 = 1 / (c.det * c.det)
    return K1CoeffTable(
        a11=d2 * lambda2 * eta11,
        a12=d2 * lambda1 * eta12,
        a13=d2 * (lambda2 * eta12 + lambda1 * eta11),
        a21=d2 * lambda2 * eta21,
        a22=d2 * lambda1 * eta22,
        a23=d2 * (lambda2 * eta22 + lambda1 * eta21),
    )


def conda_residual(t: K1CoeffTable) -> complex:
    """Common-zero constraint residual of a k = 1 coefficient table.

    (a11 a22 - a21 a12)**2 + (a13 a21 - a11 a23)(a13 a22 - a12 a23); zero
    signals that the two quadratic forms share a linear factor.
    """
    return (t.a11 * t.a22 - t.a21 * t.a12) ** 2 + (t.a13 * t.a21 - t.a11 * t.a23) * (
        t.a13 * t.a22 - t.a12 * t.a23
    )


def yz_forward(p: GeneralizedParams, z: ComplexPair) -> YState:
    """Coefficients (y1, y2) generated by the B/C quadratic relations."""
    z1, z2 = z
    return YState(
        p.B1 * z1 + p.B2 * z2,
        p.C1 * z1 * z1 + p.C2 * z2 * z2 + p.C3 * z1 * z2,
    )


def yz_from_root(p: GeneralizedParams, y1: complex, r: complex) -> ComplexPair:
    """The state with B1 z1 + B2 z2 = y1 and g2 z1 + g3 z2 = r.

    ``r`` is a square root of the inversion discriminant
    (C3**2 - 4 C1 C2) y1**2 + 4 denom y2; its two roots give the two
    branches.  Nothing is divided by B2, so a tiny B2 loses no digits.
    """
    d2 = 2 * p.denom
    return ((p.B2 * r - p.g3 * y1) / d2, (p.g2 * y1 - p.B1 * r) / d2)


def yz_invert(p: GeneralizedParams, y: YState, b: Sign) -> ComplexPair:
    """One branch of the inversion of :func:`yz_forward`."""
    disc = (p.C3 * p.C3 - 4 * p.C1 * p.C2) * y.y1 * y.y1 + 4 * p.denom * y.y2
    return yz_from_root(p, y.y1, b * principal_sqrt(disc))
