"""Accuracy of the solvers against a 60-digit reference, and the algebra the
family solvers rest on, checked symbolically.

The family solvers evolve (y1, y2) and (y1, D), D the discriminant of their
inversion, and read the zeros off (y1, +/-sqrt(D)).  That is exact only
because D obeys the y-system with gamma = 0, D' = beta**2 y1**(2k) D, and
because each zero map inverts its forward map; sympy checks both for all
four families.  Where a zero is small beside the other, the maps take it
from y2 instead of the cancelling sum (Vieta).
"""

import cmath
import math
import random
from types import SimpleNamespace

import pytest

pytest.importorskip("mpmath")
sp = pytest.importorskip("sympy")

from reference import family_orbit, y_chain
from solvmaps.polybridge import (
    cubic_from_zeros,
    cubic_zeros_from_root,
    quad_from_zeros,
    quad_zeros_from_root,
)
from solvmaps.solver import (
    solve_cubic_family,
    solve_quadratic_family,
    solve_sqrt_cubic,
    solve_sqrt_quadratic,
    solve_y,
)
from solvmaps.stepmaps import CubicFamilyParams, QuadraticFamilyParams, yz_from_root
from solvmaps.ysystem import YParams, YState, y_closed_special
from solvmaps.verify import draw_complex, draw_pair, pair_residual

FAMILIES = {
    "quad": (QuadraticFamilyParams, solve_quadratic_family),
    "cubic": (CubicFamilyParams, solve_cubic_family),
}


def _reference_entries(family, params, solve, a, b, k, x0, ellmax):
    """The solver's entries up to ``ellmax``, each beside the reference's ((y1, y2), branches)."""
    solution = solve(params(a, b, k), x0, ellmax)
    if not solution.entries:
        return []
    return zip(solution.entries, family_orbit(family, a, b, k, x0, len(solution.entries) - 1))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_zeros_match_the_reference(family):
    """Near a double zero sqrt(y1**2 - c y2) cancels; zeros read off +/-sqrt(D) must not."""
    params, solve = FAMILIES[family]
    rng = random.Random(f"reference:{family}")
    worst = 0.0
    for _ in range(1500):
        a, b, k = draw_complex(rng), draw_complex(rng), rng.choice([-1, 1, 2])
        for entry, (_, branches) in _reference_entries(family, params, solve, a, b, k, draw_pair(rng), 5):
            want = [(complex(x1), complex(x2)) for x1, x2 in branches]
            for got in (entry.plus, entry.minus):
                worst = max(worst, min(pair_residual(got, w) for w in want))
    assert worst <= 5e-10


def _log_uniform(rng: random.Random) -> complex:
    """Modulus 10**u for u uniform in [-8, 8], uniform phase."""
    return 10 ** rng.uniform(-8, 8) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def _relative(got: complex, want: complex) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


def _branch_error(family: str, got, want) -> float:
    """Plain relative error per zero.  The cubic's simple zero x2 is measured
    against |x1| as well: (y1, y2) fix it only to the absolute accuracy of y1,
    so a simple zero far smaller than the double one has no relative digits
    to keep."""
    x1, x2 = (complex(z) for z in want)
    if family == "cubic":
        return max(_relative(got[0], x1), abs(got[1] - x2) / max(abs(x1), abs(x2)))
    return max(_relative(got[0], x1), _relative(got[1], x2))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_zeros_of_widely_different_size_keep_their_digits(family):
    """Zeros up to 16 decades apart: the small zero and y2 keep their relative
    digits, where P y1**2 - D and -y1 +/- sqrt(D) would cancel them away.

    Two steps keep every power the closed form multiplies inside the double
    range; past that a power of y1(0) can underflow on its own (see
    test_solver.py::test_closed_form_y2_survives_an_underflowing_power).
    """
    params, solve = FAMILIES[family]
    rng = random.Random(f"reference-wide:{family}")
    worst = 0.0
    for _ in range(1000):
        a = draw_complex(rng)
        # b = +/-a makes gamma = a**2 - b**2 exactly 0, so the zeros' ratio persists past ell = 0.
        b, k = rng.choice([a, -a, draw_complex(rng)]), rng.choice([-1, 1, 2])
        x0 = (_log_uniform(rng), _log_uniform(rng))
        for entry, ((_, y2), branches) in _reference_entries(family, params, solve, a, b, k, x0, 2):
            worst = max(worst, _relative(entry.y.y2, complex(y2)))
            for got in (entry.plus, entry.minus):
                worst = max(worst, min(_branch_error(family, got, w) for w in branches))
    assert worst <= 1e-12


# --- the general form: y, sqrt-quad and sqrt-cubic ----------------------------

GENERAL_SOLVERS = {"y": solve_y, "sqrt-quad": solve_sqrt_quadratic, "sqrt-cubic": solve_sqrt_cubic}


def _draw_closed(rng: random.Random):
    """The draw space of verify's y-closed suite: free or special q, r, ell <= 5."""
    k = rng.choice([-2, -1, 1, 2])
    q, r = (2 * k, 2 * (1 + k)) if rng.random() < 0.5 else (rng.randint(-3, 4), rng.randint(-3, 4))
    p = YParams(draw_complex(rng, 1.5), draw_complex(rng, 1.5), draw_complex(rng, 1.5), k, q, r)
    return p, (draw_complex(rng, 1.5), draw_complex(rng, 1.5)), 5


def _draw_contracting(rng: random.Random):
    """A 300-step k = -1 orbit: y1 = alpha from step 1 on, and y2 contracts by
    beta**2 alpha**q, of modulus in [0.3, 0.95], to a fixed point."""
    alpha = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-math.pi, math.pi))
    q, r = rng.randint(-3, 4), rng.randint(-3, 4)
    ratio = cmath.rect(rng.uniform(0.3, 0.95), rng.uniform(-math.pi, math.pi))
    p = YParams(alpha, cmath.sqrt(ratio / alpha**q), draw_complex(rng), -1, q, r)
    return p, draw_pair(rng), 300


#: (draw space, draws) -> solver -> (bound, underflowed zeros).  The bound is
#: twice the largest relative error the solvers had before the general form's
#: gamma sum became Horner's rule and the scale was read off y1, measured on
#: these draws.  An exact 0 where the reference is not comes from a power of
#: alpha or y1(0) that underflowed on its own, in a gamma term or, where k
#: does not divide q, in the scale (see test_solver.py::
#: test_closed_form_y2_survives_an_underflowing_power_when_k_does_not_divide_q):
#: it is counted instead, and no more of them may appear than did then.
GENERAL_BOUNDS = {
    (_draw_closed, 500): {"y": (7.7e-14, 1), "sqrt-quad": (1.03e-13, 0), "sqrt-cubic": (8.1e-14, 0)},
    (_draw_contracting, 30): {"y": (3.1e-14, 0), "sqrt-quad": (1.09e-14, 0), "sqrt-cubic": (4.5e-14, 0)},
}


@pytest.mark.parametrize("name", sorted(GENERAL_SOLVERS))
@pytest.mark.parametrize("space", list(GENERAL_BOUNDS), ids=lambda space: space[0].__name__)
def test_general_form_matches_the_reference(name, space):
    """Every delivered (y1, y2) against the 60-digit chain from the solver's own y(0)."""
    draw, draws = space
    solve = GENERAL_SOLVERS[name]
    rng = random.Random(f"general:{draw.__name__}:{name}")
    worst, zeros = 0.0, 0
    for _ in range(draws):
        p, x0, ellmax = draw(rng)
        solution = solve(p, x0, ellmax)
        if not solution.entries:
            continue
        chain = y_chain(p.alpha, p.beta, p.gamma, p.k, p.q, p.r, *solution.entries[0].y, len(solution.entries) - 1)
        for entry, want in zip(solution.entries, chain):
            for got, w in zip(entry.y, map(complex, want)):
                if got == 0 != w:
                    zeros += 1
                else:
                    worst = max(worst, _relative(got, w))
    bound, underflowed = GENERAL_BOUNDS[space][name]
    assert worst <= bound
    assert zeros <= underflowed


@pytest.mark.parametrize("d", [1e-12, 3e-10, 2e-9])
def test_geometric_sum_near_equal_ratio(d):
    """(alpha/beta)**2 just off 1: (a2**ell - b2**ell)/(a2 - b2) would cancel
    (relative y2 errors of 1e-9 to 3e-7 here), the doubled sum does not."""
    p, y0, ell = YParams(1, 1 + d, 0.5, -1, -2, 0), YState(0.9 + 0.1j, 0.3), 1000
    want = complex(y_chain(p.alpha, p.beta, p.gamma, p.k, p.q, p.r, *y0, ell)[-1][1])
    assert _relative(y_closed_special(p, y0, ell).y2, want) <= 1e-13


# --- the algebra, symbolically ----------------------------------------------

a, b, y1, y2, r, W = sp.symbols("a b y1 y2 r W")  # W stands for y1**k
x1, x2, z1, z2, alpha, beta = sp.symbols("x1 x2 z1 z2 alpha beta")
B1, B2, C1, C2, C3 = sp.symbols("B1 B2 C1 C2 C3")
DENOM = B1**2 * C2 + B2**2 * C1 - B1 * B2 * C3
G2 = 2 * B2 * C1 - B1 * C3
G3 = B2 * C3 - 2 * B1 * C2

#: family -> (alpha, beta, gamma, P, c) with D = P y1**2 - c y2.  Conjugation
#: changes the state, not the coefficients: the conjugated family has the
#: cubic family's y-system and D, so only its zero map is checked apart.
Y_SYSTEMS = {
    "quadratic": (2 * a, 2 * b, a**2 - b**2, 1, 4),
    "cubic": (3 * a, 3 * b, 3 * (a**2 - b**2), 1, 3),
    "generalized": (
        alpha, beta, (C3**2 - 4 * C1 * C2) * (beta**2 - alpha**2) / (4 * DENOM),
        C3**2 - 4 * C1 * C2, -4 * DENOM,
    ),
}


def _vanishes(expr) -> bool:
    return sp.simplify(sp.together(sp.expand(expr))) == 0


@pytest.mark.parametrize("family", sorted(Y_SYSTEMS))
def test_discriminant_obeys_the_y_system_without_gamma(family):
    al, be, gamma, P, c = Y_SYSTEMS[family]
    # One y-step under q = 2k, r = 2(1+k), with y1**k written W.
    y1n = al * y1 * W
    y2n = be**2 * y2 * W**2 + gamma * y1**2 * W**2
    assert _vanishes((P * y1n**2 - c * y2n) - be**2 * W**2 * (P * y1**2 - c * y2))


def test_generalized_discriminant_identity():
    """B2**2 (C3**2 - 4 C1 C2) = g3**2 - 4 denom C2: the B/C inversion
    quadratic's discriminant, scaled by B2**4, is B2**2 times the D evolved."""
    assert _vanishes(B2**2 * (C3**2 - 4 * C1 * C2) - (G3**2 - 4 * DENOM * C2))


def _quad_map(y1, r):
    """The linear map :func:`quad_zeros_from_root` takes its larger zero from."""
    return ((-y1 + r) / 2, (-y1 - r) / 2)


def _cubic_map(y1, r):
    """The linear map :func:`cubic_zeros_from_root` takes a large x1 from."""
    x1 = (-y1 + r) / 3
    return (x1, -y1 - 2 * x1)


def _check_zero_map(zeros, forward, P, c, state, y1_0, r_0):
    """zeros(y1, r) has coefficients (y1, (P y1**2 - r**2) / c), and the exact
    initial forms (y1_0, r_0) of ``state`` map back to ``state``."""
    got = forward(zeros(y1, r))
    assert _vanishes(got[0] - y1)
    assert _vanishes(got[1] - (P * y1**2 - r**2) / c)
    for got_z, want_z in zip(zeros(y1_0, r_0), state):
        assert _vanishes(got_z - want_z)


def test_quadratic_zero_map():
    _check_zero_map(_quad_map, quad_from_zeros, 1, 4, (x1, x2), -(x1 + x2), x1 - x2)


def test_cubic_zero_map():
    _check_zero_map(_cubic_map, cubic_from_zeros, 1, 3, (x1, x2), -(2 * x1 + x2), x1 - x2)


def test_vieta_forms_of_the_small_zero():
    """The product of the quadratic's zeros is y2, and the cubic's x1 is
    y2 / (-y1 - r): the forms the maps use where the linear one cancels."""
    first, second = _quad_map(y1, r)
    assert _vanishes(first * second - (y1**2 - r**2) / 4)
    assert _vanishes(_cubic_map(y1, r)[0] - (y1**2 - r**2) / 3 / (-y1 - r))


@pytest.mark.parametrize("family", ["quad", "cubic"])
def test_zero_maps_follow_the_linear_map(family):
    """Both sides of the larger-sum test agree with the linear map to rounding."""
    zeros, linear, c = (quad_zeros_from_root, _quad_map, 4) if family == "quad" else (
        cubic_zeros_from_root, _cubic_map, 3)
    rng = random.Random(f"zero-map:{family}")
    for _ in range(200):
        y1_, r_ = draw_complex(rng), draw_complex(rng)
        got = zeros(y1_, r_, (y1_ * y1_ - r_ * r_) / c)
        assert pair_residual(got, linear(y1_, r_)) <= 1e-13


def test_conjugated_zero_map():
    A = sp.Matrix(2, 2, sp.symbols("A11 A12 A21 A22"))
    w1, w2 = A.inv() * sp.Matrix([z1, z2])

    def zeros(y1, r):
        return tuple(A * sp.Matrix(_cubic_map(y1, r)))

    def forward(z):
        return cubic_from_zeros(tuple(A.inv() * sp.Matrix(z)))

    _check_zero_map(zeros, forward, 1, 3, (z1, z2), -(2 * w1 + w2), w1 - w2)


def test_generalized_zero_map():
    p = SimpleNamespace(B1=B1, B2=B2, denom=DENOM, g2=G2, g3=G3)
    _, _, _, P, c = Y_SYSTEMS["generalized"]

    def forward(z):
        return (B1 * z[0] + B2 * z[1], C1 * z[0] ** 2 + C2 * z[1] ** 2 + C3 * z[0] * z[1])

    y1_0, r_0 = B1 * z1 + B2 * z2, G2 * z1 + G3 * z2
    _check_zero_map(lambda y1, r: yz_from_root(p, y1, r), forward, P, c, (z1, z2), y1_0, r_0)
