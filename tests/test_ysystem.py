"""The triangular coefficient system: step, closed forms, exponent algebra."""

import cmath
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvmaps import solver, ysystem
from solvmaps.errors import ConfigError, NumericError, NumericOverflowError, ZeroToNegativePowerError
from solvmaps.numeric import Powers, ensure_finite
from solvmaps.solver import (
    solve_conjugated,
    solve_cubic_family,
    solve_generalized,
    solve_quadratic_family,
    solve_sqrt_cubic,
    solve_sqrt_quadratic,
    solve_y,
)
from solvmaps.stepmaps import ConjugatedParams, CubicFamilyParams, GeneralizedParams, QuadraticFamilyParams
from solvmaps.verify import draw_complex, residual
from solvmaps.ysystem import (
    OrbitPowers,
    YParams,
    YState,
    u_exponent,
    y_closed,
    y_closed_special,
    y_iterate,
    y_step,
)

NUMERIC_ERRORS = (ZeroToNegativePowerError, NumericOverflowError)


def state_residual(got: YState, want: YState) -> float:
    return max(residual(got.y1, want.y1), residual(got.y2, want.y2))


class TestUExponent:
    @pytest.mark.parametrize(
        "k, q, r, want",
        [(1, 2, 4, 0), (2, 1, 1, -1), (-1, 3, 5, -5)],
    )
    def test_values(self, k, q, r, want):
        assert u_exponent(k, q, r) == want

    def test_special_assignment_gives_zero(self):
        for k in (-3, -2, -1, 1, 2, 3):
            assert u_exponent(k, 2 * k, 2 * (1 + k)) == 0


class TestParams:
    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            YParams(1, 1, 0, 0, 2, 4)

    @pytest.mark.parametrize("bad", [1.5, True])
    def test_non_integer_exponents_rejected(self, bad):
        with pytest.raises(ConfigError):
            YParams(1, 1, 0, bad, 2, 4)


class TestStep:
    def test_worked_example(self):
        p = YParams(2, 1, 0, 1, 2, 4)
        assert y_step(p, YState(1, 1)) == YState(2, 1)

    def test_second_worked_example(self):
        p = YParams(1, 1, 0, 1, 2, 4)
        assert y_step(p, YState(2, 1)) == YState(4, 4)

    def test_y2_zero_invariant_plane(self):
        # gamma = 0 makes y2 = 0 an invariant plane.
        p = YParams(1.5 + 0.5j, 2, 0, 2, 1, 1)
        got = y_step(p, YState(3 + 1j, 0))
        assert got.y2 == 0
        assert got.y1 == (1.5 + 0.5j) * (3 + 1j) ** 3

    def test_zero_coefficient_skips_power(self):
        # gamma = 0 must not evaluate y1**r even when y1 = 0 and r < 0.
        p = YParams(1, 0, 0, 1, 0, -2)
        assert y_step(p, YState(0, 5)) == YState(0, 0)


class TestIterate:
    def test_error_names_the_first_state_not_delivered(self):
        # y1 = 1e200 after one step; squaring it overflows in the second.
        p = YParams(1, 1, 0, 1, 2, 4)
        with pytest.raises(NumericOverflowError, match=r"\(at step 2\)") as exc:
            y_iterate(p, YState(1e100, 0), 5)
        assert exc.value.step == 2


class TestClosedForm:
    def test_ell_zero_identity(self):
        p = YParams(2 + 1j, 3, 4 - 1j, 2, 3, -1)
        y0 = YState(0.5 + 0.5j, -1 + 2j)
        assert y_closed(p, y0, 0) == y0

    def test_scale_read_off_y1_for_negative_q_over_k(self):
        # q/k = -1: the scale is y1**-1 * alpha**ell * y1(0), alpha**ell a power, not a reciprocal.
        p = YParams(0.7 + 0.3j, 1.1 - 0.2j, 0.4 + 0.9j, 1, -1, 2)
        y0 = YState(0.8 - 0.6j, 0.3 + 0.5j)
        assert repr(y_closed(p, y0, 2)) == (
            "YState(y1=(0.09271360000000017-0.4318751999999999j), "
            "y2=(1.6498255724137938+1.437849268965518j))"
        )

    @pytest.mark.parametrize("closed", [y_closed, y_closed_special])
    def test_ell_zero_identity_when_k_divides_q(self, closed):
        # The scale is read off y1 only from ell = 1 on: y1(0)**2 * y1(0)**-2 is not exactly 1.
        p = YParams(2 + 1j, 3, 4 - 1j, 1, 2, 4)
        for y1 in (0.1, 0.3 + 0.7j, -1.7 + 0.2j):
            y0 = YState(y1, -1 + 2j)
            assert closed(p, y0, 0) == y0

    def test_scale_of_an_underflowed_y1_comes_from_the_exponents(self):
        # y1(1) = y1(0)**2 underflows to 0, so y1 * alpha**-1 * y1(0)**-1 would be 0;
        # y2(1) = (beta**2 y2(0) + gamma) * y1(0) = 2e-200.
        p, y0 = YParams(1, 1, 1, 1, 1, 1), YState(1e-200, 1)
        assert y_closed(p, y0, 1) == y_iterate(p, y0, 1) == YState(0, 2e-200)

    def test_two_step_worked_example(self):
        p = YParams(1, 1, 0, 1, 2, 4)
        closed = y_closed(p, YState(2, 1), 2)
        assert state_residual(closed, YState(16, 64)) <= 1e-12

    def test_ell_one_equals_step(self):
        rng = random.Random("ysystem:ell1")
        for _ in range(20):
            p = YParams(
                draw_complex(rng), draw_complex(rng), draw_complex(rng),
                rng.choice([-2, -1, 1, 2]), rng.randint(-3, 4), rng.randint(-3, 4),
            )
            y0 = YState(draw_complex(rng), draw_complex(rng))
            try:
                closed = y_closed(p, y0, 1)
                stepped = y_step(p, y0)
            except NUMERIC_ERRORS:
                continue
            assert state_residual(closed, stepped) <= 1e-9

    def test_closed_equals_iteration(self):
        rng = random.Random("ysystem:closed")
        checked = 0
        for _ in range(100):
            k = rng.choice([-2, -1, 1, 2])
            p = YParams(
                draw_complex(rng, 1.5), draw_complex(rng, 1.5), draw_complex(rng, 1.5),
                k, rng.randint(-3, 4), rng.randint(-3, 4),
            )
            y0 = YState(draw_complex(rng, 1.5), draw_complex(rng, 1.5))
            ell = rng.randint(0, 6)
            try:
                closed = y_closed(p, y0, ell)
                iterated = y_iterate(p, y0, ell)
            except NUMERIC_ERRORS:
                continue
            assert state_residual(closed, iterated) <= 1e-9
            checked += 1
        assert checked >= 50

    def test_semigroup_property(self):
        rng = random.Random("ysystem:semigroup")
        checked = 0
        for _ in range(50):
            p = YParams(
                draw_complex(rng), draw_complex(rng), draw_complex(rng),
                rng.choice([-2, -1, 1, 2]), rng.randint(-3, 4), rng.randint(-3, 4),
            )
            y0 = YState(draw_complex(rng), draw_complex(rng))
            a, b = rng.randint(0, 3), rng.randint(0, 3)
            try:
                whole = y_closed(p, y0, a + b)
                mid = y_closed(p, y0, a)
                chained = y_closed(p, mid, b)
            except NUMERIC_ERRORS:
                continue
            assert state_residual(whole, chained) <= 1e-9
            checked += 1
        assert checked >= 25

    def test_small_beta_long_orbit(self):
        # beta**(-2 ell) overflows at ell = 60, and the state does not depend on it.
        p = YParams(1, 2e-3, 0.25, 1, 2, 4)
        y0 = YState(1, 0)
        closed = y_closed(p, y0, 60)
        assert cmath.isfinite(closed.y1) and cmath.isfinite(closed.y2)
        assert state_residual(closed, y_iterate(p, y0, 60)) <= 1e-12

    def test_negative_ell_rejected(self):
        p = YParams(1, 1, 0, 1, 2, 4)
        with pytest.raises(ValueError):
            y_closed(p, YState(1, 1), -1)


class TestSpecialClosedForm:
    def test_qr_mismatch_raises(self):
        p = YParams(1, 1, 0, 1, 2, 5)
        for ell in (0, 1):
            with pytest.raises(ConfigError):
                y_closed_special(p, YState(1, 1), ell)

    def test_worked_example(self):
        p = YParams(3, 3, 0, 1, 2, 4)
        closed = y_closed_special(p, YState(-2, 1), 1)
        assert state_residual(closed, YState(12, 36)) <= 1e-12

    def test_agrees_with_general(self):
        rng = random.Random("ysystem:special")
        checked = 0
        for _ in range(50):
            k = rng.choice([-2, -1, 1, 2])
            p = YParams(
                draw_complex(rng), draw_complex(rng), draw_complex(rng),
                k, 2 * k, 2 * (1 + k),
            )
            y0 = YState(draw_complex(rng), draw_complex(rng))
            ell = rng.randint(0, 5)
            try:
                special = y_closed_special(p, y0, ell)
                general = y_closed(p, y0, ell)
            except NUMERIC_ERRORS:
                continue
            assert state_residual(special, general) <= 1e-9
            checked += 1
        assert checked >= 25

    def test_equal_ratio_limit(self):
        # alpha = beta: the geometric sum takes its limit ell * beta**(2(ell-1)).
        alpha = 1.5 - 0.5j
        gamma = 0.25 + 1j
        p = YParams(alpha, alpha, gamma, 1, 2, 4)
        y0 = YState(0.7 + 0.2j, -0.3 + 0.9j)
        for ell in range(5):
            assert state_residual(y_closed_special(p, y0, ell), y_iterate(p, y0, ell)) <= 1e-12

    def test_gamma_zero_draws_no_geometric_sum(self):
        # alpha**(2 ell) = 1e400 overflows at ell = 1, but with gamma = 0 the geometric sum is not needed.
        p, y0 = YParams(1e200, 1, 0, 1, 2, 4), YState(1e-100, 1)
        want = YState(1, 1e-200)
        assert y_iterate(p, y0, 1) == y_closed(p, y0, 1) == y_closed_special(p, y0, 1) == want

    def test_beta_zero_supported(self):
        # beta = 0: the bracket is a polynomial in beta, so the state is well defined.
        p = YParams(2, 0, 1, 1, 2, 4)
        y0 = YState(1 + 1j, 2 - 1j)
        for ell in range(4):
            closed = y_closed_special(p, y0, ell)
            iterated = y_iterate(p, y0, ell)
            assert state_residual(closed, iterated) <= 1e-12


class _ExponentLog:
    """Stands in for a ``Powers``: records each exponent asked for, returns 1."""

    def __init__(self):
        self.asked = []

    def pow(self, n):
        self.asked.append(n)
        return 1 + 0j


class TestExponentIntegrality:
    def test_divisibility_identities(self):
        # The exponents each floor division hands to alpha and y1(0), times its divisor,
        # give back the numerator: every quotient the closed forms raise to is exact.
        for k in range(-6, 7):
            if k == 0:
                continue
            for q in range(-4, 5):
                for r in range(-4, 5):
                    u = u_exponent(k, q, r)
                    powers = OrbitPowers(YParams(2, 1, 1, k, q, r), YState(3, 1))
                    for n in range(0, 13):
                        g = (1 + k) ** n
                        powers.alpha, powers.y10 = _ExponentLog(), _ExponentLog()
                        ysystem._gamma_term(powers.p, powers, n)
                        if k < 0:
                            assert powers._y1(n)[1] == g
                        if q % k:  # q/k not an integer: the scale comes from its exponents.
                            powers._scale(n, g, 1 + 0j)
                        alpha, y10 = powers.alpha.asked, powers.y10.asked
                        assert alpha.pop(0) * k * k == u * (g - 1) + q * n * k
                        assert y10.pop(0) * k == u * g + q
                        if k < 0:
                            assert alpha.pop(0) * k == g - 1
                            assert y10.pop(0) == g
                        if q % k:
                            assert alpha.pop(0) * k * k == q * (g - k * n - 1)
                            assert y10.pop(0) * k == q * (g - 1)
                        assert alpha == y10 == []


#: k from -3..3 without 0.
KS = [-3, -2, -1, 1, 2, 3]


def _bits(z: complex) -> tuple[str, str]:
    return (z.real.hex(), z.imag.hex())


def _closed_bits(closed, p, y0, ell, powers):
    """Exact bits of a closed-form evaluation, or the error it raised."""
    try:
        form = closed(p, y0, ell, powers=powers)
    except NumericError as exc:
        return type(exc), str(exc)
    return tuple(_bits(z) for z in form)


def _pass_bits(p, y0, d0, ell, powers):
    """Bits of y(ell) by the special form and of D(ell) from D(0) = ``d0``, or the first error.

    Without ``powers`` each is a single-point call: D is ``y_closed``'s y2 at
    gamma = 0.  With them, both come from one pass of the orbit.
    """
    try:
        if powers is None:
            y = y_closed_special(p, y0, ell)
            d = y_closed(replace(p, gamma=0), YState(y0.y1, d0), ell).y2
        else:
            y = y_closed_special(p, y0, ell, powers=powers)
            d = powers.d
    except NumericError as exc:
        return type(exc), str(exc)
    return tuple(_bits(z) for z in (*y, d))


def _base(rng: random.Random) -> complex:
    """A drawn base, half the time of modulus 1 so that long orbits stay finite."""
    return draw_complex(rng) if rng.random() < 0.5 else cmath.rect(1, rng.uniform(-cmath.pi, cmath.pi))


def _draw_solve(rng: random.Random, system: str):
    """``(solve, params, x0)`` for one draw of ``system``.

    b is +/-a, or nearly, 40 % of the time: a family's gamma is then 0, or
    its alpha**2 is near beta**2, where the geometric sum is built by doubling.
    """
    k = rng.choice(KS)
    a, b = _base(rng), _base(rng)
    if rng.random() < 0.4:
        b = a * rng.choice([1, -1, 1 + 1e-9j, -1 - 1e-12])
    x0 = (_base(rng), _base(rng))
    if system == "quad-family":
        return solve_quadratic_family, QuadraticFamilyParams(a, b, k), x0
    if system == "cubic-family":
        return solve_cubic_family, CubicFamilyParams(a, b, k), x0
    if system == "generalized":
        return solve_generalized, GeneralizedParams(a, b, *(_base(rng) for _ in range(5)), k), x0
    if system == "conjugated":
        A = (1 + 0.3 * _base(rng), 0.3 * _base(rng), 0.3 * _base(rng), 1 + 0.3 * _base(rng))
        return solve_conjugated, ConjugatedParams(a, b, k, *A), x0
    solve = {"y": solve_y, "sqrt-quad": solve_sqrt_quadratic, "sqrt-cubic": solve_sqrt_cubic}[system]
    gamma = rng.choice([0, _base(rng)])
    return solve, YParams(a, b, gamma, k, rng.randint(-3, 5), rng.randint(-3, 5)), x0


def _single_point(closed):
    """``closed`` as a solver step calls it, answered without the orbit.

    y is a single-point call, a fresh orbit asked for one step; on a family
    orbit D is then ``y_closed``'s y2 at gamma = 0, from y2(0) = D(0).
    """

    def at(p, y0, ell, *, powers):
        y = closed(p, y0, ell)
        if powers.d0 is not None:
            powers.d = y_closed(replace(p, gamma=0), YState(y0.y1, powers.d0), ell).y2
        return y

    return at


def _solution_bits(solution) -> tuple:
    """Bits of every delivered entry, and the type, reason and step of the error that ended it."""
    entries = [tuple(_bits(z) for z in (*e.plus, *e.minus, *e.y)) for e in solution.entries]
    error = solution.error
    return entries, error and (type(error), error.reason), solution.overflow_at


class TestOrbitPowers:
    @pytest.mark.parametrize("special", [False, True])
    def test_shared_powers_are_bit_identical(self, special):
        rng = random.Random(f"ysystem:orbit-powers:{special}")
        closed = y_closed_special if special else y_closed
        for _ in range(30):
            k = rng.choice(KS)
            q, r = (2 * k, 2 * (1 + k)) if special else (rng.randint(-3, 4), rng.randint(-3, 5))
            p = YParams(draw_complex(rng), draw_complex(rng), draw_complex(rng), k, q, r)
            y0 = YState(draw_complex(rng), rng.choice([0j, draw_complex(rng)]))
            powers = OrbitPowers(p, y0)
            # Along the orbit, then back to earlier steps, where the kept sums do not apply.
            for ell in [*range(12), 5, 0, 11, 3]:
                shared = _closed_bits(closed, p, y0, ell, powers)
                assert shared == _closed_bits(closed, p, y0, ell, None)

    def test_orbits_with_the_same_bases_share_powers(self):
        """D's orbit (the family solvers' discriminant) is formed in y's pass, bit for bit."""
        rng = random.Random("ysystem:orbit-powers:discriminant")
        for _ in range(40):
            k = rng.choice(KS)
            alpha = _base(rng)
            beta = alpha * (1 + 1e-9j) if rng.random() < 0.3 else _base(rng)
            p = YParams(alpha, beta, rng.choice([0j, _base(rng)]), k, 2 * k, 2 * (1 + k))
            y0, d0 = YState(_base(rng), _base(rng)), _base(rng)
            powers = OrbitPowers(p, y0, d0=d0)
            for ell in range(16):
                assert _pass_bits(p, y0, d0, ell, powers) == _pass_bits(p, y0, d0, ell, None)

    @pytest.mark.parametrize("system", ["y", "sqrt-quad", "sqrt-cubic", "quad-family", "cubic-family", "generalized", "conjugated"])
    def test_every_entry_equals_the_single_point_closed_forms(self, monkeypatch, system):
        """Each solver's entries, and where it truncates its error, are those of single-point calls."""
        rng = random.Random(f"ysystem:single-point:{system}")
        seen = set()
        for _ in range(40):
            solve, params, x0 = _draw_solve(rng, system)
            along = _solution_bits(solve(params, x0, 24))
            with monkeypatch.context() as patch:
                patch.setattr(solver, "y_closed", _single_point(y_closed))
                patch.setattr(solver, "y_closed_special", _single_point(y_closed_special))
                single = _solution_bits(solve(params, x0, 24))
            assert along == single
            yp = params if isinstance(params, YParams) else params.y_params()
            a2, b2 = yp.alpha * yp.alpha, yp.beta * yp.beta
            seen |= {
                name for name, hit in [
                    ("k does not divide q", yp.q % yp.k != 0),
                    ("gamma = 0", yp.gamma == 0),
                    ("alpha**2 near beta**2", 0 < abs(a2 - b2) <= 1e-6 * abs(b2)),
                    ("truncated", along[2] is not None),
                    ("24 steps", along[2] is None),
                ] if hit
            }
        special = system not in ("y", "sqrt-quad", "sqrt-cubic")
        want = {"gamma = 0", "alpha**2 near beta**2", "truncated", "24 steps"}
        assert seen >= want | (set() if special else {"k does not divide q"})

    def test_powers_of_another_orbit_are_rejected(self):
        p = YParams(1, 1, 1, 1, 2, 4)
        y0 = YState(1, 0)
        powers = OrbitPowers(p, y0)
        with pytest.raises(ValueError):
            y_closed(p, YState(2, 0), 3, powers=powers)
        with pytest.raises(ValueError):
            y_closed_special(YParams(2, 1, 1, 1, 2, 4), y0, 3, powers=powers)
        # The orbit holds gamma * y1(0)**2 and y2(0) too.
        with pytest.raises(ValueError):
            y_closed_special(YParams(1, 1, 2, 1, 2, 4), y0, 3, powers=powers)
        with pytest.raises(ValueError):
            y_closed(p, YState(1, 1), 3, powers=powers)


#: Bases whose powers round: of modulus 1 only to rounding, or near 1, and a
#: few exact ones with signed zeros, where a product's sign of zero shows.
ladder_bases = st.one_of(
    st.builds(cmath.rect, st.just(1.0) | st.floats(0.9, 1.1), st.floats(-cmath.pi, cmath.pi)),
    st.sampled_from([0j, complex(-0.0, -0.0), complex(-0.0, 1.0), complex(1.0, -0.0)]),
)


def _repr_or_error(form):
    """``repr`` of ``form()``, so the sign of zero counts, or the type of error it raised."""
    try:
        return repr(form())
    except NumericError as exc:
        return type(exc)


class TestRadixLadder:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(alpha=ladder_bases, y10=ladder_bases, k=st.sampled_from([1, 3]), ellmax=st.integers(0, 64))
    def test_power_of_two_radix_forms_the_binary_ladders_products(self, alpha, y10, k, ellmax):
        """For 1+k = 2 or 4, y1 off the radix ladder is alpha**S * y1(0)**g from ``Powers``, bit for bit."""
        # beta = gamma = q = 0: y = (y1, 0), so a raised error is y1's.
        p, y0 = YParams(alpha, 0, 0, k, 0, 0), YState(y10, 0j)
        powers, alpha_powers, y10_powers = OrbitPowers(p, y0), Powers(alpha), Powers(y10)
        for ell in range(ellmax + 1):
            g = (1 + k) ** ell
            want = _repr_or_error(lambda: ensure_finite(alpha_powers.pow((g - 1) // k) * y10_powers.pow(g)))
            assert _repr_or_error(lambda: y_closed(p, y0, ell, powers=powers).y1) == want

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        alpha=ladder_bases, beta=ladder_bases, y10=ladder_bases, special=st.booleans(),
        q=st.integers(-3, 4), r=st.integers(-3, 5), shuffled=st.permutations(range(24)),
    )
    def test_k2_steps_in_any_order_equal_fresh_orbits(self, alpha, beta, y10, special, q, r, shuffled):
        """Ascending, descending, shuffled and repeated steps of one orbit are single-point closed forms."""
        closed, (q, r) = (y_closed_special, (4, 6)) if special else (y_closed, (q, r))
        p, y0 = YParams(alpha, beta, 0.3 + 0.4j, 2, q, r), YState(y10, 0.2 - 0.7j)
        fresh = [_closed_bits(closed, p, y0, ell, None) for ell in range(24)]
        for order in (range(24), range(23, -1, -1), shuffled, [5, 5, 9, 9, 9, 0, 0, 23, 23, 1]):
            powers = OrbitPowers(p, y0)
            for ell in order:
                assert _closed_bits(closed, p, y0, ell, powers) == fresh[ell]
