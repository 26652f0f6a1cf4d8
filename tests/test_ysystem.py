"""The triangular coefficient system: step, closed forms, exponent algebra."""

import random

import pytest

from solvmaps.errors import NumericError, NumericOverflowError, QRMismatchError, ZeroToNegativePowerError
from solvmaps.numeric import is_finite
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
        with pytest.raises(TypeError):
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
        assert is_finite(closed.y1) and is_finite(closed.y2)
        assert state_residual(closed, y_iterate(p, y0, 60)) <= 1e-12

    def test_negative_ell_rejected(self):
        p = YParams(1, 1, 0, 1, 2, 4)
        with pytest.raises(ValueError):
            y_closed(p, YState(1, 1), -1)


class TestSpecialClosedForm:
    def test_qr_mismatch_raises(self):
        p = YParams(1, 1, 0, 1, 2, 5)
        with pytest.raises(QRMismatchError):
            y_closed_special(p, YState(1, 1), 1)

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

    def test_beta_zero_supported(self):
        # beta = 0: the bracket is a polynomial in beta, so the state is well defined.
        p = YParams(2, 0, 1, 1, 2, 4)
        y0 = YState(1 + 1j, 2 - 1j)
        for ell in range(4):
            closed = y_closed_special(p, y0, ell)
            iterated = y_iterate(p, y0, ell)
            assert state_residual(closed, iterated) <= 1e-12


class TestExponentIntegrality:
    def test_divisibility_identities(self):
        # Exact integers, no floats anywhere.
        for k in range(-5, 6):
            if k == 0:
                continue
            for ell in range(0, 9):
                growth = (1 + k) ** ell
                assert (growth - 1) % k == 0
                assert (growth - k * ell - 1) % (k * k) == 0


def _closed_bits(closed, p, y0, ell, powers):
    """Exact bits of a closed-form evaluation, or the error it raised."""
    try:
        form = closed(p, y0, ell, powers=powers)
    except NumericError as exc:
        return type(exc), str(exc)
    return tuple((z.real.hex(), z.imag.hex()) for z in (form.y1, form.y2))


class TestOrbitPowers:
    @pytest.mark.parametrize("special", [False, True])
    def test_shared_powers_are_bit_identical(self, special):
        rng = random.Random(f"ysystem:orbit-powers:{special}")
        closed = y_closed_special if special else y_closed
        for _ in range(30):
            k = rng.choice([-2, -1, 1, 2])
            q, r = (2 * k, 2 * (1 + k)) if special else (rng.randint(-3, 4), rng.randint(-3, 5))
            p = YParams(draw_complex(rng), draw_complex(rng), draw_complex(rng), k, q, r)
            y0 = YState(draw_complex(rng), rng.choice([0j, draw_complex(rng)]))
            powers = OrbitPowers(p, y0)
            for ell in range(12):
                shared = _closed_bits(closed, p, y0, ell, powers)
                assert shared == _closed_bits(closed, p, y0, ell, None)

    def test_orbits_with_the_same_bases_share_powers(self):
        # As the family solvers do: another y2(0) and gamma, the same alpha, beta and y1(0).
        p, y0 = YParams(1.5j, 0.5 - 1j, 2, 1, 2, 4), YState(0.9 + 0.1j, 3)
        powers = OrbitPowers(p, y0)
        q, d0 = YParams(1.5j, 0.5 - 1j, 0, 1, 2, 4), YState(0.9 + 0.1j, -1j)
        for ell in range(12):
            assert _closed_bits(y_closed_special, p, y0, ell, powers) == _closed_bits(y_closed_special, p, y0, ell, None)
            assert _closed_bits(y_closed, q, d0, ell, powers) == _closed_bits(y_closed, q, d0, ell, None)

    def test_powers_of_another_orbit_are_rejected(self):
        p = YParams(1, 1, 1, 1, 2, 4)
        y0 = YState(1, 0)
        powers = OrbitPowers(p, y0)
        with pytest.raises(ValueError):
            y_closed(p, YState(2, 0), 3, powers=powers)
        with pytest.raises(ValueError):
            y_closed_special(YParams(2, 1, 1, 1, 2, 4), y0, 3, powers=powers)
