"""Closed-form initial-value solvers: branch sets, consistency, truncation."""

import dataclasses
import random

import pytest

from solvmaps import ysystem
from solvmaps.errors import NumericOverflowError, ZeroToNegativePowerError
from solvmaps.numeric import MINUS, PLUS, SIGNS, Powers
from solvmaps.polybridge import cubic_from_zeros, cubic_zeros_branch, quad_from_zeros, quad_zeros
from solvmaps.solver import (
    solve_conjugated,
    solve_cubic_family,
    solve_generalized,
    solve_quadratic_family,
    solve_sqrt_cubic,
    solve_sqrt_quadratic,
    solve_y,
)
from solvmaps.stepmaps import (
    ConjugatedParams,
    CubicFamilyParams,
    GeneralizedParams,
    QuadraticFamilyParams,
    step_cubic_family,
    step_generalized,
    step_quadratic_family,
    step_sqrt_cubic,
    step_sqrt_quadratic,
)
from solvmaps.verify import draw_complex, draw_pair, pair_residual, pair_residual_unordered, residual
from solvmaps.ysystem import YParams, YState, y_closed, y_closed_special, y_iterate

NUMERIC_ERRORS = (ZeroToNegativePowerError, NumericOverflowError)


def branch_set_matches(got, want, tol=1e-9):
    """Two-sided match between two <=2-element state sets."""
    return all(min(pair_residual(g, w) for w in want) <= tol for g in got) and all(
        min(pair_residual(g, w) for g in got) <= tol for w in want
    )


class TestInitialCondition:
    def test_quadratic_family(self):
        x0 = (0.5 + 0.25j, -1 + 2j)
        sol = solve_quadratic_family(QuadraticFamilyParams(1, 0.5, 1), x0, 0)
        assert pair_residual_unordered(sol.entries[0].plus, x0) <= 1e-9

    def test_cubic_family_one_branch(self):
        x0 = (0.5, -1.5)
        sol = solve_cubic_family(CubicFamilyParams(1, 0.5, 1), x0, 0)
        assert min(pair_residual(b, tuple(x0)) for b in sol.branch_set(0)) <= 1e-9

    def test_generalized_branch_or_conjugate(self):
        p = GeneralizedParams(1.5, 0.5, -1, -1, 0, 0, 1, 1)
        z0 = (1 + 1j, 2 - 1j)
        sol = solve_generalized(p, z0, 0)
        assert min(pair_residual(b, z0) for b in sol.branch_set(0)) <= 1e-9

    def test_sqrt_systems(self):
        sp = YParams(2, 1, 0.5, 1, 1, 3)
        x0 = (0.5, 1.5)
        sol = solve_sqrt_quadratic(sp, x0, 0)
        assert pair_residual_unordered(sol.entries[0].plus, x0) <= 1e-9
        sol = solve_sqrt_cubic(sp, x0, 0)
        assert min(pair_residual(b, x0) for b in sol.branch_set(0)) <= 1e-9


class TestOneStepConsistency:
    def test_quadratic_family(self):
        rng = random.Random("solver:quad1")
        for _ in range(25):
            p = QuadraticFamilyParams(draw_complex(rng), draw_complex(rng), rng.choice([1, 2]))
            x0 = draw_pair(rng)
            sol = solve_quadratic_family(p, x0, 1)
            stepped = step_quadratic_family(p, PLUS, x0)
            assert pair_residual_unordered(sol.entries[1].plus, stepped) <= 1e-9

    def test_cubic_family(self):
        rng = random.Random("solver:cubic1")
        for _ in range(25):
            p = CubicFamilyParams(draw_complex(rng), draw_complex(rng), rng.choice([1, 2]))
            x0 = (draw_complex(rng), draw_complex(rng))
            sol = solve_cubic_family(p, x0, 1)
            want = [tuple(step_cubic_family(p, s, x0)) for s in SIGNS]
            assert branch_set_matches(sol.branch_set(1), want)

    def test_sqrt_quadratic(self):
        rng = random.Random("solver:sq1")
        for _ in range(25):
            sp = YParams(
                draw_complex(rng), draw_complex(rng), draw_complex(rng),
                rng.choice([1, 2]), rng.randint(0, 3), rng.randint(0, 3),
            )
            x0 = draw_pair(rng)
            sol = solve_sqrt_quadratic(sp, x0, 1)
            stepped = step_sqrt_quadratic(sp, PLUS, x0)
            assert pair_residual_unordered(sol.entries[1].plus, stepped) <= 1e-8

    def test_sqrt_cubic(self):
        rng = random.Random("solver:sc1")
        for _ in range(25):
            sp = YParams(
                draw_complex(rng), draw_complex(rng), draw_complex(rng),
                rng.choice([1, 2]), rng.randint(0, 3), rng.randint(0, 3),
            )
            x0 = (draw_complex(rng), draw_complex(rng))
            sol = solve_sqrt_cubic(sp, x0, 1)
            want = [tuple(step_sqrt_cubic(sp, s, x0)) for s in SIGNS]
            assert branch_set_matches(sol.branch_set(1), want, tol=1e-8)

    def test_generalized(self):
        rng = random.Random("solver:gen1")
        for _ in range(25):
            try:
                p = GeneralizedParams(
                    draw_complex(rng), draw_complex(rng),
                    draw_complex(rng), draw_complex(rng),
                    draw_complex(rng), draw_complex(rng), draw_complex(rng),
                    1,
                )
            except ValueError:
                continue
            z0 = draw_pair(rng)
            sol = solve_generalized(p, z0, 1)
            if len(sol.entries) < 2:
                continue
            stepped = [step_generalized(p, s, z0) for s in SIGNS]
            for s_state in stepped:
                assert min(pair_residual(s_state, b) for b in sol.branch_set(1)) <= 1e-8


#: Inexact orbits that stay finite for 200 steps: (alpha, beta, gamma, k, q, r).
INEXACT_ORBITS = [
    (0.9 + 0.3j, 0.4 - 0.2j, 0.5 + 0.5j, -2, 1, 3),
    (0.9 + 0.3j, 0.4 - 0.2j, 0.5 + 0.5j, -1, -3, 1),
    (0.9 + 0.3j, 0.4 - 0.2j, 0.5 + 0.5j, -1, -2, 0),
]


@pytest.mark.parametrize("solve, branch", [
    (solve_sqrt_quadratic, quad_zeros),
    (solve_sqrt_cubic, cubic_zeros_branch),
], ids=["sqrt-quad", "sqrt-cubic"])
@pytest.mark.parametrize("orbit", INEXACT_ORBITS)
def test_branches_are_the_sign_taking_inversion_at_plus_and_minus(solve, branch, orbit):
    # One labelling rule: each branch is its bridge's inversion at that sign
    # of the principal root, bit for bit.
    sol = solve(YParams(*orbit), (0.6 - 0.2j, -0.3 + 0.7j), 200)
    assert sol.error is None
    for entry in sol.entries:
        assert repr((entry.plus, entry.minus)) == repr((branch(*entry.y, PLUS), branch(*entry.y, MINUS)))


class TestWorkedInstances:
    def test_cubic_family_step_one(self):
        sol = solve_cubic_family(CubicFamilyParams(1, 1, 1), (1, 0), 1)
        assert residual(sol.entries[1].y.y1, 12 + 0j) <= 1e-12
        assert residual(sol.entries[1].y.y2, 36 + 0j) <= 1e-12
        assert branch_set_matches(sol.branch_set(1), [(-6 + 0j, 0j), (-2 + 0j, -8 + 0j)], tol=1e-12)

    def test_quadratic_family_step_one(self):
        sol = solve_quadratic_family(QuadraticFamilyParams(1, 1, 1), (1, 0), 1)
        assert set(sol.entries[1].plus) == {0, -2}

    def test_sqrt_quadratic_reduction_instance(self):
        sp = YParams(2, 2, 0, 1, 2, 4)
        sol = solve_sqrt_quadratic(sp, (1, 0), 1)
        assert set(sol.entries[1].plus) == {0, -2}

    def test_generalized_tiny_b2(self):
        # y1 = z1 + B2 z2 rounds to z1, and B2**2 underflows; nothing divides by B2.
        p = GeneralizedParams(1, 1, 1, 1e-100, 1, 1, 0, 1)
        sol = solve_generalized(p, (1, 2), 2)
        assert len(sol.entries) == 3
        for ell, entry in enumerate(sol.entries):
            assert branch_set_matches(sol.branch_set(ell), [(1, 2), (1, -2)], tol=1e-15)
            assert (entry.y.y1, entry.y.y2) == (1, 5)

    def test_conjugated_diagonal_change(self):
        sol = solve_conjugated(ConjugatedParams(1, 1, 1, 1, 0, 0, 2), (1, 0), 1)
        assert branch_set_matches(sol.branch_set(1), [(-6 + 0j, 0j), (-2 + 0j, -16 + 0j)], tol=1e-12)

    def test_conjugated_identity_matches_cubic(self):
        p = CubicFamilyParams(0.5, 0.25, 1)
        x0 = (1 + 1j, -0.5)
        conj = solve_conjugated(ConjugatedParams(0.5, 0.25, 1, 1, 0, 0, 1), x0, 3)
        plain = solve_cubic_family(p, x0, 3)
        for a, b in zip(conj.entries, plain.entries):
            assert pair_residual(a.plus, b.plus) <= 1e-12
            assert pair_residual(a.minus, b.minus) <= 1e-12


class TestStructuralProperties:
    def test_quadratic_origin_absorbing(self):
        # x0 = {c, -c} has y1(0) = 0, so the orbit hits {0, 0} at once.
        sol = solve_quadratic_family(QuadraticFamilyParams(1, 0.5, 1), (0.75, -0.75), 3)
        for entry in sol.entries[1:]:
            assert pair_residual(entry.plus, (0, 0)) <= 1e-12

    def test_cubic_b_zero_branches_coincide(self):
        # With b = 0 every step maps onto the triple-root locus, where the
        # branch discriminant cancels to roundoff; the branches coincide to
        # sqrt(eps).  At ell = 0 the two double-root branches still differ.
        sol = solve_cubic_family(CubicFamilyParams(0.9, 0, 1), (0.8, -0.3), 4)
        for entry in sol.entries[1:]:
            assert pair_residual(entry.plus, entry.minus) <= 1e-6

    def test_y_entries_chain(self):
        from solvmaps.ysystem import y_step

        p = CubicFamilyParams(0.7, 0.4, 1)
        sol = solve_cubic_family(p, (0.5, 1.1), 4)
        yp = p.y_params()
        for prev, cur in zip(sol.entries, sol.entries[1:]):
            stepped = y_step(yp, prev.y)
            assert residual(cur.y.y1, stepped.y1) <= 1e-9
            assert residual(cur.y.y2, stepped.y2) <= 1e-9

    def test_coefficient_shadowing(self):
        # Any sign-sequence iteration maps through the bridge onto y(ell).
        rng = random.Random("solver:shadow")
        for _ in range(20):
            p = CubicFamilyParams(draw_complex(rng), draw_complex(rng), 1)
            x0 = (draw_complex(rng), draw_complex(rng))
            sol = solve_cubic_family(p, x0, 4)
            state = x0
            for ell in range(1, len(sol.entries)):
                state = step_cubic_family(p, rng.choice(SIGNS), state)
                m = cubic_from_zeros(state)
                assert residual(m.y1, sol.entries[ell].y.y1) <= 1e-8
                assert residual(m.y2, sol.entries[ell].y.y2) <= 1e-8

    def test_generalized_reduces_to_quadratic_family(self):
        rng = random.Random("solver:reduction")
        for _ in range(20):
            a, b = draw_complex(rng), draw_complex(rng)
            gp = GeneralizedParams(2 * a, 2 * b, -1, -1, 0, 0, 1, 1)
            qp = QuadraticFamilyParams(a, b, 1)
            z0 = draw_pair(rng)
            gen = solve_generalized(gp, z0, 3)
            quad = solve_quadratic_family(qp, z0, 3)
            for ge, qe in zip(gen.entries, quad.entries):
                for branch in (ge.plus, ge.minus):
                    assert pair_residual_unordered(branch, qe.plus) <= 1e-8


def _relative(got: complex, want: complex) -> float:
    return abs(got - want) / abs(want)


class TestWidelySeparatedZeros:
    """Zeros 1e8 and 1e-8.  With a = b, gamma = 0 keeps y2 / y1**2 at 1e-16 all
    along the orbit, where P y1**2 - D or -y1 +/- sqrt(D) would cancel the
    small zero and y2 away."""

    def _iterated(self, p, x0, ell, from_zeros):
        return y_iterate(p.y_params(), YState(*from_zeros(x0)[:2]), ell)

    def test_quadratic_family(self):
        p, x0 = QuadraticFamilyParams(1, 1, 1), (1e8, 1e-8)
        sol = solve_quadratic_family(p, x0, 3)
        assert sol.entries[0].plus == x0 and sol.entries[0].y.y2 == 1
        for ell, entry in enumerate(sol.entries):
            want = self._iterated(p, x0, ell, quad_from_zeros)
            assert _relative(entry.y.y2, want.y2) <= 1e-14
            for x1, x2 in sol.branch_set(ell):
                assert _relative(x1 * x2, want.y2) <= 1e-14
                assert _relative(x1 + x2, -want.y1) <= 1e-14

    def test_cubic_family_small_double_zero(self):
        p, x0 = CubicFamilyParams(1, 1, 1), (1e-8, 1e8)
        sol = solve_cubic_family(p, x0, 3)
        assert sol.entries[0].minus == x0 and sol.entries[0].y.y2 == x0[0] * (x0[0] + 2 * x0[1])
        for ell, entry in enumerate(sol.entries):
            want = self._iterated(p, x0, ell, cubic_from_zeros)
            assert _relative(entry.y.y2, want.y2) <= 1e-14
            # The branch of the small double zero: x1 = y2 / (x1 + 2 x2) to full precision.
            x1, x2 = min(sol.branch_set(ell), key=lambda b: abs(b[0]))
            assert _relative(x1 * (x1 + 2 * x2), want.y2) <= 1e-14
            assert _relative(2 * x1 + x2, -want.y1) <= 1e-14

    def test_cubic_family_small_simple_zero(self):
        # (y1, y2) fix a simple zero far below the double one only to the
        # absolute accuracy of y1; y2 itself keeps its digits.
        p, x0 = CubicFamilyParams(1, 1, 1), (1e8, 1e-8)
        sol = solve_cubic_family(p, x0, 3)
        for ell, entry in enumerate(sol.entries):
            want = self._iterated(p, x0, ell, cubic_from_zeros)
            assert _relative(entry.y.y2, want.y2) <= 1e-14
            for x1, x2 in sol.branch_set(ell):
                assert abs(2 * x1 + x2 + want.y1) <= 1e-15 * abs(want.y1)


@pytest.mark.parametrize("closed", [y_closed, y_closed_special])
def test_closed_form_y2_survives_an_underflowing_power(closed):
    # y2(5) = 20**242 * 0.1**484 * 1 ~ 7e-170, but 0.1**484 alone is 0 in doubles.
    # k divides q, so the scale is read off y1 and 0.1**484 is never formed.
    p, y0 = YParams(20, 20, 0, 2, 4, 6), YState(0.1, 1)
    want = y_iterate(p, y0, 5).y2
    assert _relative(closed(p, y0, 5).y2, want) <= 1e-12


@pytest.mark.xfail(strict=True, reason="k does not divide q: a power of y1(0) underflows to 0 though the product is representable")
def test_closed_form_y2_survives_an_underflowing_power_when_k_does_not_divide_q():
    # y2(5) ~ 2.45e-124 by iteration; the scale's power of y1(0) underflows on its own.
    p, y0 = YParams(20, 20, 0, 2, 3, 6), YState(0.1, 1)
    want = y_iterate(p, y0, 5).y2
    assert _relative(y_closed(p, y0, 5).y2, want) <= 1e-12


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_closed_form_y1_survives_a_subnormal_power():
    # y1(6) ~ 4.38e-260 by iteration; for k >= 1, _y1 forms y1(0)**729 apart, and it is subnormal.
    p, y0 = YParams(1.5, 0, 0, 2, 0, 0), YState(0.36, 0)
    want = y_iterate(p, y0, 6).y1
    assert _relative(y_closed(p, y0, 6).y1, want) <= 1e-12


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: the special form's scale and bracket overflow apart on a bounded orbit")
@pytest.mark.parametrize("solve, params, from_zeros", [
    (solve_cubic_family, CubicFamilyParams(0.5, 0.25, -1), cubic_from_zeros),
    (solve_cubic_family, CubicFamilyParams(0.5, 0.25, -2), cubic_from_zeros),
    (solve_quadratic_family, QuadraticFamilyParams(0.75, 0.25, -1), quad_from_zeros),
    (solve_quadratic_family, QuadraticFamilyParams(0.75, 0.25, -2), quad_from_zeros),
], ids=["cubic-k=-1", "cubic-k=-2", "quad-k=-1", "quad-k=-2"])
def test_family_solve_delivers_a_bounded_orbit(solve, params, from_zeros):
    # Iteration keeps |y| <= 2.5 for all 1000 steps; solve stops at step 875 or 876 with an overflow.
    x0 = (1, 0.5)
    sol = solve(params, x0, 1000)
    assert sol.error is None and len(sol.entries) == 1001
    want = y_iterate(params.y_params(), from_zeros(x0), 1000)
    assert pair_residual(sol.entries[1000].y, want) <= 1e-12


@pytest.mark.xfail(strict=True, reason="D(0) = (x1 - x2)**2 overflows though y(0) is finite")
def test_quad_family_delivers_the_initial_state_when_only_its_discriminant_overflows():
    # x1 - x2 = 2e154, so D(0) = 4e308 is inf; y(0) = (0, -1e308) is finite, and iterate writes it.
    sol = solve_quadratic_family(QuadraticFamilyParams(1, 0.5, 1), (1e154, -1e154), 1)
    assert sol.entries


class TestSharedSquarings:
    def test_y1_costs_a_fixed_number_of_multiplications_per_step(self, monkeypatch):
        """A 400-step k=2 orbit takes y1 off the radix-3 ladder: two cubes per
        step (two multiplications each, and three more to form alpha**S, onto
        1, and y1), so its multiplications grow linearly in the steps.  No
        power of 3**ell is asked of a squaring ladder: the ladders of alpha and
        y1(0) stay as long as the scale's alpha**(2 ell) and y1(0)**-2 need."""
        ladders, cubed = [], []
        init, radix_pow = Powers.__init__, ysystem._radix_pow

        def recording_init(self, z):
            init(self, z)
            ladders.append(self)

        def counting_radix_pow(z, n):
            cubed.append(n)
            return radix_pow(z, n)

        monkeypatch.setattr(Powers, "__init__", recording_init)
        monkeypatch.setattr(ysystem, "_radix_pow", counting_radix_pow)
        steps = 400
        # alpha = i, beta = 1, y1(0) = 1: exact unit bases, so nothing overflows.
        sol = solve_quadratic_family(QuadraticFamilyParams(0.5j, 0.5, 2), (1j, -1 - 1j), steps)
        assert sol.overflow_at is None
        assert len(sol.entries) == steps + 1
        # y1(0)**g(n) at every step, alpha**g(n) from the second step on.
        assert cubed == [3] * (2 * steps - 1)
        alpha, _, y10 = ladders
        for ladder in (alpha, y10):
            assert len(ladder._ladder) <= (2 * steps).bit_length() + 1

    def test_general_form_adds_one_gamma_term_per_step(self, monkeypatch):
        """A 150-step sqrt-cubic orbit evaluates 150 gamma terms, not one per (step, earlier step)."""
        terms = []
        term = ysystem._gamma_term

        def counting_term(p, powers, s):
            terms.append(s)
            return term(p, powers, s)

        monkeypatch.setattr(ysystem, "_gamma_term", counting_term)
        p = YParams(1j, -1, -1j, 1, 1, 3)
        sol = solve_sqrt_cubic(p, (1, -2 - 1j), 150)
        assert sol.overflow_at is None
        assert terms == list(range(150))


class TestOverflowTruncation:
    def test_marker_and_prefix(self):
        sol = solve_cubic_family(CubicFamilyParams(1, 1, 2), (1e80, 0), 6)
        assert sol.overflow_at is not None
        assert len(sol.entries) == sol.overflow_at

    def test_zero_base_truncates_with_error(self):
        # y1(0) = 0 and k = -1: y1(0)**-2 is needed from step 1 on.
        sol = solve_cubic_family(CubicFamilyParams(1, 1, -1), (1, -2), 4)
        assert sol.overflow_at == 1
        assert len(sol.entries) == 1
        assert isinstance(sol.error, ZeroToNegativePowerError)
        assert sol.error.step == 1

    #: (family, k, a, b, x0) -> (overflow_at, error type), taken on the binary
    #: ladder for y1, before k >= 1 orbits took y1 off the radix-(1+k) ladder.
    PINNED = {
        ("quad", 1, 0.9 + 0.3j, 0.2 - 0.1j, (0.5 + 0.1j, -0.3 + 0.4j)): (11, NumericOverflowError),
        ("quad", 1, 0.01 + 0.003j, 0.2 - 0.1j, (0.5 + 0.1j, -0.3 + 0.4j)): (None, None),
        ("quad", 1, 0.5 + 0.05j, 0.45 - 0.1j, (3 + 1j, 2 - 0.5j)): (8, NumericOverflowError),
        ("quad", 1, 0.5 + 0.05j, 0.45 - 0.1j, (0.03 + 0.01j, 0.02 - 0.05j)): (17, NumericOverflowError),
        ("quad", 1, 0, 0.3 - 0.1j, (0.6 + 0.2j, -0.1 + 0.4j)): (None, None),
        ("quad", 1, 0.5 + 0.05j, 0.45 - 0.1j, (0.6 + 0.2j, -0.6 - 0.2j)): (17, NumericOverflowError),
        ("quad", 1, 5 + 1j, 0.2 - 0.1j, (0.004 + 0.001j, 0.003 - 0.002j)): (8, NumericOverflowError),
        ("cubic", 1, 0.6 + 0.3j, 0.2 - 0.1j, (0.5 + 0.1j, -0.3 + 0.4j)): (10, NumericOverflowError),
        ("cubic", 1, 0.33 + 0.05j, 0.3 - 0.1j, (0.01 + 0.02j, 0.03 - 0.01j)): (19, NumericOverflowError),
        ("cubic", 1, 0.33 + 0.05j, 0.3 - 0.1j, (0.2 + 0.1j, -0.4 - 0.2j)): (19, NumericOverflowError),
        ("cubic", 1, 5 + 1j, 0.2 - 0.1j, (0.004 + 0.001j, 0.003 - 0.002j)): (8, NumericOverflowError),
        ("quad", 2, 0.9 + 0.3j, 0.2 - 0.1j, (0.5 + 0.1j, -0.3 + 0.4j)): (7, NumericOverflowError),
        ("quad", 2, 0.01 + 0.003j, 0.2 - 0.1j, (0.5 + 0.1j, -0.3 + 0.4j)): (None, None),
        ("quad", 2, 0.5 + 0.05j, 0.45 - 0.1j, (3 + 1j, 2 - 0.5j)): (5, NumericOverflowError),
        ("quad", 2, 0.5 + 0.05j, 0.45 - 0.1j, (0.03 + 0.01j, 0.02 - 0.05j)): (11, NumericOverflowError),
        ("quad", 2, 0, 0.3 - 0.1j, (0.6 + 0.2j, -0.1 + 0.4j)): (None, None),
        ("quad", 2, 0.5 + 0.05j, 0.45 - 0.1j, (0.6 + 0.2j, -0.6 - 0.2j)): (11, NumericOverflowError),
        ("quad", 2, 5 + 1j, 0.2 - 0.1j, (0.004 + 0.001j, 0.003 - 0.002j)): (6, NumericOverflowError),
        ("cubic", 2, 0.6 + 0.3j, 0.2 - 0.1j, (0.5 + 0.1j, -0.3 + 0.4j)): (7, NumericOverflowError),
        ("cubic", 2, 0.33 + 0.05j, 0.3 - 0.1j, (0.01 + 0.02j, 0.03 - 0.01j)): (13, NumericOverflowError),
        ("cubic", 2, 0.33 + 0.05j, 0.3 - 0.1j, (0.2 + 0.1j, -0.4 - 0.2j)): (13, NumericOverflowError),
        ("cubic", 2, 5 + 1j, 0.2 - 0.1j, (0.004 + 0.001j, 0.003 - 0.002j)): (6, NumericOverflowError),
    }

    @pytest.mark.parametrize("case", list(PINNED), ids=str)
    def test_truncation_step_and_error_are_pinned(self, case):
        """|alpha| or |y1(0)| away from 1, alpha = 0 and y1(0) = 0: the step a
        family orbit truncates at, and the type of error, do not depend on
        how the powers of alpha and y1(0) are formed."""
        family, k, a, b, x0 = case
        params, solve = (
            (QuadraticFamilyParams, solve_quadratic_family) if family == "quad"
            else (CubicFamilyParams, solve_cubic_family)
        )
        sol = solve(params(a, b, k), x0, 60)
        assert (sol.overflow_at, sol.error and type(sol.error)) == self.PINNED[case]

    def test_no_marker_on_clean_run(self):
        sol = solve_cubic_family(CubicFamilyParams(1, 1, 1), (1, 0), 3)
        assert sol.overflow_at is None
        assert sol.error is None
        assert len(sol.entries) == 4


#: Each solver with integer-valued fields, less k: (solve, params type, fields).
INTEGER_RUNS = {
    "y": (solve_y, YParams, {"alpha": 2, "beta": -1, "gamma": 3, "q": 1, "r": 2}),
    "sqrt-quad": (solve_sqrt_quadratic, YParams, {"alpha": 2, "beta": -1, "gamma": 3, "q": 1, "r": 2}),
    "sqrt-cubic": (solve_sqrt_cubic, YParams, {"alpha": 2, "beta": -1, "gamma": 3, "q": 1, "r": 2}),
    "quad-family": (solve_quadratic_family, QuadraticFamilyParams, {"a": 2, "b": 1}),
    "cubic-family": (solve_cubic_family, CubicFamilyParams, {"a": 2, "b": 1}),
    "generalized": (solve_generalized, GeneralizedParams,
                    {"alpha": 1, "beta": 2, "B1": 1, "B2": 1, "C1": 1, "C2": 1, "C3": 0}),
    "conjugated": (solve_conjugated, ConjugatedParams, {"a": 1, "b": 2, "A11": 1, "A12": 1, "A21": 0, "A22": 2}),
}


@pytest.mark.parametrize("k", [-2, -1, 1, 2])
@pytest.mark.parametrize("name", sorted(INTEGER_RUNS))
def test_integer_arguments_solve_as_complex_ones(name, k):
    """The parameter types keep integers as they are given; the solvers deliver the same values
    as for complex arguments (a zero's sign may differ, which == does not see)."""
    solve, params, fields = INTEGER_RUNS[name]
    x0 = (2, -1)
    got = solve(params(**fields, k=k), x0, 6)
    as_complex = {f.name for f in dataclasses.fields(params) if f.type == "complex"}
    complex_fields = {f: complex(v) if f in as_complex else v for f, v in fields.items()}
    want = solve(params(**complex_fields, k=k), tuple(map(complex, x0)), 6)
    assert got.entries == want.entries
    assert (got.overflow_at, type(got.error)) == (want.overflow_at, type(want.error))
