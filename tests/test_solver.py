"""Closed-form initial-value solvers: branch sets, consistency, truncation."""

import random

import pytest

from solvmaps import ysystem
from solvmaps.errors import NumericOverflowError, ZeroToNegativePowerError
from solvmaps.numeric import MINUS, PLUS, SIGNS, Powers, pair_eq_unordered
from solvmaps.polybridge import DistinctZeroPair, cubic_from_zeros, quad_from_zeros
from solvmaps.solver import (
    solve_conjugated,
    solve_cubic_family,
    solve_generalized,
    solve_quadratic_family,
    solve_sqrt_cubic,
    solve_sqrt_quadratic,
)
from solvmaps.stepmaps import (
    CubicFamilyParams,
    GeneralizedParams,
    LinearChange,
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
        x0 = DistinctZeroPair(0.5, -1.5)
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
        sol = solve_sqrt_cubic(sp, DistinctZeroPair(*x0), 0)
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
            x0 = DistinctZeroPair(draw_complex(rng), draw_complex(rng))
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
            x0 = DistinctZeroPair(draw_complex(rng), draw_complex(rng))
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


class TestWorkedInstances:
    def test_cubic_family_step_one(self):
        sol = solve_cubic_family(CubicFamilyParams(1, 1, 1), DistinctZeroPair(1, 0), 1)
        assert residual(sol.entries[1].y.y1, 12 + 0j) <= 1e-12
        assert residual(sol.entries[1].y.y2, 36 + 0j) <= 1e-12
        assert branch_set_matches(sol.branch_set(1), [(-6 + 0j, 0j), (-2 + 0j, -8 + 0j)], tol=1e-12)

    def test_quadratic_family_step_one(self):
        sol = solve_quadratic_family(QuadraticFamilyParams(1, 1, 1), (1, 0), 1)
        assert pair_eq_unordered(sol.entries[1].plus, (0, -2))

    def test_sqrt_quadratic_reduction_instance(self):
        sp = YParams(2, 2, 0, 1, 2, 4)
        sol = solve_sqrt_quadratic(sp, (1, 0), 1)
        assert pair_eq_unordered(sol.entries[1].plus, (0, -2))

    def test_generalized_tiny_b2(self):
        # y1 = z1 + B2 z2 rounds to z1, and B2**2 underflows; nothing divides by B2.
        p = GeneralizedParams(1, 1, 1, 1e-100, 1, 1, 0, 1)
        sol = solve_generalized(p, (1, 2), 2)
        assert len(sol.entries) == 3
        for entry in sol.entries:
            assert branch_set_matches(sol.branch_set(entry.ell), [(1, 2), (1, -2)], tol=1e-15)
            assert (entry.y.y1, entry.y.y2) == (1, 5)

    def test_conjugated_diagonal_change(self):
        A = LinearChange(1, 0, 0, 2)
        sol = solve_conjugated(A, CubicFamilyParams(1, 1, 1), (1, 0), 1)
        assert branch_set_matches(sol.branch_set(1), [(-6 + 0j, 0j), (-2 + 0j, -16 + 0j)], tol=1e-12)

    def test_conjugated_identity_matches_cubic(self):
        p = CubicFamilyParams(0.5, 0.25, 1)
        x0 = (1 + 1j, -0.5)
        conj = solve_conjugated(LinearChange(1, 0, 0, 1), p, x0, 3)
        plain = solve_cubic_family(p, DistinctZeroPair(*x0), 3)
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
        sol = solve_cubic_family(CubicFamilyParams(0.9, 0, 1), DistinctZeroPair(0.8, -0.3), 4)
        for entry in sol.entries[1:]:
            assert pair_residual(entry.plus, entry.minus) <= 1e-6

    def test_y_entries_chain(self):
        from solvmaps.ysystem import y_step

        p = CubicFamilyParams(0.7, 0.4, 1)
        sol = solve_cubic_family(p, DistinctZeroPair(0.5, 1.1), 4)
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
            x0 = DistinctZeroPair(draw_complex(rng), draw_complex(rng))
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
        for entry in sol.entries:
            want = self._iterated(p, x0, entry.ell, quad_from_zeros)
            assert _relative(entry.y.y2, want.y2) <= 1e-14
            for x1, x2 in sol.branch_set(entry.ell):
                assert _relative(x1 * x2, want.y2) <= 1e-14
                assert _relative(x1 + x2, -want.y1) <= 1e-14

    def test_cubic_family_small_double_zero(self):
        p, x0 = CubicFamilyParams(1, 1, 1), DistinctZeroPair(1e-8, 1e8)
        sol = solve_cubic_family(p, x0, 3)
        assert sol.entries[0].minus == x0 and sol.entries[0].y.y2 == x0.x1 * (x0.x1 + 2 * x0.x2)
        for entry in sol.entries:
            want = self._iterated(p, x0, entry.ell, cubic_from_zeros)
            assert _relative(entry.y.y2, want.y2) <= 1e-14
            # The branch of the small double zero: x1 = y2 / (x1 + 2 x2) to full precision.
            x1, x2 = min(sol.branch_set(entry.ell), key=lambda b: abs(b[0]))
            assert _relative(x1 * (x1 + 2 * x2), want.y2) <= 1e-14
            assert _relative(2 * x1 + x2, -want.y1) <= 1e-14

    def test_cubic_family_small_simple_zero(self):
        # (y1, y2) fix a simple zero far below the double one only to the
        # absolute accuracy of y1; y2 itself keeps its digits.
        p, x0 = CubicFamilyParams(1, 1, 1), DistinctZeroPair(1e8, 1e-8)
        sol = solve_cubic_family(p, x0, 3)
        for entry in sol.entries:
            want = self._iterated(p, x0, entry.ell, cubic_from_zeros)
            assert _relative(entry.y.y2, want.y2) <= 1e-14
            for x1, x2 in sol.branch_set(entry.ell):
                assert abs(2 * x1 + x2 + want.y1) <= 1e-15 * abs(want.y1)


def test_closed_form_y2_survives_an_underflowing_power():
    # y2(5) = 20**242 * 0.1**484 * 1 ~ 7e-170, but 0.1**484 alone is 0 in doubles.
    # k divides q, so the scale is read off y1 and 0.1**484 is never formed.
    p, y0 = YParams(20, 20, 0, 2, 4, 6), YState(0.1, 1)
    want = y_iterate(p, y0, 5).y2
    assert _relative(y_closed_special(p, y0, 5).y2, want) <= 1e-12


@pytest.mark.xfail(strict=True, reason="k does not divide q: a power of y1(0) underflows to 0 though the product is representable")
def test_closed_form_y2_survives_an_underflowing_power_when_k_does_not_divide_q():
    # y2(5) ~ 2.45e-124 by iteration; the scale's power of y1(0) underflows on its own.
    p, y0 = YParams(20, 20, 0, 2, 3, 6), YState(0.1, 1)
    want = y_iterate(p, y0, 5).y2
    assert _relative(y_closed(p, y0, 5).y2, want) <= 1e-12


class TestSharedSquarings:
    def test_each_base_squared_at_most_once_per_bit(self, monkeypatch):
        """A 1000-step k=1 orbit builds one ladder per base, no longer than its largest exponent."""
        ladders = []
        largest = {}
        init, pow_ = Powers.__init__, Powers.pow

        def recording_init(self, z):
            init(self, z)
            ladders.append(self)

        def recording_pow(self, n):
            largest[id(self)] = max(largest.get(id(self), 0), abs(n))
            return pow_(self, n)

        monkeypatch.setattr(Powers, "__init__", recording_init)
        monkeypatch.setattr(Powers, "pow", recording_pow)
        # alpha = 1, beta = i, y1(0) = 1: exact unit bases, so nothing overflows.
        sol = solve_cubic_family(
            CubicFamilyParams(1 / 3, 1j / 3, 1), DistinctZeroPair(1j, -1 - 2j), 1000
        )
        assert sol.overflow_at is None
        assert len(sol.entries) == 1001
        assert len(ladders) == 3  # alpha, beta, y1(0)
        for ladder in ladders:
            assert len(ladder) == largest[id(ladder)].bit_length()
        # 2**1000 - 1 for alpha, 2 * 1000 for beta, 2**1000 for y1(0).  k divides q,
        # so the scale is read off y1 and e_alpha = 2(2**1000 - 1001) is never asked for.
        assert [len(ladder) for ladder in ladders] == [1000, 11, 1001]

    def test_general_form_adds_one_gamma_term_per_step(self, monkeypatch):
        """A 150-step sqrt-cubic orbit evaluates 150 gamma terms, not one per (step, earlier step)."""
        terms = []
        term = ysystem._gamma_term

        def counting_term(p, powers, s):
            terms.append(s)
            return term(p, powers, s)

        monkeypatch.setattr(ysystem, "_gamma_term", counting_term)
        p = YParams(1j, -1, -1j, 1, 1, 3)
        sol = solve_sqrt_cubic(p, DistinctZeroPair(1, -2 - 1j), 150)
        assert sol.overflow_at is None
        assert terms == list(range(150))


class TestOverflowTruncation:
    def test_marker_and_prefix(self):
        sol = solve_cubic_family(CubicFamilyParams(1, 1, 2), DistinctZeroPair(1e80, 0), 6)
        assert sol.overflow_at is not None
        assert len(sol.entries) == sol.overflow_at
        assert all(entry.ell == i for i, entry in enumerate(sol.entries))

    def test_zero_base_truncates_with_error(self):
        # y1(0) = 0 and k = -1: y1(0)**-2 is needed from step 1 on.
        sol = solve_cubic_family(CubicFamilyParams(1, 1, -1), DistinctZeroPair(1, -2), 4)
        assert sol.overflow_at == 1
        assert [entry.ell for entry in sol.entries] == [0]
        assert isinstance(sol.error, ZeroToNegativePowerError)
        assert sol.error.step == 1

    def test_no_marker_on_clean_run(self):
        sol = solve_cubic_family(CubicFamilyParams(1, 1, 1), DistinctZeroPair(1, 0), 3)
        assert sol.overflow_at is None
        assert sol.error is None
        assert len(sol.entries) == 4
