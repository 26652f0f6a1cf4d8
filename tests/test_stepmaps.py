"""One-step maps of every family, coefficient tables, and yz relations."""

import json
import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from solvmaps import stepmaps
from solvmaps.cli import main
from solvmaps.errors import ConfigError, SolvmapsError, ZeroToNegativePowerError
from solvmaps.numeric import MINUS, PLUS, SIGNS, cpow
from solvmaps.solver import solve_sqrt_cubic, solve_sqrt_quadratic
from solvmaps.stepmaps import (
    ConjugatedParams,
    CubicFamilyParams,
    GeneralizedParams,
    K1CoeffTable,
    QuadraticFamilyParams,
    conda_residual,
    double_step_cubic,
    k1_coeff_table,
    step_conjugated,
    step_cubic_family,
    step_generalized,
    step_quadratic_family,
    step_sqrt_cubic,
    step_sqrt_quadratic,
    yz_forward,
    yz_invert,
)
from solvmaps.verify import draw_complex, draw_pair, pair_residual, pair_residual_unordered, residual
from solvmaps.ysystem import YParams, YState, y_step


class TestQuadraticFamily:
    def test_worked_example_both_signs(self):
        p = QuadraticFamilyParams(1, 1, 1)
        assert set(step_quadratic_family(p, PLUS, (1, 0))) == {-2, 0}
        assert set(step_quadratic_family(p, MINUS, (1, 0))) == {0, -2}

    def test_sign_flip_swaps_components_exactly(self):
        rng = random.Random("stepmaps:swap")
        for _ in range(50):
            p = QuadraticFamilyParams(draw_complex(rng), draw_complex(rng), rng.choice([-1, 1, 2]))
            x = draw_pair(rng)
            a = step_quadratic_family(p, PLUS, x)
            b = step_quadratic_family(p, MINUS, x)
            assert a == (b[1], b[0])

    def test_b_zero_collapses_difference_term(self):
        p = QuadraticFamilyParams(0.5 + 0.5j, 0, 2)
        x = (1 + 1j, 2 - 1j)
        got = step_quadratic_family(p, PLUS, x)
        w = x[0] + x[1]
        want = (-w) ** 2 * p.a * w
        assert got[0] == got[1]
        assert residual(got[0], want) <= 1e-12

    def test_negative_k_on_degenerate_line(self):
        p = QuadraticFamilyParams(1, 1, -1)
        with pytest.raises(ZeroToNegativePowerError):
            step_quadratic_family(p, PLUS, (1, -1))

    def test_y_params_assignment(self):
        yp = QuadraticFamilyParams(2, 3, 2).y_params()
        assert (yp.alpha, yp.beta, yp.gamma) == (4, 6, 4 - 9)
        assert (yp.q, yp.r) == (4, 6)


class TestCubicFamily:
    def test_worked_example_plus(self):
        p = CubicFamilyParams(1, 1, 1)
        got = step_cubic_family(p, PLUS, (1, 0))
        assert got == (-6, 0)

    def test_worked_example_minus(self):
        p = CubicFamilyParams(1, 1, 1)
        got = step_cubic_family(p, MINUS, (1, 0))
        assert got == (-2, -8)

    def test_b_zero_components_equal(self):
        p = CubicFamilyParams(1 + 0.5j, 0, 2)
        got = step_cubic_family(p, PLUS, (1 + 1j, -0.5))
        assert got[0] == got[1]

    def test_y_params_assignment(self):
        yp = CubicFamilyParams(2, 1, 1).y_params()
        assert (yp.alpha, yp.beta, yp.gamma) == (6, 3, 9)
        assert (yp.q, yp.r) == (2, 4)

    def test_bridge_image_follows_y_step(self):
        # The coefficient pair y = (-(2x1+x2), x1(x1+2x2)) evolves by y_step.
        rng = random.Random("stepmaps:shadow")
        for _ in range(30):
            p = CubicFamilyParams(draw_complex(rng), draw_complex(rng), rng.choice([1, 2]))
            x = (draw_complex(rng), draw_complex(rng))
            s = rng.choice(SIGNS)
            nxt = step_cubic_family(p, s, x)
            y = YState(-(2 * x[0] + x[1]), x[0] * (x[0] + 2 * x[1]))
            y_next = YState(-(2 * nxt[0] + nxt[1]), nxt[0] * (nxt[0] + 2 * nxt[1]))
            stepped = y_step(p.y_params(), y)
            assert residual(y_next.y1, stepped.y1) <= 1e-9
            assert residual(y_next.y2, stepped.y2) <= 1e-9


class TestDoubleStep:
    def test_hand_instances(self):
        p = CubicFamilyParams(1, 1, 1)
        x = (1, 0)
        plus = double_step_cubic(p, PLUS, x)
        minus = double_step_cubic(p, MINUS, x)
        assert pair_residual(plus, (-216, 0)) <= 1e-12
        assert pair_residual(minus, (-72, -288)) <= 1e-12

    def test_matches_two_single_steps(self):
        rng = random.Random("stepmaps:double")
        for _ in range(50):
            p = CubicFamilyParams(draw_complex(rng), draw_complex(rng), rng.choice([-1, 1, 2]))
            x = (draw_complex(rng), draw_complex(rng))
            try:
                for s0 in SIGNS:
                    for s1 in SIGNS:
                        two = step_cubic_family(p, s1, step_cubic_family(p, s0, x))
                        direct = double_step_cubic(p, s0 * s1, x)
                        assert pair_residual(direct, two) <= 1e-9
            except ZeroToNegativePowerError:
                continue

    def test_b_zero_sign_independent(self):
        p = CubicFamilyParams(1 - 0.5j, 0, 1)
        x = (0.5, 1.5)
        assert double_step_cubic(p, PLUS, x) == double_step_cubic(p, MINUS, x)


class TestGeneralized:
    def test_worked_example(self):
        p = GeneralizedParams(2, 2, -1, -1, 0, 0, 1, 1)
        assert pair_residual(step_generalized(p, MINUS, (1, 0)), (0, -2)) <= 1e-12
        assert pair_residual(step_generalized(p, PLUS, (1, 0)), (-2, 0)) <= 1e-12

    def test_common_zero_line(self):
        rng = random.Random("stepmaps:line")
        for _ in range(20):
            p = GeneralizedParams(
                draw_complex(rng), draw_complex(rng),
                draw_complex(rng), 1 + draw_complex(rng) / 10,
                draw_complex(rng), draw_complex(rng), draw_complex(rng),
                rng.choice([1, 2]),
            )
            t = draw_complex(rng)
            z = (p.B2 * t, -p.B1 * t)  # B1 z1 + B2 z2 = 0
            got = step_generalized(p, rng.choice(SIGNS), z)
            scale = max(abs(t), 1.0) ** (p.k + 1)
            assert abs(got[0]) / scale <= 1e-9
            assert abs(got[1]) / scale <= 1e-9

    def test_linear_image_sign_independent(self):
        rng = random.Random("stepmaps:image")
        for _ in range(30):
            p = GeneralizedParams(
                draw_complex(rng), draw_complex(rng),
                draw_complex(rng), 1 + draw_complex(rng) / 10,
                draw_complex(rng), draw_complex(rng), draw_complex(rng),
                rng.choice([-1, 1, 2]),
            )
            z = draw_pair(rng)
            base = p.B1 * z[0] + p.B2 * z[1]
            try:
                images = []
                for s in SIGNS:
                    nz = step_generalized(p, s, z)
                    images.append(p.B1 * nz[0] + p.B2 * nz[1])
                want = p.alpha * base ** (p.k + 1)
            except ZeroToNegativePowerError:
                continue
            assert residual(images[0], images[1]) <= 1e-9
            assert residual(images[0], want) <= 1e-9

    def test_g3_is_negative_g1(self):
        rng = random.Random("stepmaps:g3")
        for _ in range(30):
            try:
                p = GeneralizedParams(
                    draw_complex(rng), draw_complex(rng),
                    draw_complex(rng), draw_complex(rng),
                    draw_complex(rng), draw_complex(rng), draw_complex(rng),
                    1,
                )
            except ValueError:
                continue
            assert p.g3 == -p.g1

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            GeneralizedParams(1, 1, 1, 0, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            GeneralizedParams(1, 1, 0, 1, 0, 1, 0, 1)  # denom = 0


class TestSqrtSystems:
    def test_quadratic_reduction(self):
        rng = random.Random("stepmaps:sqrtquad")
        for _ in range(50):
            a, b = draw_complex(rng), draw_complex(rng)
            k = rng.choice([-1, 1, 2])
            qp = QuadraticFamilyParams(a, b, k)
            sp = YParams(2 * a, 2 * b, a * a - b * b, k, 2 * k, 2 * (1 + k))
            x = draw_pair(rng)
            try:
                want = step_quadratic_family(qp, PLUS, x)
                for s in SIGNS:
                    got = step_sqrt_quadratic(sp, s, x)
                    assert pair_residual_unordered(got, want) <= 1e-9
            except ZeroToNegativePowerError:
                continue

    def test_beta_gamma_zero(self):
        sp = YParams(1.5, 0, 0, 1, 2, 4)
        x = (1 + 1j, 0.5)
        t = -(x[0] + x[1])
        got = step_sqrt_quadratic(sp, PLUS, x)
        assert set(got) == {0, -1.5 * t * t}

    def test_small_zero_kept_when_the_other_dwarfs_it(self):
        # y2 stays 0.775 while one zero grows past 1e80: (-y1 -/+ r) / 2
        # would cancel the small zero away and make x1 x2 about 1e146.
        sp = YParams(-1.234, 1e-200, 0.775, 2, 5, 0)
        x = (-1.237 + 0.56j, -0.567 - 1.286j)
        for _ in range(5):
            x = step_sqrt_quadratic(sp, PLUS, x)
        y2 = solve_sqrt_quadratic(sp, (-1.237 + 0.56j, -0.567 - 1.286j), 5).entries[5].y.y2
        assert abs(x[0] * x[1] - y2) <= 1e-12 * abs(y2)

    def test_degenerate_line_maps_to_origin(self):
        sp = YParams(1, 2, 3, 1, 2, 4)
        assert step_sqrt_quadratic(sp, PLUS, (0.75, -0.75)) == (0j, 0j)

    def test_cubic_reduction(self):
        rng = random.Random("stepmaps:sqrtcubic")
        for _ in range(50):
            a, b = draw_complex(rng), draw_complex(rng)
            k = rng.choice([-1, 1, 2])
            cp = CubicFamilyParams(a, b, k)
            sp = YParams(3 * a, 3 * b, 3 * (a * a - b * b), k, 2 * k, 2 * (1 + k))
            x = (draw_complex(rng), draw_complex(rng))
            try:
                want = [step_cubic_family(cp, s, x) for s in SIGNS]
                for s in SIGNS:
                    got = step_sqrt_cubic(sp, s, x)
                    assert min(pair_residual(got, w) for w in want) <= 1e-9
            except ZeroToNegativePowerError:
                continue

    def test_cubic_small_double_zero_kept_when_the_simple_one_dwarfs_it(self):
        # The quadratic reproducer through the cubic bridge: x1 = (-y1 + r) / 3
        # would cancel to exactly 0 at ell 3, while y2 = x1 (x1 + 2 x2) stays 0.775.
        sp = YParams(-1.234, 1e-200, 0.775, 2, 5, 0)
        x = x0 = (-1.237 + 0.56j, -0.567 - 1.286j)
        solution = solve_sqrt_cubic(sp, x0, 4)
        for ell in range(1, 5):
            x = step_sqrt_cubic(sp, PLUS, x)
            err = min(
                max(abs(got - want) / abs(want) for got, want in zip(x, branch))
                for branch in solution.branch_set(ell)
            )
            assert err <= 1e-12, (ell, x)

    def test_cubic_equal_zeros_branches_coincide(self):
        a, b = 0.8, 0.3
        sp = YParams(3 * a, 3 * b, 3 * (a * a - b * b), 1, 2, 4)
        x = (0.5 + 0.5j, 0.5 + 0.5j)
        plus = step_sqrt_cubic(sp, PLUS, x)
        minus = step_sqrt_cubic(sp, MINUS, x)
        # The radicand cancels to roundoff, so its square root only
        # vanishes to sqrt(eps); the branches coincide at that scale.
        assert pair_residual(plus, minus) <= 1e-6


class TestConjugated:
    def test_identity_change_matches_cubic(self):
        p = CubicFamilyParams(1, 1, 1)
        got = step_conjugated(ConjugatedParams(1, 1, 1, 1, 0, 0, 1), PLUS, (1, 0))
        want = step_cubic_family(p, PLUS, (1, 0))
        assert pair_residual(got, tuple(want)) <= 1e-12

    def test_diagonal_change_example(self):
        c = ConjugatedParams(1, 1, 1, 1, 0, 0, 2)
        got = step_conjugated(c, PLUS, (1, 0))
        assert pair_residual(got, (-6, 0)) <= 1e-12

    def test_conjugation_identity(self):
        rng = random.Random("stepmaps:conjugation")
        for _ in range(100):
            A = [draw_complex(rng) for _ in range(4)]
            try:
                c = ConjugatedParams(draw_complex(rng), draw_complex(rng), rng.choice([-1, 1, 2]), *A)
            except ConfigError:
                continue
            z = draw_pair(rng)
            s = rng.choice(SIGNS)
            try:
                got = step_conjugated(c, s, z)
                want = c.apply(step_cubic_family(c, s, c.invert(z)))
            except ZeroToNegativePowerError:
                continue
            assert pair_residual(got, want) <= 1e-9

    def test_k_minus_one_rational_form(self):
        # At k = -1 the map is a ratio of linear forms; cross-check the
        # generic formula against the explicit conjugation on 20 draws.
        rng = random.Random("stepmaps:kminus")
        checked = 0
        while checked < 20:
            try:
                A = [draw_complex(rng) for _ in range(4)]
                c = ConjugatedParams(draw_complex(rng), draw_complex(rng), -1, *A)
                z = draw_pair(rng)
                s = rng.choice(SIGNS)
                got = step_conjugated(c, s, z)
                want = c.apply(step_cubic_family(c, s, c.invert(z)))
            except (ConfigError, ZeroToNegativePowerError):
                continue
            assert pair_residual(got, want) <= 1e-9
            checked += 1

    def test_singular_change_rejected(self):
        with pytest.raises(ConfigError):
            ConjugatedParams(1, 1, 1, 1, 2, 2, 4)


def _all_fractions(*values):
    return all(type(v) is F for v in values)


class TestExactFields:
    """The parameter types keep the numbers they are given, so exact inputs give exact derived values."""

    def test_family_y_params(self):
        quad = QuadraticFamilyParams(F(1, 3), F(1, 5), 1).y_params()
        cubic = CubicFamilyParams(F(1, 3), F(1, 5), 1).y_params()
        assert _all_fractions(quad.alpha, quad.beta, quad.gamma, cubic.alpha, cubic.beta, cubic.gamma)
        assert (quad.alpha, quad.beta, quad.gamma) == (F(2, 3), F(2, 5), F(16, 225))
        assert (cubic.alpha, cubic.beta, cubic.gamma) == (F(1), F(3, 5), F(16, 75))

    def test_generalized_gamma_and_tables(self):
        p = GeneralizedParams(F(1, 2), F(1, 3), 1, F(1, 2), F(1, 3), 2, 1, 1)
        assert (p.denom, p.gamma) == (F(19, 12), F(25, 684))
        for s in SIGNS:
            (e11, e12), (e21, e22) = p.tables[s]
            assert _all_fractions(e11, e12, e21, e22)
            # B1 z1 + B2 z2 maps to alpha (B1 z1 + B2 z2) times the base, with no rounding to hide behind.
            assert (p.B1 * e11 + p.B2 * e21, p.B1 * e12 + p.B2 * e22) == (p.alpha * p.B1, p.alpha * p.B2)

    def test_conjugated_det_line_and_factors(self):
        c = ConjugatedParams(F(1, 2), F(1, 3), 1, 1, F(1, 2), F(1, 3), 2)
        assert (c.det, c.line) == (F(11, 6), (F(11, 3), 0))
        for s in SIGNS:
            (f11, f12), (f21, f22) = c.factors[s]
            assert _all_fractions(c.det, *c.line, f11, f12, f21, f22)
            # The common-zero constraint holds exactly, not within a tolerance.
            assert conda_residual(k1_coeff_table(c, s)) == 0

    @pytest.mark.parametrize("build", [
        lambda z: YParams(z, z, z, 1, 2, 4),
        lambda z: QuadraticFamilyParams(z, z, 1).y_params(),
        lambda z: CubicFamilyParams(z, z, 1).y_params(),
        lambda z: GeneralizedParams(z, z, 1, z, 1, 1, 0, 1).y_params(),
        lambda z: ConjugatedParams(z, z, 1, z, 0, 0, 1).y_params(),
    ], ids=["y", "quad-family", "cubic-family", "generalized", "conjugated"])
    def test_mpc_fields_stay_mpc(self, build):
        yp = build(mpmath.mpc(1, 2))
        assert {type(yp.alpha), type(yp.beta), type(yp.gamma)} == {mpmath.mpc}


class TestK1Table:
    def test_requires_k_one(self):
        with pytest.raises(ValueError):
            k1_coeff_table(ConjugatedParams(1, 1, 2, 1, 0, 0, 1), PLUS)

    def test_probe_points_match_map(self):
        rng = random.Random("stepmaps:k1")
        for _ in range(40):
            A = [draw_complex(rng) for _ in range(4)]
            try:
                c = ConjugatedParams(draw_complex(rng), draw_complex(rng), 1, *A)
            except ConfigError:
                continue
            s = rng.choice(SIGNS)
            t = k1_coeff_table(c, s)
            for _ in range(5):
                z = draw_pair(rng)
                via_table = (
                    t.a11 * z[0] ** 2 + t.a12 * z[1] ** 2 + t.a13 * z[0] * z[1],
                    t.a21 * z[0] ** 2 + t.a22 * z[1] ** 2 + t.a23 * z[0] * z[1],
                )
                assert pair_residual(via_table, step_conjugated(c, s, z)) <= 1e-9


def _reference_factors(c, s):
    """The linear factors with each theta_{k;n1,n2;n} = (-1)**k n1 a + (-1)**n n2 s b formed on its own."""
    coeffs = []
    for n in (1, 2):
        t2 = (-1 if c.k % 2 else 1) * 2 * c.a + (-1 if n % 2 else 1) * n * s * c.b
        t1 = (-1 if c.k % 2 else 1) * 1 * c.a + (-1 if (n + 1) % 2 else 1) * n * s * c.b
        coeffs.append((t2 * c.A22 - t1 * c.A21, t1 * c.A11 - t2 * c.A12))
    return coeffs


def _reference_step(c, s, z):
    z1, z2 = z
    base_lin = (2 * c.A22 - c.A21) * z1 + (c.A11 - 2 * c.A12) * z2
    (f11, f12), (f21, f22) = _reference_factors(c, s)
    f1 = f11 * z1 + f12 * z2
    f2 = f21 * z1 + f22 * z2
    prefactor = cpow(c.det, -(c.k + 1)) * cpow(base_lin, c.k)
    return (prefactor * (c.A11 * f1 + c.A12 * f2), prefactor * (c.A21 * f1 + c.A22 * f2))


def _reference_k1_table(c, s):
    lambda1 = c.A11 - 2 * c.A12
    lambda2 = 2 * c.A22 - c.A21
    (f11, f12), (f21, f22) = _reference_factors(c, s)
    eta11 = c.A11 * f11 + c.A12 * f21
    eta12 = c.A11 * f12 + c.A12 * f22
    eta21 = c.A21 * f11 + c.A22 * f21
    eta22 = c.A21 * f12 + c.A22 * f22
    d2 = 1 / (c.det * c.det)
    return K1CoeffTable(
        d2 * lambda2 * eta11, d2 * lambda1 * eta12, d2 * (lambda2 * eta12 + lambda1 * eta11),
        d2 * lambda2 * eta21, d2 * lambda1 * eta22, d2 * (lambda2 * eta22 + lambda1 * eta21),
    )


def _outcome(f, *args):
    """The repr of ``f(*args)``, or the type and message of what it raised."""
    try:
        return repr(f(*args))
    except (SolvmapsError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


#: Unit-scale parts, signed zeros, and parts whose products overflow or underflow.
_parts = (
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 2.0, -2.0]) | st.floats(-3, 3)
    | st.floats(1e150, 1e300) | st.floats(-1e-300, 1e-300)
)
_complexes = st.builds(complex, _parts, _parts)


class TestStoredFactors:
    @given(st.lists(_complexes, min_size=6, max_size=6), st.integers(-3, 3), st.sampled_from(SIGNS),
           st.tuples(_complexes, _complexes))
    # A21 = 2 A22 puts a signed zero in the common-zero line and, at b = 0, in a factor.
    @example(values=[1, 0, 1, 0, 2, 1], k=1, s=PLUS, z=(1, 1))
    @example(values=[1, 0, 1, 0, -2, -1], k=1, s=MINUS, z=(1, -1))
    def test_step_and_table_keep_the_per_step_bits(self, values, k, s, z):
        a, b, *A = values
        try:
            c = ConjugatedParams(a, b, k, *A)
        except ConfigError:
            assume(False)
        assert _outcome(step_conjugated, c, s, z) == _outcome(_reference_step, c, s, z)
        if k == 1:
            assert _outcome(k1_coeff_table, c, s) == _outcome(_reference_k1_table, c, s)

    def test_factors_are_built_once_per_sign(self, monkeypatch, capsys):
        calls = []

        def counted(c, s):
            calls.append(s)
            return original(c, s)

        original = stepmaps._conjugated_f_coeffs
        monkeypatch.setattr(stepmaps, "_conjugated_f_coeffs", counted)
        params = {"a": 0.5, "b": 0.25, "k": -1, "A11": 1, "A12": 0.2, "A21": 0.1, "A22": 1}
        argv = ["iterate", "--system", "conjugated", "--params", json.dumps(params),
                "--x0", "[1, 0.5]", "--steps", "200", "--signs", "+-" * 100]
        assert main(argv) == 0
        assert capsys.readouterr().out.count("\n") == 202
        assert sorted(calls) == [MINUS, PLUS]


class TestConda:
    def test_quadratic_family_expansion_table(self):
        # Expanding the a = b = k = 1 quadratic family at s = + gives
        # x1' = -2 x2**2 - 2 x1 x2 and x2' = -2 x1**2 - 2 x1 x2.
        table = K1CoeffTable(0, -2, -2, -2, 0, -2)
        assert conda_residual(table) == 0

    def test_identity_like_positive_control(self):
        table = K1CoeffTable(1, 0, 0, 0, 1, 0)
        assert conda_residual(table) == 1

    def test_generated_tables_satisfy_constraint(self):
        rng = random.Random("stepmaps:conda")
        for _ in range(100):
            A = [draw_complex(rng) for _ in range(4)]
            try:
                c = ConjugatedParams(draw_complex(rng), draw_complex(rng), 1, *A)
            except ConfigError:
                continue
            t = k1_coeff_table(c, rng.choice(SIGNS))
            scale = max(abs(c) for c in t)
            assert abs(conda_residual(t)) <= 1e-9 * max(scale, 1e-6) ** 4


class TestYZ:
    def test_forward_vieta_reduction(self):
        p = GeneralizedParams(1, 1, -1, -1, 0, 0, 1, 1)
        got = yz_forward(p, (2, 1))
        assert (got.y1, got.y2) == (-3, 2)

    def test_forward_homogeneity(self):
        p = GeneralizedParams(1, 1, -1, -1, 0, 0, 1, 1)
        assert yz_forward(p, (0, 0)) == YState(0, 0)

    def test_invert_worked_example(self):
        p = GeneralizedParams(1, 1, -1, -1, 0, 0, 1, 1)
        got = {yz_invert(p, YState(-3, 2), b) for b in SIGNS}
        for want in ((2 + 0j, 1 + 0j), (1 + 0j, 2 + 0j)):
            assert any(pair_residual(g, want) <= 1e-12 for g in got)

    def test_round_trips(self):
        rng = random.Random("stepmaps:yz")
        for _ in range(100):
            try:
                p = GeneralizedParams(
                    draw_complex(rng), draw_complex(rng),
                    draw_complex(rng), draw_complex(rng),
                    draw_complex(rng), draw_complex(rng), draw_complex(rng),
                    1,
                )
            except ValueError:
                continue
            z = draw_pair(rng)
            y = yz_forward(p, z)
            for b in SIGNS:
                back = yz_forward(p, yz_invert(p, y, b))
                assert residual(back.y1, y.y1) <= 1e-8
                assert residual(back.y2, y.y2) <= 1e-8
            assert min(pair_residual(yz_invert(p, y, b), z) for b in SIGNS) <= 1e-8
