"""Complex-scalar primitives: integer powers, branch roots, comparisons."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from solvmaps.errors import NumericError, NumericOverflowError, ZeroToNegativePowerError
from solvmaps.numeric import (
    MINUS,
    PLUS,
    Powers,
    approx_eq,
    complex_from_obj,
    cpow,
    pair_eq_unordered,
    principal_sqrt,
    sqrt_branch,
)
from solvmaps.verify import residual

finite_component = st.floats(-2.0, 2.0, allow_nan=False)
complexes = st.builds(complex, finite_component, finite_component)
nonzero_complexes = complexes.filter(lambda z: abs(z) > 0.1)
small_exponents = st.integers(-8, 8)


class TestCpow:
    def test_real_integer_power(self):
        assert cpow(2 + 0j, 3) == 8 + 0j

    def test_imaginary_unit_squared(self):
        assert cpow(1j, 2) == -1 + 0j

    def test_negative_base_even_exponent_parity(self):
        assert cpow(-2 + 0j, -2) == 0.25 + 0j
        assert cpow(-2 + 0j, -2) == cpow(2 + 0j, -2)

    def test_zero_to_zero_is_one(self):
        assert cpow(0j, 0) == 1 + 0j

    def test_zero_to_positive_is_zero(self):
        assert cpow(0j, 5) == 0j

    def test_zero_to_negative_raises(self):
        with pytest.raises(ZeroToNegativePowerError):
            cpow(0j, -1)

    def test_overflow_is_detected(self):
        with pytest.raises(NumericOverflowError):
            cpow(1e200 + 0j, 5)

    def test_underflow_reciprocal_is_overflow(self):
        with pytest.raises(NumericOverflowError):
            cpow(1e-200 + 0j, -5)

    def test_error_carries_step_index(self):
        with pytest.raises(ZeroToNegativePowerError, match="at step 3"):
            cpow(0j, -1, step=3)

    @given(z=nonzero_complexes, m=small_exponents, n=small_exponents)
    def test_exponent_additivity(self, z, m, n):
        combined = cpow(z, m + n)
        split = cpow(z, m) * cpow(z, n)
        assert residual(combined, split) <= 1e-12

    @given(z=nonzero_complexes, s=st.integers(0, 7))
    def test_negated_base_parity(self, z, s):
        if s % 2:
            assert residual(cpow(-z, s), -cpow(z, s)) <= 1e-12
        else:
            assert residual(cpow(-z, s), cpow(z, s)) <= 1e-12


def _outcome(fn, *args):
    """A power's exact bits (signed zeros and NaN included), or its error."""
    try:
        z = fn(*args)
    except NumericError as exc:
        return type(exc), exc.reason
    return z.real.hex(), z.imag.hex()


any_component = st.one_of(
    st.floats(),  # includes signed zeros, subnormals, huge values, inf and nan
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]),
)
any_complexes = st.builds(complex, any_component, any_component)
exponents = st.one_of(
    st.integers(-70, 70),
    st.integers(-(2**1100), 2**1100),  # more than 1000 bits
    st.builds(lambda b, c: 2**b - c, st.integers(990, 1030), st.integers(0, 3000)),
)


class TestPowers:
    """``Powers(z).pow(n)`` is ``cpow(z, n)`` bit for bit, errors included."""

    @given(z=any_complexes, ns=st.lists(exponents, min_size=1, max_size=8))
    def test_fresh_and_reused_ladders_match_cpow(self, z, ns):
        reused = Powers(z)
        # |n| plus a new top bit reuses the product for |n|; the reversed
        # second pass hits the memo.
        grown = [abs(n) + (1 << abs(n).bit_length()) for n in ns]
        for n in ns + grown + ns[::-1]:
            want = _outcome(cpow, z, n)
            assert _outcome(Powers(z).pow, n) == want
            assert _outcome(reused.pow, n) == want

    @pytest.mark.parametrize("z", [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, -1, -2, 2**1001 + 1, -(2**1001)])
    def test_zero_base(self, z, n):
        assert _outcome(Powers(z).pow, n) == _outcome(cpow, z, n)

    @pytest.mark.parametrize("z", [1 + 1j, 0j, float("inf"), complex(float("nan"), 0)])
    def test_zero_exponent_is_one(self, z):
        assert _outcome(Powers(z).pow, 0) == _outcome(cpow, z, 0) == ((1.0).hex(), (0.0).hex())

    def test_overflow_and_underflow_raise_without_step(self):
        """A power does not know its step; the orbit loop that catches the error sets it."""
        cases = [
            (1e200 + 0j, 5),
            (1e150 + 0j, -3),  # |z|**3 is inf + 0j, whose reciprocal would be a finite 0
            (1e-200 + 0j, -5),
            (1.5 + 0j, 2**1000),
            (1.5 + 0j, -(2**1000)),
        ]
        for z, n in cases:
            with pytest.raises(NumericOverflowError) as exc:
                Powers(z).pow(n)
            assert exc.value.step is None
            assert _outcome(Powers(z).pow, n) == _outcome(cpow, z, n)

    def test_ladder_grows_to_the_largest_bit_length(self):
        powers = Powers(1j)
        powers.pow(5)
        assert len(powers) == 3
        powers.pow(-(2**40))
        powers.pow(2**20 + 1)
        assert len(powers) == 41


class TestSqrtBranch:
    def test_principal_branch_of_four(self):
        assert sqrt_branch(4 + 0j, PLUS) == 2 + 0j
        assert sqrt_branch(4 + 0j, MINUS) == -2 + 0j

    def test_two_i(self):
        assert abs(sqrt_branch(2j, PLUS) - (1 + 1j)) < 1e-15

    def test_principal_root_of_negative_real(self):
        # Tie on the real part resolves to non-negative imaginary part.
        assert principal_sqrt(-4 + 0j) == 2j

    @given(z=complexes)
    def test_branches_are_exact_negations(self, z):
        assert sqrt_branch(z, PLUS) == -sqrt_branch(z, MINUS)

    @given(z=complexes)
    def test_square_recovers_input(self, z):
        for s in (PLUS, MINUS):
            assert residual(sqrt_branch(z, s) ** 2, z) <= 1e-12


class TestComparisons:
    def test_approx_eq_identical(self):
        assert approx_eq(1 + 0j, 1 + 0j, rel=0, abs_tol=0)

    def test_approx_eq_within_rel(self):
        assert approx_eq(1 + 0j, 1 + 1e-12 + 0j, rel=1e-9, abs_tol=0)

    def test_approx_eq_far_apart(self):
        assert not approx_eq(1 + 0j, 2 + 0j, rel=1e-9, abs_tol=0)

    def test_pair_eq_unordered_label_swap(self):
        assert pair_eq_unordered((1 + 0j, 2 + 0j), (2 + 0j, 1 + 0j))

    def test_pair_eq_unordered_double_value(self):
        assert pair_eq_unordered((1 + 0j, 1 + 0j), (1 + 0j, 1 + 0j))

    def test_pair_eq_unordered_mismatch(self):
        assert not pair_eq_unordered((1 + 0j, 2 + 0j), (1 + 0j, 3 + 0j))

    @given(a=complexes, b=complexes)
    def test_pair_eq_unordered_symmetric(self, a, b):
        assert pair_eq_unordered((a, b), (b, a))
        assert pair_eq_unordered((a, b), (a, b))


class TestLiterals:
    @pytest.mark.parametrize(
        "obj, want",
        [
            (1.5, 1.5 + 0j),
            ([1, 2], 1 + 2j),
            ("2i", 2j),
            ("1+2i", 1 + 2j),
            ("1-2j", 1 - 2j),
        ],
    )
    def test_accepted_literals(self, obj, want):
        assert complex_from_obj(obj) == want

    @pytest.mark.parametrize("obj", [True, "nope", [1], {}])
    def test_rejected_literals(self, obj):
        with pytest.raises(ValueError):
            complex_from_obj(obj)

    def test_bool_pair_components_rejected(self):
        # JSON true/false inside an [re, im] pair are not read as 1 and 0.
        for obj in ([True, 0], [0, False], [False, True]):
            with pytest.raises(ValueError):
                complex_from_obj(obj)
