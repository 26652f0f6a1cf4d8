"""Complex-scalar primitives: integer powers, branch roots, comparisons."""

import cmath

import pytest
from hypothesis import given
from hypothesis import strategies as st

from solvmaps.errors import NumericError, NumericOverflowError, ZeroToNegativePowerError
from solvmaps.numeric import (
    MINUS,
    PLUS,
    Powers,
    approx_eq,
    cpow,
    pair_eq_ordered,
    pair_eq_unordered,
    principal_sqrt,
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
        assert len(powers._ladder) == 3
        powers.pow(-(2**40))
        powers.pow(2**20 + 1)
        assert len(powers._ladder) == 41


def _square_and_multiply(z, n):
    """The reference power: the ladder's entries at the set bits of |n|, low bit first onto 1+0j."""
    z = complex(z)
    if n == 0:
        return 1 + 0j
    if z == 0:
        if n < 0:
            raise ZeroToNegativePowerError("zero base raised to a negative power")
        return 0j
    m, result, base = abs(n), 1 + 0j, z
    while m:
        if m & 1:
            result *= base
        m >>= 1
        if m:
            base *= base
    if n < 0:
        if result == 0:
            raise NumericOverflowError("reciprocal of underflowed power")
        if cmath.isfinite(result):
            result = 1 / result
    if not cmath.isfinite(result):
        raise NumericOverflowError("result overflowed to a non-finite value")
    return result


#: Signed zeros, subnormals, and moduli near the square and the full range limits.
EDGE_PARTS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-308, 1e-154, 1.5e-154,
    1.0, -1.0, 0.5, 1e154, -1.4e154, 1e308, -1.7976931348623157e308,
]
edge_components = st.one_of(
    st.sampled_from(EDGE_PARTS),
    st.floats(),
    st.floats(1e150, 1e160) | st.floats(1e-160, 1e-150),
    st.floats(1e300, 1.7976931348623157e308) | st.floats(0, 1e-300),
).flatmap(lambda x: st.sampled_from([x, -x]))
SMALL_POWERS = range(-6, 7)


class TestSmallPowers:
    """``cpow`` and ``Powers`` for |n| <= 6 against the square-and-multiply reference."""

    def _check(self, z):
        reused = Powers(z)
        for n in [*SMALL_POWERS, *SMALL_POWERS]:  # the second pass reads the cache or re-forms
            want = _outcome(_square_and_multiply, z, n)
            assert _outcome(cpow, z, n) == want, (z, n)
            assert _outcome(Powers(z).pow, n) == want, (z, n)
            assert _outcome(reused.pow, n) == want, (z, n)

    def test_edge_grid(self):
        for real in EDGE_PARTS:
            for imag in EDGE_PARTS:
                self._check(complex(real, imag))

    @given(real=edge_components, imag=edge_components)
    def test_drawn(self, real, imag):
        self._check(complex(real, imag))

    def test_overflowing_product_raises_again(self):
        powers = Powers(1e200 + 1e200j)
        for _ in range(2):
            with pytest.raises(NumericOverflowError, match="result overflowed to a non-finite value"):
                powers.pow(2)
            with pytest.raises(NumericOverflowError, match="result overflowed to a non-finite value"):
                powers.pow(-3)
        assert powers.pow(1) == 1e200 + 1e200j


class TestSqrtBranch:
    def test_principal_branch_of_four(self):
        assert PLUS * principal_sqrt(4 + 0j) == 2 + 0j
        assert MINUS * principal_sqrt(4 + 0j) == -2 + 0j

    def test_two_i(self):
        assert abs(principal_sqrt(2j) - (1 + 1j)) < 1e-15

    def test_principal_root_of_negative_real(self):
        # Tie on the real part resolves to non-negative imaginary part.
        assert principal_sqrt(-4 + 0j) == 2j

    def test_tie_is_pinned_by_its_signed_zeros(self):
        # cmath.sqrt never returns a negative real part; only the tie flips.
        assert repr(principal_sqrt(complex(-4, -0.0))) == "(-0+2j)"
        assert repr(principal_sqrt(complex(-0.0, -0.0))) == "-0j"

    @given(z=complexes)
    def test_branches_are_exact_negations(self, z):
        assert PLUS * principal_sqrt(z) == -(MINUS * principal_sqrt(z))

    @given(z=complexes)
    def test_square_recovers_input(self, z):
        for s in (PLUS, MINUS):
            assert residual((s * principal_sqrt(z)) ** 2, z) <= 1e-12


class TestComparisons:
    def test_approx_eq_identical(self):
        assert approx_eq(1 + 0j, 1 + 0j)
        assert approx_eq(0j, 0j)

    def test_approx_eq_within_rel(self):
        # One rule for every caller: |a-b| <= 1e-12 + 1e-8 max(|a|, |b|).
        assert approx_eq(1 + 0j, 1 + 5e-9 + 0j)
        assert not approx_eq(1 + 0j, 1 + 2e-8 + 0j)

    def test_approx_eq_within_abs(self):
        assert approx_eq(0j, 5e-13 + 0j)
        assert not approx_eq(0j, 2e-12 + 0j)

    def test_approx_eq_far_apart(self):
        assert not approx_eq(1 + 0j, 2 + 0j)

    def test_pair_eq_ordered_needs_both_components(self):
        assert pair_eq_ordered((1 + 0j, 2 + 0j), (1 + 0j, 2 + 0j))
        assert not pair_eq_ordered((1 + 0j, 2 + 0j), (1 + 0j, 3 + 0j))
        assert not pair_eq_ordered((1 + 0j, 2 + 0j), (2 + 0j, 1 + 0j))

    def test_pair_eq_unordered_label_swap(self):
        assert pair_eq_unordered((1 + 0j, 2 + 0j), (2 + 0j, 1 + 0j))

    def test_pair_eq_unordered_double_value(self):
        assert pair_eq_unordered((1 + 0j, 1 + 0j), (1 + 0j, 1 + 0j))

    def test_pair_eq_unordered_mismatch(self):
        assert not pair_eq_unordered((1 + 0j, 2 + 0j), (1 + 0j, 3 + 0j))
        # One component matches across the swap, the other nowhere.
        assert not pair_eq_unordered((1 + 0j, 2 + 0j), (2 + 0j, 3 + 0j))

    @given(a=complexes, b=complexes)
    def test_pair_eq_unordered_symmetric(self, a, b):
        assert pair_eq_unordered((a, b), (b, a))
        assert pair_eq_unordered((a, b), (a, b))

