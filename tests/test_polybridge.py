"""Zero/coefficient bridges: quadratic Vieta pair and cubic double root."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solvmaps.numeric import MINUS, PLUS, SIGNS, cpow, principal_sqrt
from solvmaps.polybridge import (
    cubic_from_zeros,
    cubic_zeros_branch,
    cubic_zeros_from_root,
    cubic_zeros_printed,
    quad_from_zeros,
    quad_zeros,
    quad_zeros_from_root,
)
from solvmaps.solver import _root_invert
from solvmaps.verify import draw_complex, draw_pair, residual
from solvmaps.ysystem import YState


def y3_from_y12(y1: complex, y2: complex, s: int) -> complex:
    """The paper's dependent cubic coefficient y3 in terms of y1 and y2.

    y3 = (-2 y1**3 + 9 y1 y2 + 2 S (y1**2 - 3 y2)**(3/2)) / 27, with the
    half-integer power evaluated as the cubed branch square root.  The
    package never needs y3, so the formula lives here, beside its checks.
    """
    w = s * principal_sqrt(y1 * y1 - 3 * y2)
    return (-2 * cpow(y1, 3) + 9 * y1 * y2 + 2 * cpow(w, 3)) / 27


def close_unordered(got, want) -> bool:
    """Equal as label-free pairs, each zero within ``1e-12 + 1e-9 * max(|a|, |b|)``."""

    def close(a, b):
        return abs(a - b) <= 1e-12 + 1e-9 * max(abs(a), abs(b))

    return any(close(got[0], w0) and close(got[1], w1) for w0, w1 in (want, want[::-1]))


class TestQuadBridge:
    @pytest.mark.parametrize(
        "zeros, want",
        [
            ((1, 2), (-3, 2)),
            ((1, 1), (-2, 1)),
            ((1j, -1j), (0, 1)),
        ],
    )
    def test_from_zeros(self, zeros, want):
        m = quad_from_zeros(zeros)
        assert (m.y1, m.y2) == want

    @pytest.mark.parametrize(
        "coeffs, want",
        [
            ((-3, 2), (1, 2)),
            ((0, -1), (1, -1)),
            ((-2, 1), (1, 1)),
        ],
    )
    def test_zeros(self, coeffs, want):
        got = quad_zeros(*coeffs, PLUS)
        assert set(got) == set(want)

    def test_zero_polynomial(self):
        assert quad_zeros(0, 0, PLUS) == (0j, 0j)

    def test_tie_keeps_the_principal_root(self):
        # y1 = 0: both zeros have modulus 2, and the principal root's zero comes first at PLUS.
        assert repr(quad_zeros(0j, -4 + 0j, PLUS)) == "((2+0j), (-2+0j))"

    def test_round_trips(self):
        rng = random.Random("polybridge:quad")
        for _ in range(200):
            zeros = draw_pair(rng)
            m = quad_from_zeros(zeros)
            back = quad_zeros(*m, PLUS)
            assert close_unordered(back, zeros)
            m2 = quad_from_zeros(back)
            assert residual(m2.y1, m.y1) <= 1e-9
            assert residual(m2.y2, m.y2) <= 1e-9

    def test_cancellation_prone_coefficients(self):
        # Roots of very different magnitude: the naive formula loses the
        # small root to cancellation, the companion-root form must not.
        m = quad_from_zeros((1e8 + 0j, 1e-8 + 0j))
        got = quad_zeros(*m, PLUS)
        small = min(got, key=abs)
        assert residual(small, 1e-8 + 0j) <= 1e-9


class TestCubicBridge:
    @pytest.mark.parametrize(
        "pair, want",
        [
            ((1, 0), (-2, 1)),
            ((1, 1), (-3, 3)),
            ((0, 2.5), (-2.5, 0)),
        ],
    )
    def test_from_zeros(self, pair, want):
        m = cubic_from_zeros(pair)
        assert max(residual(m.y1, want[0]), residual(m.y2, want[1])) <= 1e-15

    def test_branches_worked_example(self):
        got = {cubic_zeros_branch(-2, 1, s) for s in SIGNS}
        for want in ((1 + 0j, 0j), (1 / 3 + 0j, 4 / 3 + 0j)):
            assert any(
                residual(g[0], want[0]) <= 1e-12 and residual(g[1], want[1]) <= 1e-12
                for g in got
            )

    def test_branches_second_example(self):
        got = {cubic_zeros_branch(12, 36, s) for s in SIGNS}
        for want in ((-2 + 0j, -8 + 0j), (-6 + 0j, 0j)):
            assert any(
                residual(g[0], want[0]) <= 1e-12 and residual(g[1], want[1]) <= 1e-12
                for g in got
            )

    def test_triple_root_collapses_branches(self):
        for s in SIGNS:
            got = cubic_zeros_branch(-3, 3, s)
            assert residual(got[0], 1 + 0j) <= 1e-12
            assert residual(got[1], 1 + 0j) <= 1e-12

    def test_round_trips_both_branches(self):
        rng = random.Random("polybridge:cubic")
        for _ in range(200):
            y1, y2 = draw_complex(rng), draw_complex(rng)
            for b in SIGNS:
                m = cubic_from_zeros(cubic_zeros_branch(y1, y2, b))
                assert residual(m.y1, y1) <= 1e-9
                assert residual(m.y2, y2) <= 1e-9

    def test_double_root_relation(self):
        # x1 of each branch solves 3 x1**2 + 2 y1 x1 + y2 = 0.
        rng = random.Random("polybridge:relation")
        for _ in range(50):
            y1, y2 = draw_complex(rng), draw_complex(rng)
            for b in SIGNS:
                x1, _ = cubic_zeros_branch(y1, y2, b)
                assert abs(3 * x1 * x1 + 2 * y1 * x1 + y2) <= 1e-9


class TestY3:
    def test_worked_values(self):
        got = {y3_from_y12(-2, 1, s) for s in SIGNS}
        assert any(abs(v) <= 1e-12 for v in got)
        assert any(abs(v + 4 / 27) <= 1e-12 for v in got)

    def test_triple_root_value(self):
        for s in SIGNS:
            assert residual(y3_from_y12(-3, 3, s), -1 + 0j) <= 1e-12

    def test_branch_pairing(self):
        # For each (y1, y2) some fixed Branch -> Sign mapping aligns y3 with
        # the expanded branch zeros; the mapping may differ between points.
        rng = random.Random("polybridge:pairing")
        for _ in range(100):
            y1, y2 = draw_complex(rng), draw_complex(rng)
            used = set()
            for b in SIGNS:
                x1, x2 = cubic_zeros_branch(y1, y2, b)
                y3 = -(x1 * x1 * x2)
                matches = [s for s in SIGNS if residual(y3, y3_from_y12(y1, y2, s)) <= 1e-9]
                assert matches
                used.add(matches[0])

    def test_polynomial_identity(self):
        rng = random.Random("polybridge:identity")
        for _ in range(40):
            pair = (draw_complex(rng), draw_complex(rng))
            m = cubic_from_zeros(pair)
            for _ in range(5):
                z = draw_complex(rng)
                expanded = (z - pair[0]) ** 2 * (z - pair[1])
                monic = z**3 + m.y1 * z**2 + m.y2 * z - pair[0]**2 * pair[1]
                assert residual(expanded, monic) <= 1e-9


class TestPrintedVariant:
    def test_printed_prefactor_fails_round_trip(self):
        # The uncorrected 1/2 prefactor misses the true zeros of (-2, 1).
        worst = float("inf")
        for s in SIGNS:
            m = cubic_from_zeros(cubic_zeros_printed(-2, 1, s))
            worst = min(worst, max(residual(m.y1, -2 + 0j), residual(m.y2, 1 + 0j)))
        assert worst > 0.1


# --- both branches in one call -------------------------------------------------

#: Components that reach the edge cases: signed zeros, small integers (so
#: moduli tie), a subnormal, and magnitudes far apart.
EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 0.5, 5e-324, 1e-160, 1e150]
components = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-1e150, 1e150))
complexes = st.builds(complex, components, components)


def _spelled(*pairs) -> str:
    """The pairs' exact bits, signed zeros included."""
    return repr([tuple(pair) for pair in pairs])


@pytest.mark.parametrize("c, from_root, branch", [
    (4, quad_zeros_from_root, quad_zeros),
    (3, cubic_zeros_from_root, cubic_zeros_branch),
], ids=["quad", "cubic"])
@settings(derandomize=True, max_examples=400, deadline=None)
@given(y1=complexes, r=complexes, y2=complexes)
@example(y1=0j, r=1 + 1j, y2=2 + 0j)  # y1 = 0: the two quadratic sums tie in modulus
@example(y1=2 + 0j, r=2j, y2=3 - 1j)  # a tie with y1 != 0
@example(y1=1 + 0j, r=0j, y2=1 + 0j)  # r = 0: both cubic heads have |head| = |y1|
@example(y1=1 + 0j, r=2 + 0j, y2=-1 + 0j)  # |head| = |y1| on the + branch only
@example(y1=complex(-0.0, -0.0), r=complex(0.0, -0.0), y2=complex(-0.0, 0.0))  # signed zeros
@example(y1=complex(3.0, -0.0), r=complex(-0.0, 0.0), y2=3 + 0j)  # a triple root, signed zeros
def test_both_branches_in_one_call_equal_two_single_branch_calls(c, from_root, branch, y1, r, y2):
    # The square-root solvers take one root for both branches.  The draws of
    # r (a root of the family solvers' D) do not enter this check.
    entry = _root_invert(YState(y1, y2), c, from_root)
    assert _spelled(entry.plus, entry.minus) == _spelled(branch(y1, y2, PLUS), branch(y1, y2, MINUS))
