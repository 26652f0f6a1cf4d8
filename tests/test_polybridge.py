"""Zero/coefficient bridges: quadratic Vieta pair and cubic double root."""

import random

import pytest

from solvmaps import (
    DistinctZeroPair,
    MINUS,
    PLUS,
    SIGNS,
    YState,
    cubic_from_zeros,
    cubic_zeros_branch,
    pair_eq_unordered,
    quad_from_zeros,
    quad_zeros,
    y3_from_y12,
)
from solvmaps.polybridge import cubic_zeros_printed
from solvmaps.verify import draw_complex, draw_pair, residual


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
        got = quad_zeros(YState(*coeffs))
        assert pair_eq_unordered(got, want)

    def test_zero_polynomial(self):
        assert quad_zeros(YState(0, 0)) == (0j, 0j)

    def test_round_trips(self):
        rng = random.Random("polybridge:quad")
        for _ in range(200):
            zeros = draw_pair(rng)
            m = quad_from_zeros(zeros)
            back = quad_zeros(m)
            assert pair_eq_unordered(back, zeros)
            m2 = quad_from_zeros(back)
            assert residual(m2.y1, m.y1) <= 1e-9
            assert residual(m2.y2, m.y2) <= 1e-9

    def test_cancellation_prone_coefficients(self):
        # Roots of very different magnitude: the naive formula loses the
        # small root to cancellation, the companion-root form must not.
        m = quad_from_zeros((1e8 + 0j, 1e-8 + 0j))
        got = quad_zeros(m)
        small = min(got, key=abs)
        assert residual(small, 1e-8 + 0j) <= 1e-9


class TestCubicBridge:
    @pytest.mark.parametrize(
        "pair, want",
        [
            ((1, 0), (-2, 1, 0)),
            ((1, 1), (-3, 3, -1)),
            ((0, 2.5), (-2.5, 0, 0)),
        ],
    )
    def test_from_zeros(self, pair, want):
        m = cubic_from_zeros(DistinctZeroPair(*pair))
        assert max(
            residual(m.y1, want[0]), residual(m.y2, want[1]), residual(m.y3, want[2])
        ) <= 1e-15

    def test_branches_worked_example(self):
        got = {cubic_zeros_branch(-2, 1, s) for s in SIGNS}
        for want in ((1 + 0j, 0j), (1 / 3 + 0j, 4 / 3 + 0j)):
            assert any(
                residual(g.x1, want[0]) <= 1e-12 and residual(g.x2, want[1]) <= 1e-12
                for g in got
            )

    def test_branches_second_example(self):
        got = {cubic_zeros_branch(12, 36, s) for s in SIGNS}
        for want in ((-2 + 0j, -8 + 0j), (-6 + 0j, 0j)):
            assert any(
                residual(g.x1, want[0]) <= 1e-12 and residual(g.x2, want[1]) <= 1e-12
                for g in got
            )

    def test_triple_root_collapses_branches(self):
        for s in SIGNS:
            got = cubic_zeros_branch(-3, 3, s)
            assert residual(got.x1, 1 + 0j) <= 1e-12
            assert residual(got.x2, 1 + 0j) <= 1e-12

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
                y3 = cubic_from_zeros(cubic_zeros_branch(y1, y2, b)).y3
                matches = [s for s in SIGNS if residual(y3, y3_from_y12(y1, y2, s)) <= 1e-9]
                assert matches
                used.add(matches[0])

    def test_polynomial_identity(self):
        rng = random.Random("polybridge:identity")
        for _ in range(40):
            pair = DistinctZeroPair(draw_complex(rng), draw_complex(rng))
            m = cubic_from_zeros(pair)
            for _ in range(5):
                z = draw_complex(rng)
                expanded = (z - pair.x1) ** 2 * (z - pair.x2)
                monic = z**3 + m.y1 * z**2 + m.y2 * z + m.y3
                assert residual(expanded, monic) <= 1e-9


class TestPrintedVariant:
    def test_printed_prefactor_fails_round_trip(self):
        # The uncorrected 1/2 prefactor misses the true zeros of (-2, 1).
        worst = float("inf")
        for s in SIGNS:
            m = cubic_from_zeros(cubic_zeros_printed(-2, 1, s))
            worst = min(worst, max(residual(m.y1, -2 + 0j), residual(m.y2, 1 + 0j)))
        assert worst > 0.1
