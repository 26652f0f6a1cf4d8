"""Verification harness: enumeration oracle, suites, report determinism."""

import json
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from solvmaps import verify
from solvmaps.errors import ConfigError, NumericOverflowError
from solvmaps.solver import solve_cubic_family, solve_quadratic_family
from solvmaps.stepmaps import (
    CubicFamilyParams,
    QuadraticFamilyParams,
    step_cubic_family,
    step_quadratic_family,
)
from solvmaps.verify import (
    ENUMERATION_CAP,
    SUITE_NAMES,
    check_branch_collapse,
    draw_complex,
    enumerate_sign_orbits,
    pair_residual,
    pair_residual_unordered,
    residual,
    run_verify,
)


class TestEnumeration:
    def test_worked_cubic_level(self):
        p = CubicFamilyParams(1, 1, 1)
        step = lambda s, x: step_cubic_family(p, s, x)
        levels, failures = enumerate_sign_orbits(step, (1, 0), 1)
        assert failures == 0
        assert len(levels[1]) == 2
        for want in ((-6 + 0j, 0j), (-2 + 0j, -8 + 0j)):
            assert min(pair_residual(s, want) for s in levels[1]) <= 1e-12

    def test_quadratic_family_single_unordered_state(self):
        p = QuadraticFamilyParams(0.8, 0.6, 1)
        step = lambda s, x: step_quadratic_family(p, s, x)
        levels, _ = enumerate_sign_orbits(step, (0.5, 1.5), 4, unordered=True)
        assert all(len(states) == 1 for states in levels)

    def test_b_zero_cubic_single_state(self):
        p = CubicFamilyParams(0.9, 0, 1)
        step = lambda s, x: step_cubic_family(p, s, x)
        levels, _ = enumerate_sign_orbits(step, (0.5, -0.25), 4)
        assert all(len(states) == 1 for states in levels)

    def test_cap_enforced(self):
        p = CubicFamilyParams(1, 1, 1)
        step = lambda s, x: step_cubic_family(p, s, x)
        levels, _ = enumerate_sign_orbits(step, (1, 0), ENUMERATION_CAP)
        assert len(levels) == ENUMERATION_CAP + 1
        with pytest.raises(ValueError):
            enumerate_sign_orbits(step, (1, 0), ENUMERATION_CAP + 1)

    def test_failures_counted_not_fatal(self):
        # k = -1 from the origin raises on every expansion.
        p = CubicFamilyParams(1, 1, -1)
        step = lambda s, x: step_cubic_family(p, s, x)
        levels, failures = enumerate_sign_orbits(step, (0, 0), 1)
        assert failures == 2
        assert levels[1] == []


class TestChecks:
    def test_branch_collapse_on_worked_instance(self):
        p = CubicFamilyParams(1, 1, 1)
        sol = solve_cubic_family(p, (1, 0), 3)
        step = lambda s, x: step_cubic_family(p, s, x)
        assert check_branch_collapse(step, sol, (1, 0)) <= 1e-9

    def test_closed_vs_iterated_membership(self):
        p = CubicFamilyParams(0.6, 0.4, 1)
        x0 = (0.5, -0.8)
        sol = solve_cubic_family(p, x0, 4)
        step = lambda s, x: step_cubic_family(p, s, x)
        assert check_branch_collapse(step, sol, x0) <= 1e-8

    # Negative controls: each pins one way the oracle must fail or skip.

    def test_three_states_do_not_collapse(self):
        sol = solve_cubic_family(CubicFamilyParams(1, 1, 1), (1, 0), 2)
        # Step 2 reaches x0[0] + 2, x0[0] and x0[0] - 2.
        step = lambda s, x: (x[0] + s, x[1])
        assert check_branch_collapse(step, sol, (1, 0)) == float("inf")

    def test_level_whose_expansions_all_raise_adds_nothing(self):
        def step(s, x):
            raise NumericOverflowError("every expansion overflows")

        sol = solve_cubic_family(CubicFamilyParams(1, 1, 1), (1, 0), 2)
        # Only ell = 0, where one branch is x0 itself, is compared.
        assert check_branch_collapse(step, sol, (1, 0)) == 0.0

    def test_initial_entry_is_compared(self):
        p = CubicFamilyParams(1, 1, 1)
        sol = solve_cubic_family(p, (1, 0), 2)
        # The minus branch at ell = 0 is (1/3, 4/3), far from x0.
        sol.entries[0] = sol.entries[0]._replace(plus=(1 + 1e-4, 0j))
        step = lambda s, x: step_cubic_family(p, s, x)
        assert check_branch_collapse(step, sol, (1, 0)) == pytest.approx(1e-4, rel=1e-3)


def _two_direction(got, want, dist):
    """The set residual's definition: the worst distance from a point of either set to the other set."""
    worst = 0.0
    for a in got:
        worst = max(worst, min((dist(a, b) for b in want), default=float("inf")))
    for b in want:
        worst = max(worst, min((dist(a, b) for a in got), default=float("inf")))
    return worst


def _residual_definition(g, w):
    return abs(g - w) / max(abs(g), abs(w), 1.0)


def _repr_outcome(fn, *args):
    """A float's repr (NaN included), or the type and message of what was raised."""
    try:
        return repr(fn(*args))
    except OverflowError as exc:
        return type(exc), str(exc)


_parts = st.one_of(
    st.sampled_from([0.0, -0.0, float("inf"), -float("inf"), float("nan"), 1e308, -1.7e308, 1e154]),
    st.floats(-2, 2),
    st.floats(),
)
_complexes = st.builds(complex, _parts, _parts)
_state_sets = st.lists(st.tuples(_complexes, _complexes), max_size=3)


class TestResidualArithmetic:
    """The residuals and draws equal their definitions bit for bit, errors included."""

    @given(got=_state_sets, want=_state_sets)
    def test_set_residual_is_the_two_direction_definition(self, got, want):
        for dist in (pair_residual, pair_residual_unordered):
            want_outcome = _repr_outcome(_two_direction, got, want, dist)
            assert _repr_outcome(verify._set_equal_residual, got, want, dist) == want_outcome

    @given(g=_complexes, w=_complexes)
    def test_residual_is_its_definition(self, g, w):
        assert _repr_outcome(residual, g, w) == _repr_outcome(_residual_definition, g, w)

    def test_residual_raises_where_abs_overflows(self):
        huge = complex(1.5e308, 1.5e308)
        for g, w in ((huge, 0j), (0j, huge), (huge, -huge)):
            with pytest.raises(OverflowError):
                residual(g, w)
            assert _repr_outcome(residual, g, w) == _repr_outcome(_residual_definition, g, w)

    @pytest.mark.parametrize("scale", [None, 1.5, 0.1, 3.0, 0.0, 1e300])
    def test_draw_complex_is_two_uniform_draws(self, scale):
        rng, twin = random.Random(7), random.Random(7)
        s = 1.25 if scale is None else scale  # None: the default scale
        for _ in range(200):
            got = draw_complex(rng) if scale is None else draw_complex(rng, s)
            assert repr(got) == repr(complex(twin.uniform(-s, s), twin.uniform(-s, s)))

    @pytest.mark.parametrize("unordered", [False, True])
    def test_collapse_computes_each_distance_once(self, monkeypatch, unordered):
        if unordered:
            p, x0 = QuadraticFamilyParams(0.6, 0.4, 1), (0.5, -0.8)
            solution = solve_quadratic_family(p, x0, 5)
            step = lambda s, x: step_quadratic_family(p, s, x)
        else:
            p, x0 = CubicFamilyParams(0.6, 0.4, 1), (0.5, -0.8)
            solution = solve_cubic_family(p, x0, 5)
            step = lambda s, x: step_cubic_family(p, s, x)
        levels, _ = enumerate_sign_orbits(step, x0, 5, unordered=unordered)
        branches = 1 if unordered else 2
        name = "pair_residual_unordered" if unordered else "pair_residual"
        calls = []
        dist = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda a, b: calls.append(1) or dist(a, b))
        assert check_branch_collapse(step, solution, x0, unordered=unordered) <= 1e-8
        assert len(calls) == sum(len(states) * branches for states in levels)


class TestReport:
    def test_full_run_passes(self):
        report = run_verify(seed=42)
        assert report.passed
        assert [s.name for s in report.suites] == list(SUITE_NAMES)

    def test_determinism_byte_for_byte(self):
        assert run_verify(seed=42).to_json() == run_verify(seed=42).to_json()

    def test_suite_selection(self):
        report = run_verify(seed=7, suites=["conda", "prefactor"])
        assert [s.name for s in report.suites] == ["conda", "prefactor"]
        assert report.passed

    @pytest.mark.parametrize("seed", [0, 42, 138])
    def test_selected_suite_matches_its_full_report_entry(self, seed):
        full = run_verify(seed=seed).to_dict()["suites"]
        for name, entry in zip(SUITE_NAMES, full):
            assert run_verify(seed, [name]).to_dict()["suites"] == [entry]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            run_verify(seed=42, suites=["no-such-suite"])

    @pytest.mark.parametrize("suites", [[], ["yz", "conda", "yz"]])
    def test_empty_or_repeated_selection_rejected(self, suites):
        with pytest.raises(ConfigError):
            run_verify(seed=42, suites=suites)

    def test_json_shape(self):
        data = json.loads(run_verify(seed=1, suites=["prefactor"]).to_json())
        assert data["seed"] == 1
        suite = data["suites"][0]
        assert {"name", "passed", "draws", "skipped", "properties"} <= set(suite)
        prop = suite["properties"][0]
        assert set(prop) == {"name", "passed", "max_residual", "tolerance"}

    def test_prefactor_discrepancy_recorded(self):
        suite = run_verify(seed=42, suites=["prefactor"]).suites[0]
        by_name = {p.name: p for p in suite.properties}
        corrected = by_name["corrected 1/3 inversion round-trips"]
        printed = by_name["printed 1/2 inversion fails round-trip"]
        assert corrected.passed and corrected.max_residual < 1e-12
        assert printed.passed and printed.max_residual > 0.1

    @pytest.mark.parametrize("suite", ["conda", "conjugation"])
    def test_bug_in_draw_is_not_a_skip(self, monkeypatch, suite):
        def broken(*args):
            raise TypeError("broken change of variables")

        monkeypatch.setattr(verify, "ConjugatedParams", broken)
        with pytest.raises(TypeError):
            run_verify(seed=42, suites=[suite])

    @pytest.mark.parametrize("residuals", [(1e-3, float("nan")), (float("nan"), 1e-3)])
    def test_nan_residual_fails_its_property(self, residuals):
        values = iter(residuals)
        suite = verify.SuiteResult("nan")
        row = verify._Suite(2, lambda rng, record: record(0, next(values)), [("residual", 1.0)])
        verify._run_draws(suite, None, row)
        assert not suite.properties[0].passed

    def test_skip_accounting_within_bounds(self):
        report = run_verify(seed=42)
        for suite in report.suites:
            if suite.draws:
                assert suite.skipped <= 0.2 * suite.draws, suite.name

    def test_summary_mentions_every_suite(self):
        report = run_verify(seed=42, suites=["conda"])
        text = report.summary()
        assert "suite conda" in text
        assert re.search(
            r"^  \[PASS\] common-zero constraint residual vanishes: max residual \d\.\d{3}e-\d\d \(tol 1\.0e-09\)$",
            text, re.MULTILINE,
        )
        assert "overall: PASS" in text
