"""Verification harness: enumeration oracle, suites, report determinism."""

import json

import pytest

from solvmaps import verify
from solvmaps.errors import ConfigError
from solvmaps.polybridge import DistinctZeroPair
from solvmaps.solver import solve_cubic_family
from solvmaps.stepmaps import (
    CubicFamilyParams,
    QuadraticFamilyParams,
    step_cubic_family,
    step_quadratic_family,
)
from solvmaps.verify import (
    SUITE_NAMES,
    check_branch_collapse,
    enumerate_sign_orbits,
    pair_residual,
    run_verify,
)


class TestEnumeration:
    def test_worked_cubic_level(self):
        p = CubicFamilyParams(1, 1, 1)
        step = lambda s, x: step_cubic_family(p, s, DistinctZeroPair(*x))
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
        step = lambda s, x: step_cubic_family(p, s, DistinctZeroPair(*x))
        levels, _ = enumerate_sign_orbits(step, (0.5, -0.25), 4)
        assert all(len(states) == 1 for states in levels)

    def test_cap_enforced(self):
        p = CubicFamilyParams(1, 1, 1)
        step = lambda s, x: step_cubic_family(p, s, DistinctZeroPair(*x))
        with pytest.raises(ValueError):
            enumerate_sign_orbits(step, (1, 0), 11)

    def test_failures_counted_not_fatal(self):
        # k = -1 from the origin raises on every expansion.
        p = CubicFamilyParams(1, 1, -1)
        step = lambda s, x: step_cubic_family(p, s, DistinctZeroPair(*x))
        levels, failures = enumerate_sign_orbits(step, (0, 0), 1)
        assert failures == 2
        assert levels[1] == []


class TestChecks:
    def test_branch_collapse_on_worked_instance(self):
        p = CubicFamilyParams(1, 1, 1)
        sol = solve_cubic_family(p, DistinctZeroPair(1, 0), 3)
        step = lambda s, x: step_cubic_family(p, s, DistinctZeroPair(*x))
        assert check_branch_collapse(step, sol, (1, 0)) <= 1e-9

    def test_closed_vs_iterated_membership(self):
        p = CubicFamilyParams(0.6, 0.4, 1)
        x0 = (0.5, -0.8)
        sol = solve_cubic_family(p, DistinctZeroPair(*x0), 4)
        step = lambda s, x: step_cubic_family(p, s, DistinctZeroPair(*x))
        assert check_branch_collapse(step, sol, x0) <= 1e-8


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
        assert {"name", "passed", "draws", "skipped", "notes", "properties"} <= set(suite)
        prop = suite["properties"][0]
        assert {"name", "passed", "max_residual", "tolerance", "detail"} <= set(prop)

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

        monkeypatch.setattr(verify, "LinearChange", broken)
        with pytest.raises(TypeError):
            run_verify(seed=42, suites=[suite])

    @pytest.mark.parametrize("residuals", [(1e-3, float("nan")), (float("nan"), 1e-3)])
    def test_nan_residual_fails_its_property(self, residuals):
        values = iter(residuals)
        suite = verify.SuiteResult("nan")
        verify._run_draws(suite, None, 2, lambda rng, record: record(0, next(values)), [("residual", 1.0)])
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
        assert "overall: PASS" in text
