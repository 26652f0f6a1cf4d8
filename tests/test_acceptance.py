"""Acceptance criteria for the package, one test per criterion.

Each test appends a single pass/fail line to RESULTS; the conftest terminal
hook prints the collected lines at the end of the run.  Tolerances and draw
counts are pinned in the assertions, and every criterion carries a runtime
budget checked against wall-clock time.
"""

import csv
import io
import json
import random
import time
from contextlib import contextmanager

from solvmaps.cli import main
from solvmaps.errors import NumericOverflowError, ZeroToNegativePowerError
from solvmaps.verify import run_verify
from solvmaps.ysystem import YParams, YState, y_closed, y_closed_special, y_iterate

RESULTS = []

NUMERIC_ERRORS = (ZeroToNegativePowerError, NumericOverflowError)


@contextmanager
def criterion(num: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        RESULTS.append(f"criterion {num:2d}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed <= budget_s
    status = "PASS" if within else "FAIL"
    RESULTS.append(f"criterion {num:2d}: {status} - {description} ({elapsed:.2f}s)")
    assert within, f"runtime {elapsed:.2f}s exceeds the {budget_s}s budget"


def suite_properties(name: str, seed: int = 42):
    report = run_verify(seed=seed, suites=[name])
    suite = report.suites[0]
    return suite, {p.name: p for p in suite.properties}


def test_criterion_01_closed_form_iteration_equivalence():
    with criterion(1, "y-system closed form equals iteration (100 draws)", 1.0):
        rng = random.Random("acceptance:1")
        checked = 0
        for _ in range(100):
            k = rng.choice([-2, -1, 1, 2])
            special = rng.random() < 0.5
            q, r = (2 * k, 2 * (1 + k)) if special else (rng.randint(-3, 4), rng.randint(-3, 4))
            p = YParams(
                complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
                complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
                complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
                k, q, r,
            )
            y0 = YState(
                complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
                complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
            )
            ell = rng.randint(0, 6)
            try:
                closed = y_closed(p, y0, ell)
                iterated = y_iterate(p, y0, ell)
            except NUMERIC_ERRORS:
                continue
            for got, want in ((closed.y1, iterated.y1), (closed.y2, iterated.y2)):
                assert abs(got - want) <= 1e-9 * max(abs(got), abs(want), 1.0)
            if special:
                spec = y_closed_special(p, y0, ell)
                for got, want in ((spec.y1, closed.y1), (spec.y2, closed.y2)):
                    assert abs(got - want) <= 1e-9 * max(abs(got), abs(want), 1.0)
            checked += 1
        assert checked >= 80


def test_criterion_02_exponent_divisibility():
    with criterion(2, "exact-integer exponent divisibility identities", 0.1):
        for k in range(-5, 6):
            if k == 0:
                continue
            for ell in range(0, 9):
                growth = (1 + k) ** ell
                assert (growth - 1) % k == 0
                assert (growth - k * ell - 1) % (k * k) == 0


def test_criterion_03_quadratic_swap_and_solvability():
    with criterion(3, "quadratic-family swap law and orbit/closed-form match", 2.0):
        suite, props = suite_properties("quad-family")
        swap = props["sign flip swaps components exactly"]
        orbit = props["orbits match closed-form unordered pair"]
        assert suite.draws == 50
        assert swap.passed and swap.max_residual == 0.0
        assert orbit.passed and orbit.max_residual <= 1e-8


def test_criterion_04_cubic_branch_collapse():
    with criterion(4, "cubic-family 2**ell orbits collapse to 2 branches", 5.0):
        suite, props = suite_properties("cubic-collapse")
        collapse = props["2**ell orbits collapse to solver branch pair"]
        worked = props["worked instance branch set"]
        assert suite.draws == 25
        assert collapse.passed and collapse.max_residual <= 1e-8
        assert worked.passed and worked.max_residual <= 1e-12


def test_criterion_05_double_step_identity():
    with criterion(5, "double-step formula matches two chained steps", 1.0):
        suite, props = suite_properties("double-step")
        identity = props["double-step formula equals two steps"]
        hand = props["hand instance (-216, 0)"]
        assert suite.draws == 50
        assert identity.passed and identity.max_residual <= 1e-9
        assert hand.passed and hand.max_residual <= 1e-12


def test_criterion_06_reduction_identities():
    with criterion(6, "square-root and generalized maps reduce to the families", 2.0):
        suite, props = suite_properties("reductions")
        assert suite.draws == 50
        for name in (
            "sqrt-quadratic reduces to quadratic family",
            "sqrt-cubic reduces to cubic family",
            "generalized reduces to quadratic family",
        ):
            assert props[name].passed and props[name].max_residual <= 1e-9


def test_criterion_07_conda_constraint():
    with criterion(7, "common-zero constraint residual and positive control", 0.5):
        suite, props = suite_properties("conda")
        vanish = props["common-zero constraint residual vanishes"]
        control = props["positive control residual equals 1"]
        assert suite.draws == 100
        assert vanish.passed and vanish.max_residual <= 1e-9
        assert control.passed and control.max_residual == 0.0


def test_criterion_08_conjugation_and_yz_consistency():
    with criterion(8, "conjugation identity and yz round trips", 2.0):
        conj_suite, conj = suite_properties("conjugation")
        yz_suite, yz = suite_properties("yz")
        assert conj_suite.draws == 100 and yz_suite.draws == 100
        assert conj["conjugation identity"].max_residual <= 1e-9
        assert conj["k=1 coefficient table matches map on probes"].max_residual <= 1e-9
        assert yz["yz forward/inverse round trip"].max_residual <= 1e-9
        assert yz["inverse recovers state on one branch"].max_residual <= 1e-9
        assert yz["coefficient image sign-independent and y-steps"].max_residual <= 1e-9
        assert yz["g3 = -g1 exactly"].max_residual == 0.0


def test_criterion_09_prefactor_discrepancy_report():
    with criterion(9, "printed 1/2 inversion prefactor fails, corrected 1/3 passes", 0.1):
        _, props = suite_properties("prefactor")
        corrected = props["corrected 1/3 inversion round-trips"]
        printed = props["printed 1/2 inversion fails round-trip"]
        assert corrected.passed and corrected.max_residual < 1e-12
        assert printed.passed and printed.max_residual > 0.1


def test_criterion_10_cli_end_to_end(capsys, tmp_path):
    with criterion(10, "CLI solve worked instance and full verify suite", 10.0):
        code = main([
            "solve", "--system", "cubic-family",
            "--params", '{"a": 1, "b": 1, "k": 1}',
            "--x0", "[1, 0]", "--steps", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        step1 = [row for row in rows if row[0] == "1"]
        assert len(step1) == 2
        states = {
            (float(r[2]), float(r[3]), float(r[4]), float(r[5])) for r in step1
        }
        assert states == {(-6.0, 0.0, 0.0, 0.0), (-2.0, 0.0, -8.0, 0.0)}
        for row in step1:
            assert [row[6], row[7], row[8], row[9]] == ["12", "0", "36", "0"]

        report_path = tmp_path / "report.json"
        code = main(["verify", "--seed", "42", "--out", str(report_path)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(report_path.read_text())["passed"] is True
