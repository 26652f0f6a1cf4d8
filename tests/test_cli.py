"""Command-line interface: subcommands, formats, exit codes."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from solvmaps.cli import _SYSTEMS, _Writer, _state_columns, main
from solvmaps.numeric import MINUS, PLUS
from solvmaps.polybridge import DistinctZeroPair
from solvmaps.stepmaps import CubicFamilyParams, step_cubic_family
from solvmaps.verify import pair_residual, pair_residual_unordered
from solvmaps.ysystem import YParams, YState, y_closed


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def row_state(row):
    return (
        complex(float(row[2]), float(row[3])),
        complex(float(row[4]), float(row[5])),
    )


CUBIC_PARAMS = '{"a": 1, "b": 1, "k": 1}'


class TestIterate:
    def test_worked_cubic_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "iterate", "--system", "cubic-family",
            "--params", CUBIC_PARAMS, "--x0", "[[1,0],[0,0]]",
            "--steps", "1", "--signs", "+",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["ell", "branch", "x1_re", "x1_im", "x2_re", "x2_im"]
        assert rows[1] == ["1", "+", "-6", "0", "0", "0"]

    def test_steps_zero_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "iterate", "--system", "cubic-family",
            "--params", CUBIC_PARAMS, "--x0", "[1, 0]", "--steps", "0",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert rows[0][0] == "0"

    def test_signs_length_mismatch_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "iterate", "--system", "cubic-family",
            "--params", CUBIC_PARAMS, "--x0", "[1, 0]",
            "--steps", "1", "--signs", "+-",
        )
        assert code == 2
        assert "does not match" in err

    def test_missing_param_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "iterate", "--system", "cubic-family",
            "--params", '{"a": 1, "b": 1}', "--x0", "[1, 0]",
        )
        assert code == 2
        assert "missing parameters" in err

    def test_numeric_error_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "iterate", "--system", "cubic-family",
            "--params", '{"a": 1, "b": 1, "k": -1}', "--x0", "[0, 0]",
            "--steps", "1",
        )
        assert code == 3
        assert "step" in err

    def test_round_trip_matches_in_memory_orbit(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "iterate", "--system", "cubic-family",
            "--params", CUBIC_PARAMS, "--x0", "[[0.5,0.25],[-0.75,1]]",
            "--steps", "3", "--signs", "+-+",
        )
        assert code == 0
        _, rows = parse_csv(out)
        p = CubicFamilyParams(1, 1, 1)
        state = DistinctZeroPair(0.5 + 0.25j, -0.75 + 1j)
        assert row_state(rows[0]) == tuple(state)
        for row, s in zip(rows[1:], (PLUS, MINUS, PLUS)):
            state = step_cubic_family(p, s, state)
            # %.17g round-trips doubles exactly.
            assert row_state(row) == tuple(state)

    def test_jsonl_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "iterate", "--system", "cubic-family",
            "--params", CUBIC_PARAMS, "--x0", "[1, 0]",
            "--steps", "1", "--format", "jsonl",
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[1]["ell"] == 1
        assert lines[1]["x1_re"] == -6.0

    def test_y_system(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "iterate", "--system", "y",
            "--params", '{"alpha": 1, "beta": 1, "gamma": 0, "k": 1, "q": 2, "r": 4}',
            "--x0", "[2, 1]", "--steps", "2",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["ell", "y1_re", "y1_im", "y2_re", "y2_im"]
        assert rows[2] == ["2", "16", "0", "64", "0"]

    def test_y_system_rejects_signs(self, capsys):
        # Any --signs is refused as such, also one of the wrong length or with a bad character.
        for steps, signs in [("1", "+"), ("2", "+"), ("1", "x")]:
            code, _, err = run_cli(
                capsys,
                "iterate", "--system", "y",
                "--params", '{"alpha": 1, "beta": 1, "gamma": 0, "k": 1, "q": 2, "r": 4}',
                "--x0", "[2, 1]", "--steps", steps, "--signs", signs,
            )
            assert code == 2
            assert "takes no per-step signs" in err


class TestSolve:
    def test_worked_cubic_instance(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--system", "cubic-family",
            "--params", CUBIC_PARAMS, "--x0", "[1, 0]", "--steps", "1",
        )
        assert code == 0
        _, rows = parse_csv(out)
        step1 = [row for row in rows if row[0] == "1"]
        assert len(step1) == 2
        states = {row_state(row) for row in step1}
        for want in ((-6 + 0j, 0j), (-2 + 0j, -8 + 0j)):
            assert any(pair_residual(s, want) <= 1e-12 for s in states)
        for row in step1:
            assert [row[6], row[7], row[8], row[9]] == ["12", "0", "36", "0"]

    def test_step_zero_echoes_initial_state(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--system", "quad-family",
            "--params", CUBIC_PARAMS, "--x0", "[1, 0]", "--steps", "0",
        )
        assert code == 0
        _, rows = parse_csv(out)
        states = {row_state(row) for row in rows}
        assert any(s in {(1 + 0j, 0j), (0j, 1 + 0j)} for s in states)

    def test_overflow_truncates_and_exits_3(self, capsys):
        code, out, err = run_cli(
            capsys,
            "solve", "--system", "cubic-family",
            "--params", '{"a": 1, "b": 1, "k": 2}', "--x0", "[1e80, 0]",
            "--steps", "6",
        )
        assert code == 3
        assert "overflow" in err
        _, rows = parse_csv(out)
        assert rows  # truncated prefix still emitted
        assert max(int(row[0]) for row in rows) < 6

    def test_zero_base_truncates_and_exits_3(self, capsys):
        # x0 = (1, -2) gives y1(0) = 0, and k = -1 needs y1(0)**-2 at step 1.
        code, out, err = run_cli(
            capsys,
            "solve", "--system", "cubic-family",
            "--params", '{"a": 1, "b": 1, "k": -1}', "--x0", "[1, -2]",
            "--steps", "3",
        )
        assert code == 3
        assert "zero base raised to a negative power" in err
        assert "step 1" in err
        assert "overflow" not in err
        header, rows = parse_csv(out)
        assert header[:2] == ["ell", "branch"]
        assert [row[:2] for row in rows] == [["0", "+"], ["0", "-"]]

    def test_y_system_matches_per_step_closed_form(self, capsys):
        params = {"alpha": [0.9, 0.3], "beta": [-0.4, 1.1], "gamma": [0.7, -0.2], "k": 1, "q": 1, "r": 3}
        x0 = [[0.8, -0.5], [0.3, 0.6]]
        code, out, _ = run_cli(
            capsys,
            "solve", "--system", "y", "--params", json.dumps(params),
            "--x0", json.dumps(x0), "--steps", "25",
        )
        assert code == 0
        p = YParams(
            complex(*params["alpha"]), complex(*params["beta"]), complex(*params["gamma"]), 1, 1, 3
        )
        y0 = YState(complex(*x0[0]), complex(*x0[1]))
        want = []
        for ell in range(26):
            y = y_closed(p, y0, ell)
            want.append([str(ell), *(f"{v:.17g}" for v in (y.y1.real, y.y1.imag, y.y2.real, y.y2.imag))])
        header, rows = parse_csv(out)
        assert header == ["ell", "y1_re", "y1_im", "y2_re", "y2_im"]
        assert rows == want

    def test_y_system_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--system", "y",
            "--params", '{"alpha": 1, "beta": 1, "gamma": 0, "k": 1, "q": 2, "r": 4}',
            "--x0", "[2, 1]", "--steps", "2",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[2] == ["2", "16", "0", "64", "0"]

    def test_y_system_truncates_like_the_others(self, capsys):
        code, out, err = run_cli(
            capsys,
            "solve", "--system", "y",
            "--params", '{"alpha": 2, "beta": 1, "gamma": 0, "k": 1, "q": 2, "r": 4}',
            "--x0", "[1e100, 1]", "--steps", "4",
        )
        assert code == 3
        assert [row[0] for row in parse_csv(out)[1]] == ["0", "1"]
        assert err == (
            "error: closed-form evaluation failed at step 2: "
            "result overflowed to a non-finite value; output truncated\n"
        )

    def test_small_beta_runs_the_whole_bounded_orbit(self, capsys):
        # beta = 2b: beta**(-2 ell) overflows from ell = 58 on, and no closed form needs it.
        argv = ["--system", "quad-family", "--params", '{"a": 0.5, "b": 0.001, "k": 1}',
                "--x0", "[1, 0]", "--steps", "100"]
        code, out, _ = run_cli(capsys, "solve", *argv)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 202
        code, out, _ = run_cli(capsys, "iterate", *argv)
        assert code == 0
        orbit = [row_state(row) for row in parse_csv(out)[1]]
        for row in rows:
            x1, x2 = orbit[int(row[0])]
            y = (complex(float(row[6]), float(row[7])), complex(float(row[8]), float(row[9])))
            assert pair_residual(y, (-(x1 + x2), x1 * x2)) <= 1e-12
            # The zeros come from sqrt(y1**2 - 4 y2), which near this double
            # root cancels to about sqrt(eps): 5.3e-9 here.
            assert pair_residual_unordered(row_state(row), (x1, x2)) <= 1e-8

    def test_signs_option_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--system", "cubic-family", "--params", CUBIC_PARAMS,
                  "--x0", "[1, 0]", "--signs", "xyz"])
        assert exc.value.code == 2
        assert "--signs" in capsys.readouterr().err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "orbit.csv"
        code, out, _ = run_cli(
            capsys,
            "solve", "--system", "cubic-family",
            "--params", CUBIC_PARAMS, "--x0", "[1, 0]",
            "--steps", "1", "--out", str(path),
        )
        assert code == 0
        assert out == ""
        header, rows = parse_csv(path.read_text())
        assert header[:2] == ["ell", "branch"]
        assert len(rows) == 4


Y_K0 = {"alpha": 1, "beta": 1, "gamma": 1, "k": 0, "q": 1, "r": 1}
GENERALIZED = {"alpha": 1, "beta": 1, "B1": 1, "B2": 1, "C1": 1, "C2": 1, "C3": 0, "k": 1}
FAMILY_K0 = {"a": 1, "b": 1, "k": 0}

PARAMETER_ERRORS = {
    "solve y k=0": ["solve", "--system", "y", "--params", json.dumps(Y_K0)],
    "solve quad-family k=0": ["solve", "--system", "quad-family", "--params", json.dumps(FAMILY_K0)],
    "solve cubic-family k=0": ["solve", "--system", "cubic-family", "--params", json.dumps(FAMILY_K0)],
    "solve generalized k=0": [
        "solve", "--system", "generalized", "--params", json.dumps({**GENERALIZED, "k": 0}),
    ],
    "solve sqrt-quad k=0": ["solve", "--system", "sqrt-quad", "--params", json.dumps(Y_K0)],
    "solve sqrt-cubic k=0": ["solve", "--system", "sqrt-cubic", "--params", json.dumps(Y_K0)],
    "solve conjugated k=0": [
        "solve", "--system", "conjugated",
        "--params", json.dumps({**FAMILY_K0, "A11": 1, "A12": 0, "A21": 0, "A22": 1}),
    ],
    "iterate generalized B2=0": [
        "iterate", "--system", "generalized", "--params", json.dumps({**GENERALIZED, "B2": 0}),
    ],
    "iterate sqrt-quad k=0": ["iterate", "--system", "sqrt-quad", "--params", json.dumps(Y_K0)],
}


@pytest.mark.parametrize("name", sorted(PARAMETER_ERRORS))
def test_parameter_error_exits_2(capsys, name):
    code, out, err = run_cli(capsys, *PARAMETER_ERRORS[name], "--x0", "[1, 2]", "--steps", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["iterate", "solve"])
def test_unknown_params_exit_2_naming_them(capsys, command):
    params = json.dumps({"a": 1, "b": 1, "k": 1, "q": 2, "bb": 0})
    code, out, err = run_cli(
        capsys, command, "--system", "quad-family", "--params", params, "--x0", "[1, 2]"
    )
    assert code == 2
    assert out == ""
    assert err == "error: unknown parameters for 'quad-family': 'q', 'bb'\n"


def test_family_k0_iterates_but_does_not_solve(capsys):
    """The step maps never divide by k; the closed-form exponents do."""
    argv = ["--system", "quad-family", "--params", json.dumps(FAMILY_K0), "--x0", "[1, 2]", "--steps", "2"]
    code, out, _ = run_cli(capsys, "iterate", *argv)
    assert code == 0
    assert len(parse_csv(out)[1]) == 3
    code, out, err = run_cli(capsys, "solve", *argv)
    assert code == 2
    assert out == ""
    assert "k = 0" in err


HOSTILE_INPUTS = {
    "params NaN": ["iterate", "--params", '{"a": NaN, "b": 1, "k": 1}', "--x0", "[1, 0]"],
    "params Infinity": ["solve", "--params", '{"a": [1, Infinity], "b": 1, "k": 1}', "--x0", "[1, 0]"],
    "params nan string": ["iterate", "--params", '{"a": 1, "b": "nan", "k": 1}', "--x0", "[1, 0]"],
    "params huge int": ["iterate", "--params", '{"a": 1%s, "b": 1, "k": 1}' % ("0" * 400), "--x0", "[1, 0]"],
    "x0 NaN": ["iterate", "--params", CUBIC_PARAMS, "--x0", "[1, NaN]"],
    "x0 -Infinity": ["solve", "--params", CUBIC_PARAMS, "--x0", "[[-Infinity, 0], 0]"],
    "x0 nan literal": ["iterate", "--params", CUBIC_PARAMS, "--x0", '[1, "nan"]'],
    "params object part": ["iterate", "--params", '{"a": [{}, 0], "b": 1, "k": 1}', "--x0", "[1, 0]"],
    "x0 null part": ["iterate", "--params", CUBIC_PARAMS, "--x0", "[[null, 0], 0]"],
    "x0 nested list": ["solve", "--params", CUBIC_PARAMS, "--x0", "[[[1], 0], 0]"],
    "params true part": ["iterate", "--params", '{"a": [true, 0], "b": 1, "k": 1}', "--x0", "[1, 2]"],
    "x0 bool parts": ["iterate", "--params", CUBIC_PARAMS, "--x0", "[[false, true], 2]"],
    "params missing": ["iterate", "--x0", "[1, 0]"],
    "params not JSON": ["iterate", "--params", "{a: 1}", "--x0", "[1, 0]"],
    "params not an object": ["iterate", "--params", "[1, 1, 1]", "--x0", "[1, 0]"],
    "params float k": ["solve", "--params", '{"a": 1, "b": 1, "k": 1.0}', "--x0", "[1, 0]"],
    "params 5000-digit int": ["iterate", "--params", '{"a": 1%s, "b": 1, "k": 1}' % ("0" * 5000), "--x0", "[1, 0]"],
    "x0 missing": ["solve", "--params", CUBIC_PARAMS],
    "x0 not JSON": ["iterate", "--params", CUBIC_PARAMS, "--x0", "1;2"],
    "x0 three parts": ["iterate", "--params", CUBIC_PARAMS, "--x0", "[1, 2, 3]"],
    "signs other character": ["iterate", "--params", CUBIC_PARAMS, "--x0", "[1, 0]", "--signs", "+x"],
}


@pytest.mark.parametrize("name", sorted(HOSTILE_INPUTS))
def test_bad_complex_input_exits_2_before_any_row(capsys, name):
    argv = [*HOSTILE_INPUTS[name], "--system", "cubic-family", "--steps", "2"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


NONFINITE = re.compile("nan|inf", re.IGNORECASE)

#: Runs whose values overflow to a nan or inf: argv and the finite rows written.
OVERFLOWING_RUNS = {
    "solve cubic-family gamma overflows": (
        ["solve", "--system", "cubic-family", "--params", '{"a": 1e200, "b": 0, "k": 1}',
         "--x0", "[1e50, 0]", "--steps", "1"],
        ["ell,branch,x1_re,x1_im,x2_re,x2_im,y1_re,y1_im,y2_re,y2_im",
         "0,+,1.0000000000000001e+50,0,0,0,-2.0000000000000002e+50,-0,1.0000000000000002e+100,0",
         "0,-,3.3333333333333338e+49,0,1.3333333333333333e+50,0,"
         "-2.0000000000000002e+50,-0,1.0000000000000002e+100,0"],
    ),
    "iterate quad-family": (
        ["iterate", "--system", "quad-family", "--params", '{"a": 1e200, "b": 0, "k": 1}',
         "--x0", "[1e100, 0]", "--steps", "3"],
        ["ell,branch,x1_re,x1_im,x2_re,x2_im", "0,,1e+100,0,0,0"],
    ),
    "iterate generalized jsonl": (
        ["iterate", "--system", "generalized", "--params", json.dumps({**GENERALIZED, "alpha": 1e300}),
         "--x0", "[1, 2]", "--steps", "3", "--format", "jsonl"],
        ['{"ell": 0, "branch": "", "x1_re": 1.0, "x1_im": 0.0, "x2_re": 2.0, "x2_im": 0.0}',
         '{"ell": 1, "branch": "+", "x1_re": 4.5000000000000005e+300, "x1_im": 0.0, '
         '"x2_re": 4.5000000000000005e+300, "x2_im": 0.0}'],
    ),
    "solve generalized jsonl": (
        ["solve", "--system", "generalized", "--params", json.dumps({**GENERALIZED, "alpha": 1e300}),
         "--x0", "[1, 2]", "--steps", "3", "--format", "jsonl"],
        ['{"ell": 0, "branch": "+", "x1_re": 2.0, "x1_im": 0.0, "x2_re": 1.0, "x2_im": 0.0, '
         '"y1_re": 3.0, "y1_im": 0.0, "y2_re": 5.0, "y2_im": 0.0}',
         '{"ell": 0, "branch": "-", "x1_re": 1.0, "x1_im": -0.0, "x2_re": 2.0, "x2_im": 0.0, '
         '"y1_re": 3.0, "y1_im": 0.0, "y2_re": 5.0, "y2_im": 0.0}'],
    ),
    "iterate y alpha times a finite power": (
        ["iterate", "--system", "y",
         "--params", '{"alpha": 1e300, "beta": 0, "gamma": 1, "k": 1, "q": 0, "r": 0}',
         "--x0", "[1e10, 1]", "--steps", "3"],
        ["ell,y1_re,y1_im,y2_re,y2_im", "0,10000000000,0,1,0"],
    ),
}


def _states_written(out):
    lines = out.splitlines()
    if lines and lines[0].startswith("ell,"):
        return len({line.split(",")[0] for line in lines[1:]})
    return len({json.loads(line)["ell"] for line in lines})


@pytest.mark.parametrize("name", sorted(OVERFLOWING_RUNS))
def test_overflow_exits_3_after_the_finite_rows(capsys, name):
    argv, rows = OVERFLOWING_RUNS[name]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out.splitlines() == rows
    assert err.startswith("error: ") and err.count("\n") == 1
    # iterate and solve name the same step: the ell of the first state not written.
    assert [int(n) for n in re.findall(r"step (\d+)", err)] == [_states_written(out)]


def _complex_literals(magnitudes):
    return st.one_of(
        magnitudes,
        st.tuples(magnitudes, magnitudes).map(list),
    )


#: In-range values, and huge or tiny ones that overflow or underflow.
_scalars = st.one_of(
    st.floats(-2, 2),
    st.floats(1e100, 1e308) | st.floats(-1e308, -1e100),
    st.floats(-1e-300, 1e-300),
)


@st.composite
def cli_runs(draw):
    system = draw(st.sampled_from(sorted(_SYSTEMS)))
    params = {}
    for name in _SYSTEMS[system].param_names:
        if name in ("k", "q", "r"):
            params[name] = draw(st.integers(-3, 6))
        else:
            params[name] = draw(_complex_literals(_scalars))
    command = draw(st.sampled_from(["iterate", "solve"]))
    steps = draw(st.integers(0, 30))
    argv = [
        command, "--system", system, "--params", json.dumps(params),
        "--x0", json.dumps([draw(_complex_literals(_scalars)) for _ in range(2)]),
        "--steps", str(steps), "--format", draw(st.sampled_from(["csv", "jsonl"])),
    ]
    if command == "iterate" and draw(st.booleans()):
        argv.append("--signs=" + draw(st.text("+-", min_size=steps, max_size=steps)))
    return argv


# run_cli reads and clears the capture, so sharing capsys across examples is safe.
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_runs())
@example(argv=OVERFLOWING_RUNS["solve cubic-family gamma overflows"][0])
def test_fuzz_systems_exit_cleanly_with_finite_rows(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    assert not NONFINITE.search(out)


@pytest.mark.parametrize("command", ["iterate", "solve"])
def test_negative_steps_exits_2(capsys, command):
    code, out, err = run_cli(
        capsys, command, "--system", "cubic-family", "--params", CUBIC_PARAMS, "--x0", "[1, 0]",
        "--steps", "-1",
    )
    assert code == 2
    assert out == ""
    assert err == "error: --steps must be >= 0, got -1\n"


@pytest.mark.parametrize("command", ["iterate", "solve", "verify"])
def test_unwritable_out_exits_2(capsys, tmp_path, command):
    path = tmp_path / "missing" / "out"
    argv = ["--suites", "prefactor"] if command == "verify" else [
        "--system", "cubic-family", "--params", CUBIC_PARAMS, "--x0", "[1, 0]",
    ]
    code, out, err = run_cli(capsys, command, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


# --- row formatter -----------------------------------------------------------

SCHEMAS = [
    _state_columns("y", with_y=False),
    _state_columns("quad-family", with_y=False),
    _state_columns("quad-family", with_y=True),
]

#: Values that the csv and json modules spell in their own way.  Only finite
#: floats: the commands never hand the writer a nan or inf.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 1e16, 0.1]

reals = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL_FLOATS))
#: Branch labels: ``iterate`` writes sign prefixes, ``solve`` one sign.
labels = st.one_of(st.sampled_from(["", "+", "-"]), st.text("+-", max_size=1500))


def _written(write, fmt, columns, rows):
    """Output of ``write(stream, fmt, columns, rows)``."""
    buf = io.StringIO()
    write(buf, fmt, columns, rows)
    return buf.getvalue()


def _reference(buf, fmt, columns, rows):
    """The csv and json module calls the rows went through before the formatter."""
    if fmt == "csv":
        writer = csv.writer(buf)
        writer.writerow(columns)
        for values in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in values])
    else:
        for values in rows:
            buf.write(json.dumps(dict(zip(columns, values))) + "\n")


def _formatted(buf, fmt, columns, rows):
    writer = _Writer(buf, fmt, columns)
    for values in rows:
        writer.row(values)


@st.composite
def tables(draw):
    columns = draw(st.sampled_from(SCHEMAS))
    # Branch labels usually extend the previous row's, as in an iterated orbit.
    signs = draw(st.text("+-", max_size=300))
    rows = []
    for ell in range(draw(st.integers(1, 6))):
        label = draw(st.one_of(st.just(signs[:ell]), st.just(signs[: 2 * ell]), labels))
        row = []
        for name in columns:
            if name == "ell":
                row.append(draw(st.integers(-(2**70), 2**70)))
            elif name == "branch":
                row.append(label)
            else:
                row.append(draw(reals))
        rows.append(row)
    return columns, rows


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@given(table=tables())
@example(table=(SCHEMAS[1], [[1, "-+", -0.0, 5e-324, -2.2250738585072014e-308, 0.1]]))
@example(table=(SCHEMAS[1], [[2, "+-", 1e308, 1e308, 1.0, 5e-324], [3, "", 0.5, -0.0, 0.1, 1e16]]))
def test_writer_matches_csv_and_json_modules(fmt, table):
    assert _written(_formatted, fmt, *table) == _written(_reference, fmt, *table)


def test_solve_keeps_the_small_zero(capsys):
    # Zeros 1e8 and 1e-8 with gamma = 0: each row's zeros multiply to its y2.
    code, out, _ = run_cli(
        capsys, "solve", "--system", "quad-family", "--params", '{"a": 1, "b": 1, "k": 1}',
        "--x0", "[1e8, 1e-8]", "--steps", "2",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][2:] == ["100000000", "0", "1e-08", "0", "-100000000.00000001", "-0", "1", "0"]
    for row in rows:
        x1, x2, _, y2 = (complex(float(row[i]), float(row[i + 1])) for i in range(2, 10, 2))
        assert abs(x1 * x2 - y2) <= 1e-15 * abs(y2)


class TestVerify:
    def test_full_suite_exits_0(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "verify", "--seed", "42", "--out", str(path))
        assert code == 0
        report = json.loads(path.read_text())
        assert report["passed"] is True
        assert report["seed"] == 42
        assert "overall: PASS" in err

    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "42", "--suites", "conda")
        assert code == 0
        report = json.loads(out)
        assert [s["name"] for s in report["suites"]] == ["conda"]

    def test_failing_report_exits_1(self, capsys, monkeypatch):
        from solvmaps import verify

        nan_suite = verify._Suite(2, lambda rng, record: record(0, float("nan")), [("nan", 1.0)])
        monkeypatch.setitem(verify._SUITES, "conda", nan_suite)
        code, out, err = run_cli(capsys, "verify", "--seed", "42", "--suites", "conda")
        assert code == 1
        assert json.loads(out)["passed"] is False
        assert "overall: FAIL" in err

    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suites", "bogus")
        assert code == 2
        assert "unknown verify suites" in err

    @pytest.mark.parametrize("suites", ["", ",", "yz,yz"])
    def test_empty_or_repeated_suites_exit_2(self, capsys, suites):
        code, out, err = run_cli(capsys, "verify", "--suites", suites)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_seed_defaults_to_42(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suites", "prefactor")
        assert code == 0
        assert json.loads(out)["seed"] == 42


#: Runs that write far more than a pipe buffer (64 KiB) holds.
LONG_RUNS = {
    "iterate": ["iterate", "--system", "quad-family", "--params", '{"a": 0.5, "b": 0.25, "k": -1}',
                "--x0", "[1, 0.5]", "--steps", "20000"],
    "solve": ["solve", "--system", "cubic-family", "--params", '{"a": 0.5, "b": 0.25, "k": -1}',
              "--x0", "[1, 0.5]", "--steps", "800", "--format", "jsonl"],
}


@pytest.mark.parametrize("command", sorted(LONG_RUNS))
def test_closed_stdout_exits_2_without_a_traceback(command):
    """A reader that stops after one line, as ``| head -1`` does."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "solvmaps.cli", *LONG_RUNS[command]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err.startswith("error: ") and err.count("\n") == 1
