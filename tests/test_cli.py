"""Command-line interface: subcommands, formats, exit codes."""

import contextlib
import csv
import dataclasses
import errno
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from solvmaps.cli import _SYSTEMS, _Writer, _parse_complex, _state_columns, build_parser, main
from solvmaps.numeric import MINUS, PLUS
from solvmaps.solver import solve_quadratic_family
from solvmaps.stepmaps import CubicFamilyParams, QuadraticFamilyParams, step_cubic_family
from solvmaps.verify import SUITE_NAMES, pair_residual, pair_residual_unordered
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

    def test_default_signs_take_no_memory_per_step(self, capsys):
        """Without --signs no sign string is built for the steps; this orbit overflows at step 2."""
        argv = [
            "iterate", "--system", "quad-family", "--params", '{"a": 1e200, "b": 0, "k": 1}',
            "--x0", "[1e50, 0]", "--steps", "10000000",
        ]
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert len(parse_csv(out)[1]) == 2
        assert "(at step 2)" in err
        assert peak < 1_000_000

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
        state = (0.5 + 0.25j, -0.75 + 1j)
        assert row_state(rows[0]) == state
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
    "iterate generalized zero denominator": [
        "iterate", "--system", "generalized",
        "--params", json.dumps({**GENERALIZED, "B1": 0, "B2": 1, "C1": 0, "C2": 1, "C3": 0}),
    ],
    "iterate conjugated singular change": [
        "iterate", "--system", "conjugated",
        "--params", json.dumps({"a": 1, "b": 1, "k": 1, "A11": 1, "A12": 2, "A21": 2, "A22": 4}),
    ],
}


@pytest.mark.parametrize("name", sorted(PARAMETER_ERRORS))
def test_parameter_error_exits_2(capsys, name):
    code, out, err = run_cli(capsys, *PARAMETER_ERRORS[name], "--x0", "[1, 2]", "--steps", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


#: Usage errors, and the start of their message (how argparse lists the
#: choices varies with the Python version).
USAGE_ERRORS = {
    "steps": (["solve", "--system", "y", "--params", "{}", "--steps", "abc"],
              "solvmaps solve: error: argument --steps: invalid int value: 'abc'"),
    "system": (["iterate", "--system", "nope"],
               "solvmaps iterate: error: argument --system: invalid choice: "),
    "command": ([], "solvmaps: error: the following arguments are required: command"),
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_error_is_one_line(capsys, name):
    argv, message = USAGE_ERRORS[name]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("command", ["iterate", "solve"])
def test_unknown_params_exit_2_naming_them(capsys, command):
    params = json.dumps({"a": 1, "b": 1, "k": 1, "q": 2, "bb": 0})
    code, out, err = run_cli(
        capsys, command, "--system", "quad-family", "--params", params, "--x0", "[1, 2]"
    )
    assert code == 2
    assert out == ""
    assert err == "error: unknown parameters for 'quad-family': 'q', 'bb'\n"


CONJUGATED_IDENTITY = {"a": 1, "b": 1, "k": 1, "A11": 1, "A12": 0, "A21": 0, "A22": 1}
CONJUGATED_SINGULAR = {"A11": 1, "A12": 2, "A21": 2, "A22": 4}

#: ``conjugated``'s parameter messages, word for word: the names in ``--params``
#: order, and a non-integer k reported before a singular change of variables.
CONJUGATED_MESSAGES = {
    "missing change of variables": (
        {"a": 1, "b": 1, "k": 1},
        "error: missing parameters for 'conjugated': A11, A12, A21, A22\n",
    ),
    "unknown key": (
        {**CONJUGATED_IDENTITY, "zz": 2},
        "error: unknown parameters for 'conjugated': 'zz'\n",
    ),
    "k 1.5 and singular": (
        {**CONJUGATED_IDENTITY, "k": 1.5, **CONJUGATED_SINGULAR},
        "error: k must be an integer, got 1.5\n",
    ),
    "singular": (
        {**CONJUGATED_IDENTITY, **CONJUGATED_SINGULAR},
        "error: change of variables has zero determinant\n",
    ),
}


@pytest.mark.parametrize("command", ["iterate", "solve"])
@pytest.mark.parametrize("name", sorted(CONJUGATED_MESSAGES))
def test_conjugated_parameter_messages(capsys, command, name):
    params, message = CONJUGATED_MESSAGES[name]
    code, out, err = run_cli(
        capsys, command, "--system", "conjugated", "--params", json.dumps(params), "--x0", "[1, 2]"
    )
    assert (code, out, err) == (2, "", message)


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12: iterate re-forms its base from cancelling zeros and loses the orbit")
def test_iterate_stays_on_the_orbit_that_solve_delivers(capsys):
    # iterate stops at step 95 on a zero base; solve delivers all 201 states, with y1 = 2 from step 1 on.
    code, out, _ = run_cli(
        capsys,
        "iterate", "--system", "quad-family",
        "--params", '{"a": 1, "b": 1.5, "k": -1}', "--x0", "[1, 0.5]", "--steps", "200",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 201
    entries = solve_quadratic_family(QuadraticFamilyParams(1, 1.5, -1), (1, 0.5), 200).entries
    for row in rows:
        x1, x2 = row_state(row)
        assert pair_residual((-(x1 + x2), x1 * x2), entries[int(row[0])].y) <= 1e-9


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
    "params list k": ["iterate", "--params", '{"a": 1, "b": 1, "k": [1, 0]}', "--x0", "[1, 0]"],
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
        assert _parse_complex(obj, "--x0") == want

    @pytest.mark.parametrize("obj", [True, "nope", [1], {}])
    def test_rejected_literals(self, obj):
        with pytest.raises(ValueError):
            _parse_complex(obj, "--x0")

    def test_bool_pair_components_rejected(self):
        # JSON true/false inside an [re, im] pair are not read as 1 and 0.
        for obj in ([True, 0], [0, False], [False, True]):
            with pytest.raises(ValueError):
                _parse_complex(obj, "--x0")


#: Every way a complex literal is rejected: a label, the JSON text and the reason given.
REJECTED_LITERALS = {
    "true": ("true", "not a complex literal: True"),
    "null": ("null", "not a complex literal: None"),
    "object": ("{}", "not a complex literal: {}"),
    "one-element list": ("[1]", "not a complex literal: [1]"),
    "three-element list": ("[1, 2, 3]", "not a complex literal: [1, 2, 3]"),
    "pair with a bool": ("[true, 0]", "not a complex literal: [True, 0]"),
    "pair with a word": ('[1, "abc"]', "could not convert string to float: 'abc'"),
    "pair with a null": ("[1, null]", "float() argument must be a string or a real number, not 'NoneType'"),
    "400-digit integer": ("1" * 400, "int too large to convert to float"),
    "word": ('"abc"', "not a complex literal: 'abc'"),
    # complex() and float() read these; the literal grammar is ASCII, without separators or parentheses.
    "full-width digit": ('"\uff11"', "not a complex literal: '\uff11'"),
    "Arabic-Indic digit": ('"\u0663"', "not a complex literal: '\u0663'"),
    "parenthesized string": ('"(1+2j)"', "not a complex literal: '(1+2j)'"),
    "string with a digit separator": ('"1_0"', "not a complex literal: '1_0'"),
    "pair with a full-width digit": ('[0, "\uff11"]', "not a complex literal: [0, '\uff11']"),
    "pair with a digit separator": ('["1_0", 0]', "not a complex literal: ['1_0', 0]"),
    "nan string": ('"nan"', "'nan' is not finite"),
    # Only a trailing i is the imaginary unit: these are real infinities, and an imaginary one.
    "inf string": ('"inf"', "'inf' is not finite"),
    "-infinity string": ('"-infinity"', "'-infinity' is not finite"),
    "infi string": ('"infi"', "'infi' is not finite"),
}

#: Inputs whose exit-2 message is pinned word for word.
INPUT_MESSAGES = {
    "params a number": (["--params", "5", "--x0", "[1, 0]"], "error: --params must be a JSON object"),
    "params a list": (["--params", "[1]", "--x0", "[1, 0]"], "error: --params must be a JSON object"),
    "x0 not a literal": (["--params", CUBIC_PARAMS, "--x0", '["abc", 0]'],
                         "error: --x0: not a complex literal: 'abc'"),
    **{
        f"x0 {label}": (["--params", CUBIC_PARAMS, "--x0", f"[{literal}, 0]"], f"error: --x0: {reason}")
        for label, (literal, reason) in REJECTED_LITERALS.items()
    },
    **{
        f"param a {label}": (["--params", f'{{"a": {literal}, "b": 1, "k": 1}}', "--x0", "[1, 0]"],
                             f"error: parameter 'a': {reason}")
        for label, (literal, reason) in REJECTED_LITERALS.items()
    },
    "k a float": (["--params", '{"a": 1, "b": 1, "k": 1.5}', "--x0", "[1, 0]"],
                  "error: k must be an integer, got 1.5"),
    "k true": (["--params", '{"a": 1, "b": 1, "k": true}', "--x0", "[1, 0]"],
               "error: k must be an integer, got True"),
    # A later --system replaces cubic-family.
    "generalized k a float": (["--system", "generalized", "--params", json.dumps({**GENERALIZED, "k": 1.5}),
                               "--x0", "[1, 0]"], "error: k must be an integer, got 1.5"),
    "params not JSON": (["--params", "{", "--x0", "[1, 0]"],
                        "error: --params is not valid JSON: Expecting property name enclosed in double quotes: "
                        "line 1 column 2 (char 1)"),
    "x0 not JSON": (["--params", CUBIC_PARAMS, "--x0", "["],
                    "error: --x0 is not valid JSON: Expecting value: line 1 column 2 (char 1)"),
}


@pytest.mark.parametrize("name", sorted(INPUT_MESSAGES))
def test_bad_input_message(capsys, name):
    argv, message = INPUT_MESSAGES[name]
    code, out, err = run_cli(capsys, "iterate", "--system", "cubic-family", *argv, "--steps", "2")
    assert code == 2
    assert out == ""
    assert err == message + "\n"


NONFINITE = re.compile("nan|inf", re.IGNORECASE)

SQRT_CUBIC_HUGE_Y1 = [
    "--system", "sqrt-cubic",
    "--params", '{"alpha": [1.3e308, 1.3e308], "beta": 0.5, "gamma": 0, "k": -1, "q": -2, "r": 0}',
    "--x0", "[1, 0.5]", "--steps", "2",
]

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
    # |alpha**2 - beta**2| = 1.8e308 has finite parts, but abs() of it
    # overflows: choosing the geometric sum must not raise OverflowError.
    "solve cubic-family alpha**2 past the modulus range": (
        ["solve", "--system", "cubic-family",
         "--params", '{"a": [4.175642087076099e+153, 1.7296075840828165e+153], "b": 0, "k": 1}',
         "--x0", "[1e-200, 0]", "--steps", "2"],
        ["ell,branch,x1_re,x1_im,x2_re,x2_im,y1_re,y1_im,y2_re,y2_im",
         "0,+,6.666666666666667e-201,0,6.6666666666666656e-201,0,-2e-200,-0,0,0",
         "0,-,6.666666666666667e-201,0,6.6666666666666656e-201,0,-2e-200,-0,0,0"],
    ),
    # y1 = alpha after one step: its parts are finite, but abs(y1) overflows,
    # and the cubic inversion compares it with its head.
    "solve sqrt-cubic |y1| past the modulus range": (
        ["solve", *SQRT_CUBIC_HUGE_Y1],
        ["ell,branch,x1_re,x1_im,x2_re,x2_im,y1_re,y1_im,y2_re,y2_im",
         "0,+,1,0,0.5,0,-2.5,-0,2,0",
         "0,-,0.66666666666666663,0,1.1666666666666667,0,-2.5,-0,2,0"],
    ),
    "iterate sqrt-cubic |y1| past the modulus range": (
        ["iterate", *SQRT_CUBIC_HUGE_Y1],
        ["ell,branch,x1_re,x1_im,x2_re,x2_im", "0,,1,0,0.5,0"],
    ),
    "iterate quad-family": (
        ["iterate", "--system", "quad-family", "--params", '{"a": 1e200, "b": 0, "k": 1}',
         "--x0", "[1e100, 0]", "--steps", "3"],
        ["ell,branch,x1_re,x1_im,x2_re,x2_im", "0,,1e+100,0,0,0"],
    ),
    # x1' = a w - b (x1 - x2) cancels to 0; only x2' = a w + b (x1 - x2) overflows.
    "iterate quad-family second component only": (
        ["iterate", "--system", "quad-family", "--params", '{"a": 1, "b": 1, "k": 0}',
         "--x0", "[1e308, 0]", "--steps", "2"],
        ["ell,branch,x1_re,x1_im,x2_re,x2_im", "0,,1e+308,0,0,0"],
    ),
    # x2' = a w + b (x1 - x2) cancels to 0; only x1' = a w - b (x1 - x2) overflows.
    "iterate quad-family first component only": (
        ["iterate", "--system", "quad-family", "--params", '{"a": 1, "b": -1, "k": 0}',
         "--x0", "[1e308, 0]", "--steps", "2"],
        ["ell,branch,x1_re,x1_im,x2_re,x2_im", "0,,1e+308,0,0,0"],
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


# Each run once on stdout and once more with --out FILE, whose buffer holds the rows until the close.
@pytest.mark.parametrize(
    "name, to_file",
    [(name, to_file) for to_file in (False, True) for name in sorted(OVERFLOWING_RUNS)],
    ids=[*sorted(OVERFLOWING_RUNS), *(f"{name} --out" for name in sorted(OVERFLOWING_RUNS))],
)
def test_overflow_exits_3_after_the_finite_rows(capsys, tmp_path, name, to_file):
    argv, rows = OVERFLOWING_RUNS[name]
    path = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv, *(["--out", str(path)] if to_file else []))
    if to_file:
        assert out == ""
        out = path.read_text()
    assert code == 3
    assert out.splitlines() == rows
    assert err.startswith("error: ") and err.count("\n") == 1
    # iterate and solve name the same step: the ell of the first state not written.
    step = _states_written(out)
    assert [int(n) for n in re.findall(r"step (\d+)", err)] == [step]
    assert (f"(at step {step})" if argv[0] == "iterate" else f"failed at step {step}:") in err


#: Runs whose every value is finite though a sum of them overflows: argv and the rows written.
FINITE_PAST_A_SUM = {
    "iterate quad-family": (
        ["iterate", "--system", "quad-family", "--params", '{"a": 1, "b": 0, "k": 0}',
         "--x0", "[1e308, 0]", "--steps", "1"],
        ["ell,branch,x1_re,x1_im,x2_re,x2_im", "0,,1e+308,0,0,0", "1,+,1e+308,0,1e+308,0"],
    ),
    "solve y at step 0": (
        ["solve", "--system", "y", "--params", '{"alpha": 1, "beta": 1, "gamma": 1, "k": 1, "q": 0, "r": 0}',
         "--x0", "[1e308, 1e308]", "--steps", "0"],
        ["ell,y1_re,y1_im,y2_re,y2_im", "0,1e+308,0,1e+308,0"],
    ),
}


@pytest.mark.parametrize("name", sorted(FINITE_PAST_A_SUM))
def test_finite_values_whose_sum_overflows_are_delivered(capsys, name):
    argv, rows = FINITE_PAST_A_SUM[name]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out.splitlines(), err) == (0, rows, "")


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


def test_param_fields_are_int_or_complex():
    """The CLI passes a field annotated ``int`` on as it is and reads every other as a complex.

    So every ``init`` field is annotated ``"int"`` or ``"complex"``, as the
    string that postponed annotations leave: a field of another kind, or a
    module that does not postpone them, fails here instead of being read as a complex.
    """
    for system, spec in _SYSTEMS.items():
        for f in dataclasses.fields(spec.params):
            if f.init:
                assert f.type in ("int", "complex"), (system, spec.params.__name__, f.name, f.type)


@st.composite
def cli_runs(draw):
    system = draw(st.sampled_from(sorted(_SYSTEMS)))
    params = {}
    for f in (f for f in dataclasses.fields(_SYSTEMS[system].params) if f.init):
        if f.type == "int":
            params[f.name] = draw(st.integers(-3, 6))
        else:
            params[f.name] = draw(_complex_literals(_scalars))
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
@example(argv=OVERFLOWING_RUNS["solve sqrt-cubic |y1| past the modulus range"][0])
@example(argv=OVERFLOWING_RUNS["iterate sqrt-cubic |y1| past the modulus range"][0])
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


DEV_FULL = Path("/dev/full")
needs_dev_full = pytest.mark.skipif(not DEV_FULL.exists(), reason="no /dev/full here")

#: One short run of each command: its output fails at the close of ``--out``.
OUT_RUNS = {
    "iterate": ["iterate", "--system", "cubic-family", "--params", CUBIC_PARAMS, "--x0", "[1, 0]"],
    "solve": ["solve", "--system", "cubic-family", "--params", CUBIC_PARAMS, "--x0", "[1, 0]"],
    "verify": ["verify", "--suites", "prefactor"],
}


# A path in a missing directory fails to open; the full device opens, then fails at the close.
@pytest.mark.parametrize("command, full", [
    *(pytest.param(command, False, id=command) for command in sorted(OUT_RUNS)),
    *(pytest.param(command, True, marks=needs_dev_full, id=f"{command}-dev-full") for command in sorted(OUT_RUNS)),
])
def test_unwritable_out_exits_2(capsys, tmp_path, command, full):
    path = DEV_FULL if full else tmp_path / "missing" / "out"
    code, out, err = run_cli(capsys, *OUT_RUNS[command], "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"--out {path}" in err


@needs_dev_full
@pytest.mark.parametrize("command", sorted(OUT_RUNS))
def test_full_stdout_exits_2_with_one_line(capsys, command):
    """stdout on a full device: one ``error:`` line, and stdout is left to write nowhere."""
    with open(DEV_FULL, "w") as full, contextlib.redirect_stdout(full):
        # A long iterate fails at a write, before its rows are done; the others at the flush.
        code = main([*OUT_RUNS[command], *(["--steps", "2000"] if command == "iterate" else [])])
        assert os.path.samestat(os.fstat(full.fileno()), os.stat(os.devnull))
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: cannot write stdout: No space left on device\n"


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
    row = _Writer(buf, fmt, columns).row
    for ell, *cells in rows:
        # Every row template takes a label; a schema without a branch column drops it.
        label = cells.pop(0) if "branch" in columns else "-+"
        buf.write(row % (ell, label, *cells))


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


def _solve_rows(buf, fmt, columns, steps):
    """``solve``'s two rows per step, from the complex values: (ell, plus, minus, y) each."""
    writer = _Writer(buf, fmt, columns, shared=4)
    for ell, plus, minus, y in steps:
        tail = writer.shared % tuple(_cells(*y))
        buf.write(writer.pair % (ell, "+", *_cells(*plus), tail, ell, "-", *_cells(*minus), tail))


def _cells(*values: complex) -> list[float]:
    return [part for z in values for part in (z.real, z.imag)]


complex_pairs = st.tuples(*[st.builds(complex, reals, reals)] * 2)
#: One ``solve`` step each: (ell, plus, minus, y).
solve_steps = st.lists(st.tuples(st.integers(-(2**70), 2**70), complex_pairs, complex_pairs, complex_pairs), max_size=4)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@given(steps=solve_steps)
@example(steps=[(2**70, (complex(-0.0, 5e-324), complex(1e308, -1e308)),
                 (complex(-2.2250738585072014e-308, -0.0), 0j), (complex(0.1, -1e308), complex(-0.0, 1e16)))])
@example(steps=[(0, (0j, 0j), (complex(-0.0, -0.0), 0j), (complex(5e-324, -5e-324), complex(-1e308, 0.0)))])
def test_row_pair_matches_csv_and_json_modules(fmt, steps):
    columns = _state_columns("cubic-family", with_y=True)
    rows = [
        row
        for ell, plus, minus, y in steps
        for row in ([ell, "+", *_cells(*plus, *y)], [ell, "-", *_cells(*minus, *y)])
    ]
    assert _written(_solve_rows, fmt, columns, steps) == _written(_reference, fmt, columns, rows)


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
        """In one line that lists every suite, in order: the help says only "default: all"."""
        code, out, err = run_cli(capsys, "verify", "--suites", "bogus")
        assert code == 2
        assert out == ""
        assert err == f"error: unknown verify suites: bogus; known: {', '.join(SUITE_NAMES)}\n"

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


def _package_env() -> dict[str, str]:
    """The environment of a child interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@needs_dev_full
def test_stdout_to_a_full_device_exits_2_with_one_line():
    """The interpreter's flush of stdout at exit adds no second line."""
    with open(DEV_FULL, "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "solvmaps.cli", *LONG_RUNS["iterate"]],
            stdout=full, stderr=subprocess.PIPE, env=_package_env(), text=True, timeout=60,
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: No space left on device\n"


@pytest.mark.parametrize("command", sorted(LONG_RUNS))
def test_closed_stdout_exits_2_without_a_traceback(command):
    """A reader that stops after one line, as ``| head -1`` does."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "solvmaps.cli", *LONG_RUNS[command]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_package_env(), text=True,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo here")
def test_out_fifo_closed_early_exits_2_naming_its_path(tmp_path):
    """A reader of an ``--out`` FIFO that stops after one line: the line names the FIFO."""
    fifo = tmp_path / "rows"
    os.mkfifo(fifo)
    proc = subprocess.Popen(
        [sys.executable, "-m", "solvmaps.cli", *LONG_RUNS["iterate"], "--steps", "200000", "--out", str(fifo)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=_package_env(), text=True,
    )
    with open(fifo) as reader:
        assert reader.readline()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == f"error: cannot write --out {fifo}: {os.strerror(errno.EPIPE)}\n"


# --- one parser per process ----------------------------------------------------

ITERATE_ARGS = ["--system", "cubic-family", "--params", CUBIC_PARAMS, "--x0", "[1, 0]", "--steps", "3"]

#: One run of each kind, in an order where a parser that kept anything from
#: a run would change a later one: ``iterate`` without ``--signs`` comes
#: after an ``iterate`` with them, and every run follows a usage error.
PARSER_RUNS = [
    ["solve", "--system", "nope"],
    ["iterate", *ITERATE_ARGS, "--signs=-+-"],
    ["solve", *ITERATE_ARGS],
    ["verify", "--suites", "quad-family"],
    ["iterate", *ITERATE_ARGS],
]


def _run_any_exit(capsys, argv):
    """(exit code, stdout, stderr) of ``main(argv)``; a usage error exits by ``SystemExit``."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_run_as_a_fresh_one_would(capsys):
    fresh = []
    for argv in PARSER_RUNS:
        build_parser.cache_clear()
        fresh.append(_run_any_exit(capsys, argv))
    build_parser.cache_clear()
    reused = [_run_any_exit(capsys, argv) for argv in PARSER_RUNS]
    assert build_parser.cache_info().misses == 1  # built once, by the first run
    assert [code for code, _, _ in reused] == [2, 0, 0, 0, 0]
    assert reused == fresh
    assert reused[1][1] != reused[4][1]  # the --signs=-+- orbit is not the all-'+' one


def test_import_builds_no_parser():
    """``import solvmaps.cli`` constructs no ``ArgumentParser``: the first ``main()`` does."""
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "import solvmaps.cli\n"
        "print(len(built))\n"
        "solvmaps.cli.build_parser()\n"
        "print(len(built) > 0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=_package_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True"]


def test_import_leaves_verify_to_the_verify_command(tmp_path):
    """``import solvmaps.cli`` does not load ``solvmaps.verify``: a ``solve`` or
    ``iterate`` process never compiles it.  The first ``verify`` command does."""
    path = tmp_path / "report.json"
    script = (
        "import sys\n"
        "import solvmaps.cli\n"
        "print('solvmaps.verify' in sys.modules)\n"
        "code = solvmaps.cli.main(['verify', '--suites', 'prefactor', '--out', sys.argv[1]])\n"
        "print('solvmaps.verify' in sys.modules, code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)], env=_package_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "0"]
    assert [s["name"] for s in json.loads(path.read_text())["suites"]] == ["prefactor"]
