"""Golden outputs: the CLI's bytes for fixed inputs, pinned by sha256.

The pinned digests were taken before the closed forms started sharing
squarings across an orbit; any change to the order of floating-point
operations in ``numeric``, ``ysystem`` or the solvers shows up here.  The
verify reports and the ``quad-family`` solve were re-pinned when the family
solvers started reading their zeros off (y1, +/-sqrt(D)): the verify
residuals near a double zero shrank, and the quadratic family's branch labels
now follow the principal root of D, so its two rows swap at every odd ell
(the values are unchanged).  The verify reports were re-pinned again when the
square-root step maps became ``y_step`` between the bridge and its inverse:
only the two ``reductions`` square-root residuals moved, by roundoff.  Both
were re-pinned once more when the closed forms started reading the scale off
y1 where k divides q and summing the general form's gamma terms by Horner's
rule along the orbit:

- the verify reports for seeds 42, 17 and 138 moved by roundoff only (seed
  42's ``y-closed`` "closed-form equals iteration" went from
  4.29873422567016e-14 to 4.27807235020338e-14);
- the ``sqrt-cubic`` solve CSV changed only in signed zeros (``-0`` became
  ``0`` in ``y2_im`` at every fourth ``ell``); no value moved.

The three verify reports were re-pinned when each suite's ``notes`` list
went: the new bytes are the old ones without their ``"notes": [],`` lines,
since no note had ever fired.  They were re-pinned last when each
property's ``detail`` text went: the new bytes are the old ones without
their ``"detail": ...`` lines (``grep -v '"detail": '``).

The three verify reports and the ``quad-family k=2 x20`` CSV were re-pinned
when k >= 1 orbits started taking y1 = alpha**S(ell) y1(0)**(3**ell) off a
radix-(1+k) ladder instead of the binary one: for k = 2 the powers of alpha
and y1(0) are now products of different factors, so they move by roundoff
(``verify`` draws k = 2 in its y-closed, quad-family and cubic-collapse
suites).  For k = 1 and k = 3 the ladder forms the very products the binary
ladder did, so no k = 1 pin moved.  The ``max_residual`` lines that moved,
old -> new:

- seed 42: y-closed "closed-form equals iteration" 4.27807235020338e-14 ->
  2.874783833584265e-14 and "semigroup property" 6.2399000035075054e-15 ->
  1.6586414850711113e-14;
- seed 17: y-closed "closed-form equals iteration" 2.0809492718392944e-14 ->
  9.437161721615523e-15 and "semigroup property" 8.604967118109196e-16 ->
  8.131676712807145e-16, quad-family "orbits match closed-form unordered
  pair" 1.0353024398672671e-13 -> 1.013454352009008e-13, cubic-collapse
  "2**ell orbits collapse to solver branch pair" 2.0127804066734015e-09 ->
  2.0127818763954e-09;
- seed 138: the same four, 1.2969704569776699e-14 -> 1.495967260790884e-14,
  6.491225114580573e-15 -> 7.759109135680533e-15, 8.799540918681957e-14 ->
  7.850505492661308e-14 and 2.5755545599650405e-14 -> 1.47109646875517e-14.

The ``cubic-family`` and ``quad-family`` CSVs and the JSONL pin did not
change: their inputs are exact, and so is every product the scale is read
off.  The ``solve`` instances follow the long-orbit benchmark workload (bases that are
fourth roots of unity, so nothing overflows), cut to 200 steps.

Every other ``solve`` pin has inputs that are Gaussian integers or fourth
roots of unity, so its products are exact and cannot show a change in
rounding order.  The first three ``INEXACT_SOLVE_CASES`` pins have inputs that
round: a ``quad-family`` k=2 orbit, whose 3**ell exponents come off the
radix-3 ladder; a general-form ``sqrt-quad`` with k not
dividing q and gamma != 0, whose scale comes from its exponents and whose
gamma terms are summed by Horner's rule; and a ``cubic-family`` orbit near
alpha**2 = beta**2, whose geometric sum is built by doubling and whose y1
overflows at step 10, so its exit code and message are pinned too.  They
were taken before each closed-form step became one pass over its factors,
and that change left them as they were.  Four more cover the systems no
inexact pin reached: a ``generalized`` and a ``conjugated`` orbit, a
``sqrt-cubic`` orbit whose two branches come from (y1, y2) alone, and a
general-form ``y`` orbit that overflows at step 10; with them, an inexact
``quad-family`` orbit pins the JSONL output.  They were taken before the
solvers started inverting both branches in one call and writing each step's
rows straight from the complex values, and that change left them as they were.
The ``sqrt-quad`` pin was re-pinned when its solver stopped putting the larger
zero first and began labelling its branches by the principal root of
y1**2 - 4 y2, as every other ``solve`` system does: no value moved, and the
two rows of a step trade places at 101 of its 201 steps.

The ``iterate`` and JSONL pins were taken while rows still went through
``csv.writer`` and ``json.dumps``, so they also pin the byte conventions of
the row formatter: number spellings, separators and line ends.  The
``sqrt-quad`` and ``sqrt-cubic`` iterate pins were taken later, on the step
maps that go through ``y_step``.  The ``cubic-family`` and ``generalized``
iterate pins were taken last, before the cubic zero pairs became plain
tuples and the ``iterate`` rows started being written straight from the
complex values; that change left every pin as it was.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from solvmaps.cli import main


def _sha256_of_run(tmp_path, argv, exit_code=0) -> str:
    path = tmp_path / "out"
    assert main([*argv, "--out", str(path)]) == exit_code
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_verify_seed_42_report(tmp_path, capsys):
    digest = _sha256_of_run(tmp_path, ["verify", "--seed", "42"])
    assert digest == VERIFY_SEED_42


def test_verify_seed_42_report_when_the_command_imports_verify(tmp_path):
    """The same bytes from a fresh interpreter, where ``cmd_verify`` is the
    first to import ``solvmaps.verify``, as in a ``solvmaps verify`` process."""
    path = tmp_path / "out"
    script = (
        "import sys\n"
        "import solvmaps.cli\n"
        "assert 'solvmaps.verify' not in sys.modules\n"
        "sys.exit(solvmaps.cli.main(['verify', '--seed', '42', '--out', sys.argv[1]]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(path.read_bytes()).hexdigest() == VERIFY_SEED_42


@pytest.mark.parametrize("seed", [17, 138])
def test_near_double_zero_verify_report(tmp_path, capsys, seed):
    """Seeds whose worst draw nears a double zero, where zeros rebuilt from
    sqrt(y1**2 - c y2) failed the collapse tolerance; they pass now."""
    digest = _sha256_of_run(tmp_path, ["verify", "--seed", str(seed)])
    assert digest == VERIFY_NEAR_DOUBLE_ZERO[seed]


SOLVE_CASES = {
    "cubic-family k=1": [
        "--system", "cubic-family",
        "--params", json.dumps({"a": [1 / 3, 0], "b": [0, 1 / 3], "k": 1}),
        "--x0", "[[0, 1], [-1, -2]]",
    ],
    "quad-family k=2": [
        "--system", "quad-family",
        "--params", json.dumps({"a": [0, -0.5], "b": [0.5, 0], "k": 2}),
        "--x0", "[[-1, 0], [1, 1]]",
    ],
    "sqrt-cubic q=1 r=3": [
        "--system", "sqrt-cubic",
        "--params", json.dumps(
            {"alpha": [0, 1], "beta": [-1, 0], "gamma": [0, -1], "k": 1, "q": 1, "r": 3}
        ),
        "--x0", "[[1, 0], [-2, -1]]",
    ],
}


@pytest.mark.parametrize("name", sorted(SOLVE_CASES))
def test_solve_csv(tmp_path, name):
    digest = _sha256_of_run(tmp_path, ["solve", *SOLVE_CASES[name], "--steps", "200"])
    assert digest == SOLVE_CSV[name]


X0 = "[[0.6, -0.2], [-0.3, 0.7]]"

#: Inexact inputs, so every product rounds and a change in the order of
#: floating-point operations shows: (arguments, exit code, last stderr line).
INEXACT_SOLVE_CASES = {
    # |2a| and |y1(0)| are 1 only to rounding; the powers alpha**S(ell) and
    # y1(0)**(3**ell) come off the radix-3 ladder.
    "quad-family k=2 x20": ([
        "--system", "quad-family",
        "--params", json.dumps({"a": [0.4776682445466, 0.1477601033306], "b": [0.2267961, 0.4456104], "k": 2}),
        "--x0", "[[0.3, 0.5], [-0.9, -1.3]]", "--steps", "20",
    ], 0, ""),
    # k does not divide q, so the scale comes from its exponents; gamma != 0,
    # so the gamma terms are summed by Horner's rule along the orbit.
    "sqrt-quad k=-2 q=1 r=3 x200": ([
        "--system", "sqrt-quad",
        "--params", json.dumps(
            {"alpha": [0.9, 0.3], "beta": [0.4, -0.2], "gamma": [0.5, 0.5], "k": -2, "q": 1, "r": 3}
        ),
        "--x0", "[[0.6, -0.2], [-0.3, 0.7]]", "--steps", "200",
    ], 0, ""),
    # 2 |alpha**2 - beta**2| <= |beta**2|: the geometric sum is built by doubling.
    # y1 overflows at step 10.
    "cubic-family near alpha**2 = beta**2": ([
        "--system", "cubic-family",
        "--params", json.dumps({"a": [0.35, 0.1], "b": [0.36, 0.09], "k": 1}),
        "--x0", "[[0.7, 0.2], [-0.4, 0.9]]", "--steps", "40",
    ], 3, "error: closed-form evaluation failed at step 10: "
          "result overflowed to a non-finite value; output truncated"),
    # A generalized B/C orbit that settles near a double zero (D -> 0).
    "generalized k=-1 x200": ([
        "--system", "generalized",
        "--params", json.dumps({
            "alpha": [0.9, 0.3], "beta": [0.2, -0.25], "B1": [1.1, 0.1], "B2": [0.7, -0.3],
            "C1": [0.4, 0.2], "C2": [-0.3, 0.6], "C3": [0.25, 0.1], "k": -1,
        }),
        "--x0", X0, "--steps", "200",
    ], 0, ""),
    "conjugated k=-1 x200": ([
        "--system", "conjugated",
        "--params", json.dumps({
            "a": [0.9, 0.3], "b": [0.2, -0.25], "k": -1,
            "A11": [1.1, 0.1], "A12": [0.2, 0], "A21": [0, -0.15], "A22": [0.95, 0.05],
        }),
        "--x0", X0, "--steps", "200",
    ], 0, ""),
    # Both branches of the square-root cubic inversion, from (y1, y2) alone.
    "sqrt-cubic k=-1 q=-3 r=1 x200": ([
        "--system", "sqrt-cubic",
        "--params", json.dumps(
            {"alpha": [0.9, 0.3], "beta": [0.4, -0.2], "gamma": [0.5, 0.5], "k": -1, "q": -3, "r": 1}
        ),
        "--x0", X0, "--steps", "200",
    ], 0, ""),
    # A general-form y orbit with k dividing q; y2 overflows at step 10.
    "y k=1 q=2 r=1 x40": ([
        "--system", "y",
        "--params", json.dumps(
            {"alpha": [0.9, 0.3], "beta": [0.4, -0.2], "gamma": [0.5, 0.5], "k": 1, "q": 2, "r": 1}
        ),
        "--x0", X0, "--steps", "40",
    ], 3, "error: closed-form evaluation failed at step 10: "
          "result overflowed to a non-finite value; output truncated"),
}


@pytest.mark.parametrize("name", sorted(INEXACT_SOLVE_CASES))
def test_solve_csv_inexact(tmp_path, capsys, name):
    argv, exit_code, message = INEXACT_SOLVE_CASES[name]
    assert _sha256_of_run(tmp_path, ["solve", *argv], exit_code) == SOLVE_CSV_INEXACT[name]
    assert capsys.readouterr().err.strip() == message


def test_solve_jsonl(tmp_path):
    argv = ["solve", *SOLVE_CASES["cubic-family k=1"], "--steps", "200", "--format", "jsonl"]
    assert _sha256_of_run(tmp_path, argv) == SOLVE_JSONL_CUBIC


def test_solve_jsonl_inexact(tmp_path):
    argv = [
        "solve", "--system", "quad-family",
        "--params", json.dumps({"a": [0.9, 0.3], "b": [0.2, -0.25], "k": -1}),
        "--x0", X0, "--steps", "200", "--format", "jsonl",
    ]
    assert _sha256_of_run(tmp_path, argv) == SOLVE_JSONL_QUAD_INEXACT


#: A mixed sign string that starts with '-' (Thue-Morse, from index 1).
SIGNS_500 = "".join("+-"[bin(i).count("1") % 2] for i in range(1, 501))

#: The y-system parameters of the ``y``, ``sqrt-quad`` and ``sqrt-cubic`` cases:
#: with k = -1, y1 is alpha after one step, and |beta / alpha| < 1 contracts y2.
Y_PARAMS = {"alpha": [0.9, 0.3], "beta": [0.4, -0.2], "gamma": [0.5, 0.5], "k": -1, "q": -2, "r": 0}

#: Contracting k = -1 orbits, so all 500 steps stay finite.
ITERATE_CASES = {
    "quad-family k=-1": [
        "--system", "quad-family",
        "--params", json.dumps({"a": [0.9, 0.3], "b": [0.2, -0.25], "k": -1}),
        "--x0", X0, f"--signs={SIGNS_500}",
    ],
    "conjugated k=-1": [
        "--system", "conjugated",
        "--params", json.dumps({
            "a": [0.9, 0.3], "b": [0.2, -0.25], "k": -1,
            "A11": [1.1, 0.1], "A12": [0.2, 0], "A21": [0, -0.15], "A22": [0.95, 0.05],
        }),
        "--x0", X0, f"--signs={SIGNS_500}",
    ],
    "cubic-family k=-1": [
        "--system", "cubic-family",
        "--params", json.dumps({"a": [0.9, 0.3], "b": [0.2, -0.25], "k": -1}),
        "--x0", X0, f"--signs={SIGNS_500}",
    ],
    "generalized k=-1": [
        "--system", "generalized",
        "--params", json.dumps({
            "alpha": [0.9, 0.3], "beta": [0.2, -0.25], "B1": [1.1, 0.1], "B2": [0.7, -0.3],
            "C1": [0.4, 0.2], "C2": [-0.3, 0.6], "C3": [0.25, 0.1], "k": -1,
        }),
        "--x0", X0, f"--signs={SIGNS_500}",
    ],
    "y k=-1": [
        "--system", "y",
        "--params", json.dumps(Y_PARAMS), "--x0", X0,
    ],
    "sqrt-quad k=-1": [
        "--system", "sqrt-quad",
        "--params", json.dumps(Y_PARAMS), "--x0", X0, f"--signs={SIGNS_500}",
    ],
    "sqrt-cubic k=-1": [
        "--system", "sqrt-cubic",
        "--params", json.dumps(Y_PARAMS), "--x0", X0, f"--signs={SIGNS_500}",
    ],
}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("name", sorted(ITERATE_CASES))
def test_iterate(tmp_path, name, fmt):
    argv = ["iterate", *ITERATE_CASES[name], "--steps", "500", "--format", fmt]
    assert _sha256_of_run(tmp_path, argv) == ITERATE[name, fmt]


VERIFY_SEED_42 = "fc244eb561a06f03cab03a7eff82a461f23fc9c736df80a641907e1492b582aa"

#: Seed 17's worst draw is in cubic-collapse, seed 138's in quad-family.
VERIFY_NEAR_DOUBLE_ZERO = {
    17: "1bfab368109d3faa83ca58e9a20056cafa73d219ae34e32b2297b35803a2853f",
    138: "151b6aefd2431831f1f7e6a5b87fd375fef356362459e023caebbc562852fe4e",
}

SOLVE_CSV = {
    "cubic-family k=1": "ddb0a2b3f7b8d281ff5bea09b98684ff31fd38c18e4446c8530a370fd301464b",
    "quad-family k=2": "c51a89484a0c62ebb272bff0e6c43d3d8e1192b9dc364587e98b16b29d7ca093",
    "sqrt-cubic q=1 r=3": "ec06dd79082dd75499881b683c69d6dace87b04d883508ed050e1b3f286cf728",
}

SOLVE_CSV_INEXACT = {
    "quad-family k=2 x20": "cff776e46d056753f0fd531689389da0e3dfbbff2b874898264b41ba2e9cada8",
    "sqrt-quad k=-2 q=1 r=3 x200": "4f0836f28ba55dcd9b7ba5eac0914c5af2e194c3dacfe6197f31ea8752f442dd",
    "cubic-family near alpha**2 = beta**2": "c030141026caf6c1999b56ea252f012ea3569845f8c97bf7359e8068915e3cdb",
    "generalized k=-1 x200": "15e6f63872a6873842813773d673ba56cd3d4f900c3706a997e239a6047086aa",
    "conjugated k=-1 x200": "811b6dd0b82d3897ee13566dc0ada9e66ed3164b39d39d677dd0b02ea92de3ee",
    "sqrt-cubic k=-1 q=-3 r=1 x200": "dd37fd8b20a078c2235a15158e0a6af05ab67a69d9f3094ccf841ced0107ec87",
    "y k=1 q=2 r=1 x40": "6d06b6c78b0a26eb4a05ed752d72b6f11bd8b0535b54d7bf1f11d14d583d434c",
}

SOLVE_JSONL_CUBIC = "a14d3622fd114828d819598cea04bbcb9f3103ae7be274df4f2218676f359201"

SOLVE_JSONL_QUAD_INEXACT = "bf71bacc7008f2e2484a322d7463885b9d4ae5670ca7d25d1bb992f9fa551ecc"

ITERATE = {
    ("quad-family k=-1", "csv"): "bc829171bf0151f792c5216f06a0745963ab8727a99e00bebec975985752ca6d",
    ("quad-family k=-1", "jsonl"): "80d9fb605ad6a9be269b103728664030180b8c7fe9796621bf58eef170513209",
    ("conjugated k=-1", "csv"): "c418598fe3f954da8f6aca43082ae144a5908998dd4159c655dc5802f0dbc27e",
    ("conjugated k=-1", "jsonl"): "a4e7469e7a1afe5e28c778ffd5fbc2a846848515b6d9b8e0fbaded33ae5ec9f2",
    ("cubic-family k=-1", "csv"): "c76b22444999908acfcb3252839d183aeeb589608f40115dd9a5c673cac7ead0",
    ("cubic-family k=-1", "jsonl"): "8acec188568d8cda829cecc2fb09259d9dc593949f5961f774a3ad6a34d3c911",
    ("generalized k=-1", "csv"): "ef6866439ce1b34c253aaed79fa1148b6f7f5e7ceb2f2fc15c249961b6a584a7",
    ("generalized k=-1", "jsonl"): "e32f569f06f0db23635dcf13a873a2220c3431f6077e2facda06fa3b6398d3a4",
    ("y k=-1", "csv"): "a3ea146e763da83c11b6189d2f8a250feaa74b0fdef4fb8a67c2045b2cde9df3",
    ("y k=-1", "jsonl"): "72e5eac01ff8b27abfba8887793d2018dc84d66afa9309cf6835a4eadbc0a11e",
    ("sqrt-quad k=-1", "csv"): "220a4a090f56e8025295436f5c7f70c66baaaec112e0bb0bce49b5679fcc49c5",
    ("sqrt-quad k=-1", "jsonl"): "0287540fc82daa46a6da7fc5b8c793ccde2327fbcf3f3dd2199876fa507b5c94",
    ("sqrt-cubic k=-1", "csv"): "9ddd22566d2562a3e306d8245b12b13826ea74d01fc1787190e2195e360810c0",
    ("sqrt-cubic k=-1", "jsonl"): "797960c175f456a90c966539bbc81dae8ccaf1310accfbf82f3914c6ec82e4b7",
}
