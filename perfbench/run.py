"""Closed-loop benchmark of the solvmaps CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one thread: each operation is one in-process call of
``solvmaps.cli.main(argv)`` writing to a scratch file, and the next starts
only after the previous one finished and its output was checked against the
workload's independent oracle (see ``workloads.py``).  The package is
imported from ``src/`` of the checkout this script sits in; the script fails
without printing a result when that tree is missing.

``--trace 0`` measures the end-to-end metrics, with times scaled to a
nominal machine speed (see ``SpeedProbe``).  ``--trace 1`` runs a fixed
block of the workload's operations over and over, each once untraced and
once with the layers wrapped (``tracing.py``), requires the two outputs to be
byte-identical, and reports the per-layer metrics plus the tracing overhead.

Human-readable lines go to stdout first; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402
from workloads import FULL_PASS, TRACE_BLOCK, WORKLOADS, Op, Outcome  # noqa: E402

#: Fresh interpreters started per run to time ``import solvmaps.cli`` (median reported).
SETUP_REPEATS = 7

#: Nominal duration of reference_kernel(copy_rows): about its median on the
#: machine in README.md.
REF_NOMINAL_S = {False: 0.003, True: 0.004}

#: Workloads whose time goes largely into building and writing long rows;
#: their reference kernel copies strings as well as doing arithmetic.
COPIES_ROWS = {"iterate-long"}

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def load_cli():
    """Import ``solvmaps.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "solvmaps" / "cli.py").is_file():
        raise SystemExit(f"error: no solvmaps sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import solvmaps.cli

    if Path(solvmaps.cli.__file__).resolve().parent != (SRC / "solvmaps").resolve():
        raise SystemExit(f"error: solvmaps was imported from {solvmaps.cli.__file__}, not {SRC}")
    return solvmaps.cli


_BIG = (1 << 4000) - 1
_SIGNS = "+-" * 20_000


def reference_kernel(copy_rows: bool) -> int:
    """Fixed pure-Python work that never touches solvmaps: complex and big-int
    arithmetic and float formatting, plus with ``copy_rows`` the slicing and
    copying of long strings.  Its duration tracks the speed the machine gives
    this process to that kind of work."""
    z, acc = complex(0.6, 0.8), 0j
    parts = []
    buf = io.StringIO()
    for i in range(5000 if copy_rows else 10_000):
        acc = acc * z + z
        _ = _BIG >> (i % 4000)
        if i % 20 == 0:
            parts.append(f"{acc.real:.17g}")
        if copy_rows and i % 50 == 0:
            buf.write(_SIGNS[: (i * 8) % 40_000])
    return len(buf.getvalue().encode()) + len(",".join(parts))


class SpeedProbe:
    """Scales wall times to the machine speed at which the reference kernel
    takes its nominal time.

    Other tenants of a shared host slow this process down by up to a factor
    of two for seconds at a time, which moves every wall-clock figure by more
    than any bound worth setting.  The kernel runs before the first and after
    every timed interval; an interval is scaled by the nominal time over the
    mean kernel time on its two sides.  Raw figures are printed as well.
    """

    def __init__(self, copy_rows: bool):
        self.copy_rows = copy_rows
        self.nominal = REF_NOMINAL_S[copy_rows]
        self.last = self.nominal

    def start(self) -> None:
        """Probe once; the next scaled interval must start right after this."""
        self.last = self._probe()

    def _probe(self) -> float:
        t0 = time.perf_counter()
        reference_kernel(self.copy_rows)
        return time.perf_counter() - t0

    def scale(self, seconds: float) -> float:
        """``seconds`` (just measured) at nominal speed."""
        now = self._probe()
        factor = self.nominal / ((self.last + now) / 2)
        self.last = now
        return seconds * factor


def measure_setup(probe: SpeedProbe) -> tuple[float, float]:
    """Median time of a fresh interpreter running ``import solvmaps.cli``: (raw, scaled)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import solvmaps.cli"]
    raw, scaled = [], []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdin=subprocess.DEVNULL, cwd=ROOT)
        dt = time.perf_counter() - t0
        if i:  # the first start only warms the file cache
            raw.append(dt)
            scaled.append(probe.scale(dt))
        else:
            probe.start()
    return statistics.median(raw), statistics.median(scaled)


class Runner:
    """Runs one CLI operation in-process and returns (exit code, seconds, output bytes)."""

    def __init__(self, cli, scratch: Path):
        self.cli = cli
        self.path = scratch / "out"
        self.last_stderr = ""

    def run(self, op: Op) -> tuple[int, float, bytes]:
        argv = op.argv + ["--out", str(self.path)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)  # looked up per call, so tracing can rebind it
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed operation, not a benchmark abort
                rc = 1
                print(f"uncaught {type(exc).__name__}: {exc}", file=err)
            dt = time.perf_counter() - t0
        self.last_stderr = err.getvalue()
        data = self.path.read_bytes() if self.path.exists() else b""
        self.path.unlink(missing_ok=True)
        return rc, dt, data


def _row_count(op: Op, data: bytes) -> int:
    if op.argv[0] == "verify":
        return 1
    lines = data.count(b"\n")
    return lines if "jsonl" in op.argv else lines - 1  # csv has a header line


def _tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _note_failure(outcome: Outcome, op: Op, runner: Runner, shown: list) -> None:
    if outcome.failed and len(shown) < 5 and op.label not in shown:
        shown.append(op.label)
        stderr = runner.last_stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        print(f"  failed op [{op.label}]: {outcome.mismatch or stderr[0]}")


def run_untraced(
    name: str, seed: int, seconds: float, runner: Runner, probe: SpeedProbe, full_pass: int | None = None
) -> tuple[dict, int, int, bool]:
    """Times operations until ``seconds`` are used up and at least
    ``full_pass`` operations are done.  Each distinct operation is judged by
    its oracle once and counted once in attempted/failed; when it comes round
    again it is timed, and its output must be byte-identical to the first."""
    ops = WORKLOADS[name](seed)
    min_ops = FULL_PASS.get(name, 1) if full_pass is None else full_pass
    first = next(ops)
    _, _, warm = runner.run(first)  # warm-up, untimed; also the first repeat reference
    digests = {tuple(first.argv): hashlib.sha256(warm).digest()}
    del warm
    judged: dict[tuple[str, ...], Outcome] = {}
    raw: list[float] = []
    times: list[float] = []  # at nominal speed
    steps = reports = 0
    shown: list = []
    probe.start()
    start = time.perf_counter()
    op = first
    while True:
        rc, dt, data = runner.run(op)
        times.append(probe.scale(dt))
        raw.append(dt)
        key = tuple(op.argv)
        outcome = judged.get(key)
        if outcome is None:
            outcome = judged[key] = op.check(rc, data)
            _note_failure(outcome, op, runner, shown)
        digest = hashlib.sha256(data).digest()
        del data  # hold at most one output at a time
        if digests.setdefault(key, digest) != digest and outcome.mismatch is None:
            outcome.failed, outcome.mismatch = True, "repeated operation is not byte-identical"
            _note_failure(outcome, op, runner, shown)
        if outcome.mismatch is None:
            steps += outcome.steps
            reports += 1
        if len(times) >= min_ops and time.perf_counter() - start >= seconds:
            break
        op = next(ops)

    outcomes = list(judged.values())
    n = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = all(o.mismatch is None for o in outcomes)
    tail, pct, beyond = _tail(times)
    metrics = {
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail,
        "steps_per_s": steps / sum(times),
        "reports_per_s": reports / sum(times),
        "pass_ratio": (n - failed) / n,
    }
    print(f"  op_s.tail is p{pct:.1f} of {len(times)} timed operations ({beyond} beyond it), "
          f"{n} distinct")
    print(f"  raw wall clock: op_s.p50 {statistics.median(raw):.4g} s, op_s.tail {_tail(raw)[0]:.4g} s, "
          f"steps_per_s {steps / sum(raw):.5g} 1/s, reports_per_s {reports / sum(raw):.4g} 1/s "
          f"(machine at {statistics.median(raw) / statistics.median(times):.2f}x nominal time)")
    print(f"  fail_ratio {failed / n:.4f} ({failed} failed / {n} attempted)")
    print(f"  max_rel_err {max(o.max_err for o in outcomes):.3e} 1 (worst normalized deviation from the oracle)")
    return metrics, n, failed, correct


def run_traced(
    name: str, seed: int, seconds: float, runner: Runner, block_size: int | None = None
) -> tuple[dict, int, int, bool]:
    from solvmaps.verify import SUITE_NAMES, run_verify

    block = list(itertools.islice(WORKLOADS[name](seed), block_size or TRACE_BLOCK[name]))
    runner.run(block[0])  # warm-up, untimed
    tracer = Tracer()
    suite_s = dict.fromkeys(SUITE_NAMES, 0.0)
    plain_s = traced_s = 0.0
    rows = out_bytes = n = 0
    # Each operation of the block is judged in the first block and counted once
    # in attempted/failed; later blocks must repeat its output byte for byte.
    outcomes: list[Outcome] = []
    digests: list[bytes] = []
    shown: list = []
    start = time.perf_counter()
    blocks = 0
    while blocks == 0 or time.perf_counter() - start < seconds:
        tracer.recording = blocks == 0  # spans for the first block only; counts for all
        for index, op in enumerate(block):
            rc, dt, data = runner.run(op)
            tracer.install()
            tracer.begin_op(n)
            try:
                rc_t, dt_t, data_t = runner.run(op)
            finally:
                tracer.end_op()
                tracer.uninstall()
            digest = hashlib.sha256(data).digest()
            if blocks == 0:
                outcome = op.check(rc, data)
                outcomes.append(outcome)
                digests.append(digest)
            else:
                outcome = outcomes[index]
                if digest != digests[index] and outcome.mismatch is None:
                    outcome.failed, outcome.mismatch = True, "repeated operation is not byte-identical"
            if (rc_t, data_t) != (rc, data) and outcome.mismatch is None:
                outcome.failed, outcome.mismatch = True, "traced output differs from untraced output"
            if op.argv[0] == "verify" and outcome.mismatch is None:
                seed_i = int(op.argv[op.argv.index("--seed") + 1])
                full = json.loads(data)["suites"]
                for suite_index, suite in enumerate(SUITE_NAMES):
                    t0 = time.perf_counter()
                    alone = run_verify(seed_i, [suite])
                    suite_s[suite] += time.perf_counter() - t0
                    if json.dumps(alone.to_dict()["suites"][0], sort_keys=True) != json.dumps(full[suite_index], sort_keys=True):
                        outcome.failed, outcome.mismatch = True, f"suite {suite} run alone differs from the full report"
            _note_failure(outcome, op, runner, shown)
            n += 1
            plain_s += dt
            traced_s += dt_t
            rows += _row_count(op, data)
            out_bytes += len(data)
        blocks += 1

    metrics = tracer.layer_metrics(n, traced_s)
    for suite in SUITE_NAMES:
        metrics[f"verify.suite.{suite}.pct"] = 100.0 * suite_s[suite] / plain_s
    metrics["cli.rows"] = rows / n
    metrics["cli.bytes_out"] = out_bytes / n
    metrics["cli.bytes_per_row"] = out_bytes / rows if rows else 0.0
    metrics["trace.overhead"] = traced_s / plain_s
    metrics["oracle.max_rel_err"] = max(o.max_err for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = all(o.mismatch is None for o in outcomes)

    spans = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(spans)
    print(f"  {n} operations in {blocks} blocks of {len(block)}; {len(tracer.spans)} spans -> {spans.relative_to(ROOT)}")
    print(f"  tracing overhead {metrics['trace.overhead']:.2f}x ({traced_s:.3f} s traced / {plain_s:.3f} s untraced)")
    print("  self time per operation, largest first:")
    for layer, (calls, self_s) in sorted(tracer.stats.items(), key=lambda kv: -kv[1][1]):
        if calls:
            print(f"    {layer:<18} {1e3 * self_s / n:10.3f} ms  {100 * self_s / traced_s:5.1f} %  {calls / n:12.1f} calls")
    return metrics, len(outcomes), failed, correct


def machine() -> str:
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"{platform.python_implementation()} {platform.machine()} {platform.system()}")


def measure(workload: str, seed: int, seconds: float, trace: bool, block: int | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line.

    ``block`` overrides the operations per traced block, or untraced, the
    operations a run must complete (the workload's whole pass by default).
    """
    cli = load_cli()
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        print(f"solvmaps benchmark: workload {workload}, seed {seed}, {seconds:g} s, trace {int(trace)}; "
              f"closed loop, 1 client; {machine()}")
        runner = Runner(cli, scratch)
        if trace:
            metrics, n, failed, correct = run_traced(workload, seed, seconds, runner, block)
        else:
            probe = SpeedProbe(copy_rows=workload in COPIES_ROWS)
            setup_raw, setup = measure_setup(probe)
            print(f"  setup_s raw wall clock {setup_raw:.4g} s")
            metrics, n, failed, correct = run_untraced(workload, seed, seconds, runner, probe, block)
            metrics["setup_s"] = setup
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = metric_units()
    for key, value in metrics.items():
        print(f"  {key:<32} {value:.6g} {units[key]}")
    return {
        "correct": correct,
        "attempted": n,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


def metric_units() -> dict[str, str]:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
