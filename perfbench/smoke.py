"""One-operation smoke check of the benchmark itself.

    python3 perfbench/smoke.py

For every workload it runs one untraced and one traced operation through the
same code as ``run.py`` and checks that every metric named in
``BENCHMARK.json`` appears with its unit and that the outputs were judged
correct.  It then perturbs one row of a real output and checks that the
workload's oracle rejects it.  Exit code 0 means all checks held.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS, Op


def _perturb(op: Op, data: bytes) -> bytes:
    """Change one delivered value in the middle of the output."""
    if op.argv[0] == "verify":
        return data.replace(b'"draws": ', b'"draws": 1', 1)
    lines = data.decode().split("\n")
    middle = len(lines) // 2
    if "jsonl" in op.argv:
        row = json.loads(lines[middle])
        row["x1_re"] += 0.5
        lines[middle] = json.dumps(row)
    else:
        cells = lines[middle].split(",")
        cells[2] = repr(float(cells[2]) + 0.5)
        lines[middle] = ",".join(cells)
    return "\n".join(lines).encode()


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for name in WORKLOADS:
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = run.measure(name, seed=0, seconds=0, trace=trace, block=1)
            got = {key: metric["unit"] for key, metric in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"missing or extra, or units differ")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{name} trace={trace}: run not correct: {result}")

        op = next(WORKLOADS[name](0))
        scratch = run.OUT_DIR / "smoke"
        scratch.mkdir(parents=True, exist_ok=True)
        runner = run.Runner(run.load_cli(), scratch)
        rc, _, data = runner.run(op)
        bad = _perturb(op, data)
        if bad == data:
            problems.append(f"{name}: perturbation changed nothing")
        elif op.argv[0] == "verify":
            # The verify oracle is the byte-identical repeat of the same seed.
            if runner.run(op)[2] == bad:
                problems.append(f"{name}: repeat oracle accepted a perturbed report")
        elif op.check(rc, bad).mismatch is None:
            problems.append(f"{name}: oracle accepted a perturbed output")
        if op.check(rc, data).mismatch is not None:
            problems.append(f"{name}: oracle rejected the real output")
        scratch.rmdir()

    for problem in problems:
        print(f"SMOKE FAIL: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
