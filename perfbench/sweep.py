"""Run the benchmark over several seeds and workloads and save a result set.

    python3 perfbench/sweep.py --seeds 1-10 --out .perfbench_out/base.jsonl
    python3 perfbench/sweep.py --seeds 3 --workloads solve-long --trace 1 --out t.jsonl

Runs ``run.py`` once per (seed, workload), one process at a time, seeds in
the outer loop so slow drift of the machine spreads over all workloads.  Each
run's result object is appended to ``--out`` (the input of ``compare.py``).
At the end it prints, per workload, every metric by name and unit with its
median and quartiles; for end-to-end metrics it also prints the spread
(quartile distance over median) against the metric's bound and flags any
spread above a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load_results, load_spec, quartiles, spread

HERE = Path(__file__).resolve().parent

#: A run must finish within this many seconds (the benchmark's own limit).
RUN_TIMEOUT = 180


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,5,9"`` or ``"7"``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Run the benchmark over seeds and save a result set.")
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    status = 0
    for seed in args.seeds:
        for workload in args.workloads.split(","):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            max_err = [float(line.split()[1]) for line in lines if line.startswith("  max_rel_err ")]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
            status |= not result["correct"]
            with open(args.out, "a") as handle:
                handle.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                         "max_rel_err": max_err[0] if max_err else None,
                                         "result": result}) + "\n")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    runs = [json.loads(line) for line in args.out.read_text().splitlines()]
    for (workload, trace), metrics in sorted(load_results(args.out).items()):
        if trace != args.trace:
            continue
        mine = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
        attempted = sum(r["result"]["attempted"] for r in mine)
        failed = sum(r["result"]["failed"] for r in mine)
        print(f"\n{workload} (trace {trace}), {len(mine)} runs in {args.out}:")
        print(f"  {'fail_ratio':<32} {failed / attempted:12.6g} {'ratio':<8} ({failed} failed / {attempted} attempted)")
        errs = [r["max_rel_err"] for r in mine if r.get("max_rel_err") is not None]
        if errs:
            print(f"  {'max_rel_err':<32} {max(errs):12.6g} {'1':<8} (worst over the runs)")
        for name, values in metrics.items():
            q1, median, q3 = quartiles(values)
            line = f"  {name:<32} {median:12.6g} {units[name]:<8} [{q1:.6g}, {q3:.6g}]"
            if name in bounds:
                s = spread(values)
                flag = "" if s < bounds[name] / 3 else "  <-- above a third of the bound"
                line += f"  spread {s:.2%} (bound {bounds[name]:.0%}){flag}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
