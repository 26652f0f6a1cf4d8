"""Compare two result sets of the solvmaps benchmark.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A result set is a JSONL file written by ``sweep.py``: one line per run with
its workload, seed, trace flag and result object.  For every workload and
metric present in both sets this prints each side's median and quartiles
and, for end-to-end metrics, a verdict against the metric's bound from
``BENCHMARK.json``:

* ``within bound``: NEW's median is not worse than BASE's by more than the bound;
* ``worse``: it is;
* ``unresolved``: the spread (quartile distance over median) of either side
  exceeds the bound, so the runs cannot tell, unless every NEW run beats
  every BASE run (``better``).

Per-layer metrics have no bound and are printed without a verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_results(path: Path) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> values over the runs in ``path``."""
    sets: dict[tuple[str, int], dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for line in path.read_text().splitlines():
        run = json.loads(line)
        for name, metric in run["result"]["metrics"].items():
            sets[(run["workload"], run["trace"])][name].append(metric["value"])
    return sets


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (inf when the median is 0)."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(median)


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    mb, mn = quartiles(base)[1], quartiles(new)[1]
    if mb == 0:
        return "n/a (zero median)"
    if max(spread(base), spread(new)) > bound:
        wins = max(new) < min(base) if better == "lower" else min(new) > max(base)
        return "better" if wins else "unresolved"
    worse_by = (mn - mb) / abs(mb) if better == "lower" else (mb - mn) / abs(mb)
    return "worse" if worse_by > bound else "within bound"


def _fmt(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    spec = load_spec()
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load_results(args.base), load_results(args.new)
    worse = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"{workload} (trace {trace}): {len(next(iter(base[key].values())))} base runs, "
              f"{len(next(iter(new[key].values())))} new runs; median [q1, q3]")
        for name in base[key]:
            if name not in new[key]:
                continue
            b, n = base[key][name], new[key][name]
            line = f"  {name:<32} {units.get(name, '?'):<8} base {_fmt(b):<34} new {_fmt(n):<34}"
            if name in bounded:
                m = bounded[name]
                v = verdict(b, n, m["better"], m["bound"])
                worse += v == "worse"
                line += f" {v} (bound {m['bound']:.0%})"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
