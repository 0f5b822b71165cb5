#!/usr/bin/env python3
"""Summarise benchmark runs, or compare runs of two versions of the program.

usage: python3 perfbench/compare.py RECORD...                    summary
       python3 perfbench/compare.py RECORD... --change RECORD... comparison

RECORDs are the run records `run.py` writes to `.perfbench-out/`. The
summary gives, per workload and trace mode, the median, quartiles and run
count of every metric (the form of `baseline.json`). The comparison gives,
per workload and end-to-end metric, both medians, the relative change and a
verdict against the metric's bound in BENCHMARK.json:

* regressed: the change's median is worse by more than the bound;
* unresolved: the quartile spread of either side exceeds the bound, and
  not every change run beats every base run;
* better: the change beats the base in at least nine tenths of all
  (change run, base run) pairs, and the medians differ by more than the base
  runs' quartile spread;
* same: anything else.

Runs on different kernel backends are never paired (exit code 2), so a
hand-built compiled kernel cannot pass for a gain. Exit code 1 when any
metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> dict[tuple[str, int], list[dict]]:
    groups: defaultdict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in paths:
        record = json.loads(Path(path).read_text())
        groups[(record["workload"], record["trace"])].append(record)
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(groups) -> dict:
    records = [r for group in groups.values() for r in group]
    out: dict = {
        key: sorted({str(r[key]) for r in records})
        for key in ("revision", "python", "cpu_count", "backend")
    }
    out["workloads"] = {}
    for (workload, trace), group in sorted(groups.items()):
        metrics = {}
        for name in group[0]["metrics"]:
            q1, median, q3 = quartiles([r["metrics"][name] for r in group])
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "runs": len(group)}
        out["workloads"].setdefault(workload, {})[f"trace{trace}"] = metrics
    return out


def backends(groups) -> set[str]:
    return {r["backend"] for records in groups.values() for r in records}


def verdict(base: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    sign = 1 if better == "lower" else -1
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    worse_by = sign * (c_med - b_med) / b_med
    spread = max((b_q3 - b_q1) / b_med, (c_q3 - c_q1) / c_med)
    wins = sum(sign * c < sign * b for c in change for b in base) / (len(change) * len(base))
    if spread > bound and wins < 1:
        return "unresolved", worse_by
    if worse_by > bound:
        return "regressed", worse_by
    if wins >= 0.9 and -sign * (c_med - b_med) > b_q3 - b_q1:
        return "better", worse_by
    return "same", worse_by


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="summarise or compare benchmark runs")
    parser.add_argument("base", nargs="+", help="run records of the base version")
    parser.add_argument("--change", nargs="+", help="run records of the changed version")
    args = parser.parse_args(argv)

    base = load(args.base)
    if not args.change:
        print(json.dumps(summary(base), indent=1))
        return 0
    change = load(args.change)
    found = backends(base) | backends(change)
    if len(found) != 1:
        print(f"error: runs on different kernel backends: {sorted(found)}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressed = False
    print(f"{'workload':14s} {'metric':12s} {'base':>12s} {'change':>12s} {'worse by':>9s}  verdict")
    for key in sorted(base.keys() & change.keys()):
        workload, trace = key
        if trace:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name] for r in base[key]]
            c = [r["metrics"][name] for r in change[key]]
            result, worse_by = verdict(b, c, metric["better"], metric["bound"])
            regressed |= result == "regressed"
            print(
                f"{workload:14s} {name:12s} {statistics.median(b):12.6g} "
                f"{statistics.median(c):12.6g} {worse_by:+9.2%}  {result}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
