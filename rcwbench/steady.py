#!/usr/bin/env python3
"""Steadiness check for the rcwbench benchmark.

    python3 rcwbench/steady.py

Run it from the repository root. It runs two sets of untraced runs, each
set every workload once per seed 1..10 with --seconds from BENCHMARK.json,
and prints per end-to-end metric the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median against the
metric's bound. Then it compares the two sets' medians, and runs each
workload traced twice with seed 1: every count metric must repeat exactly
on explain and maintain, and the tracing overhead is printed.

Exits 1 when a spread exceeds its bound, a second-set median is worse than
the first by more than the bound, or a count does not repeat.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)
SETS = 2
EXACT_COUNTS = ("explain", "maintain")


def run(workload, seed, seconds, trace):
    cmd = [
        sys.executable, os.path.join(ROOT, "rcwbench", "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("%s seed %d: incorrect output %s" % (workload, seed, result))
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    failures = []
    medians = {}
    for n in range(1, SETS + 1):
        for workload in workloads:
            runs = [run(workload, s, seconds, 0) for s in SEEDS]
            print("\nset %d, %s: seeds %d..%d" % (n, workload, SEEDS[0], SEEDS[-1]))
            print("  %-14s %12s %12s %12s %8s %6s"
                  % ("metric", "median", "q1", "q3", "spread", "bound"))
            for metric in bench["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                values = [r[name] for r in runs]
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                verdict = "ok" if spread < bound / 3 else "near" if spread <= bound else "NOISY"
                if verdict == "NOISY":
                    failures.append("set %d %s %s spread %.3f" % (n, workload, name, spread))
                medians[n, workload, name] = median
                print("  %-14s %12.6g %12.6g %12.6g %8.4f %6.3f %s"
                      % (name, median, q1, q3, spread, bound, verdict))
                print("    " + " ".join("%.6g" % v for v in values))

    print("\nset 2 against set 1 (median change, + is worse)")
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            worse = worse_by(medians[1, workload, name], medians[SETS, workload, name],
                             metric["better"])
            flag = "" if worse <= bound else " WORSE"
            if flag:
                failures.append("%s %s median worse by %.3f" % (workload, name, worse))
            print("  %-9s %-14s %+8.4f (bound %.3f)%s" % (workload, name, worse, bound, flag))

    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    for workload in workloads:
        traced = [run(workload, SEEDS[0], seconds, 1) for _ in range(2)]
        differ = [c for c in counts if traced[0][c] != traced[1][c]]
        print("\n%s traced, seed %d: tracing overhead (traced - untraced p50) %s ms"
              % (workload, SEEDS[0], ", ".join("%.4f" % t["trace.overhead_ms"] for t in traced)))
        print("  counts %s" % ("repeat exactly" if not differ else "differ: " + ", ".join(
            "%s %g vs %g" % (c, traced[0][c], traced[1][c]) for c in differ)))
        if differ and workload in EXACT_COUNTS:
            failures.append("%s counts differ: %s" % (workload, ", ".join(differ)))

    print("\n" + ("\n".join("FAIL " + f for f in failures) if failures else "steady"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
