#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage, from the root of the repository:

    python3 perfbench/spread.py [--runs 10] [--seconds 15] [workload ...]

Runs the benchmark once per seed (1, 2, ...) on each
workload with --trace 0, and prints per metric the median, the
interquartile range as a share of the median (Python's
statistics.quantiles(values, n=4)), and the raw values.
"""

import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ["exec_mix", "build_cold", "relink_edit"]


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result\n{out}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    for w in args.workloads:
        runs = [run_once(w, 1 + i, args.seconds) for i in range(args.runs)]
        print(f"{w}  ({args.runs} seeds from 1, {args.seconds} s each)")
        for m in runs[0]:
            vals = [r[m] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {m:<20} median {med:14.4f}  iqr/median {spread:7.4f}  "
                  + " ".join(f"{v:.4g}" for v in vals))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
