#!/usr/bin/env python3
"""A/B the host-clock benchmark: a committed revision against the working tree.

Usage, from anywhere in the repository:

    python3 bench/ab.py REV --workload W --seconds S --seeds A-B [--metric M]

Extracts REV's committed files under _build/ab/. Then runs one pair
per seed from A to B, each run `python3 perfbench/run.py ... --trace 0`
from the root of its side (run.py builds the benchmark before it runs
it, so the first run of each side builds it): on odd seeds REV runs
first, on even seeds the working tree. Each run's result is the last
line of its output, read as perfbench/spread.py reads it.

For every end-to-end metric BENCHMARK.json declares, prints each side's
median and quartiles [q1, q3] (statistics.quantiles, n=4), the ratio
tree/REV of the medians, and how many pairs the tree won and tied.
Then says whether the gain rule holds for metric M (default ops_per_s):
the tree wins at least nine tenths of the pairs, ties counting for
neither, and the medians differ in the better direction by more than
REV's interquartile range. Exits 0 when the rule holds, 1 when it does
not, and 2 when a build fails, a run is incorrect or does not report M.
The extracted tree is removed on exit.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys


def die(msg):
    print(f"ab: {msg}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(tree, sha, dest):
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", tree, "archive", sha], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        die(f"cannot extract {sha}")


def run(root, workload, seed, seconds):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    try:
        result = json.loads(r.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    if r.returncode or not result.get("correct") or result.get("failed"):
        print(r.stdout + r.stderr, file=sys.stderr)
        die(f"{root} seed {seed}: no correct result")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, q3


def seed_range(s):
    a, _, b = s.partition("-")
    seeds = range(int(a), int(b or a) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {s}")
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("rev")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--seeds", type=seed_range, required=True, metavar="A-B")
    ap.add_argument("--metric", default="ops_per_s")
    args = ap.parse_args()
    tree = git("rev-parse", "--show-toplevel")
    sha = git("-C", tree, "rev-parse", "--verify", args.rev + "^{commit}")
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    if args.metric not in better:
        die(f"{args.metric} is not an end-to-end metric")
    base = os.path.join(tree, "_build", "ab", sha[:12])
    # SIGTERM unwinds like ^C, so the extracted tree is removed either way
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runs = {base: [], tree: []}
    try:
        shutil.rmtree(base, ignore_errors=True)
        extract(tree, sha, base)
        for seed in args.seeds:
            for root in (base, tree) if seed % 2 else (tree, base):
                runs[root].append(run(root, args.workload, seed, args.seconds))
                if args.metric not in runs[root][-1]:
                    die(f"{root} seed {seed}: the run does not report {args.metric}")
            print(f"seed {seed}: {args.metric} {runs[base][-1][args.metric]:.6g} -> "
                  f"{runs[tree][-1][args.metric]:.6g}", file=sys.stderr)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    n = len(runs[tree])
    print(f"{args.workload}: {args.rev} ({sha[:12]}) -> working tree, {n} pairs of "
          f"{args.seconds} s, seeds {args.seeds.start}-{args.seeds.stop - 1}")
    rows = [("metric", "rev median [q1, q3]", "tree median [q1, q3]", "tree/rev", "won",
             "tied")]
    holds = False
    for m, direction in better.items():
        if m not in runs[tree][0] or m not in runs[base][0]:
            continue
        a = [r[m] for r in runs[base]]
        b = [r[m] for r in runs[tree]]
        sign = 1 if direction == "higher" else -1
        won = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        tied = sum(1 for x, y in zip(a, b) if x == y)
        ma, mb = statistics.median(a), statistics.median(b)
        (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
        side = "{:.6g} [{:.6g}, {:.6g}]"
        rows.append((m, side.format(ma, a1, a3), side.format(mb, b1, b3),
                     f"{mb / ma:.4f}" if ma else "-", f"{won}/{n}", f"{tied}/{n}"))
        if m == args.metric:
            holds = won >= 0.9 * n and sign * (mb - ma) > a3 - a1
            rule = (f"{m}: the tree won {won} of {n} pairs (needs {-(-9 * n // 10)}), "
                    f"median gap {abs(mb - ma):.6g} against {args.rev}'s IQR {a3 - a1:.6g}")
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  " + "  ".join(c.ljust(w) if i < 3 else c.rjust(w)
                               for i, (c, w) in enumerate(zip(r, widths))))
    print(f"gain rule for {rule}: {'holds' if holds else 'does not hold'}")
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
