#!/usr/bin/env python3
"""A/B the host-clock benchmark: a committed revision against the working tree.

Usage, from anywhere in the repository:

    python3 bench/ab.py REV --workload W[,W...] --seconds S --seeds A-B [--metric M]

Extracts REV's committed files under _build/ab/. Then runs, for each
seed from A to B and each workload W in turn, one pair of runs, each
run `python3 perfbench/run.py ... --trace 0` from the root of its side
(run.py builds the benchmark before it runs it, so the first run of
each side builds it): on odd seeds REV runs first, on even seeds the
working tree. Each run's result is the last line of its output, read
as perfbench/spread.py reads it.

Prints one table per workload. For every end-to-end metric
BENCHMARK.json declares, it gives each side's median and quartiles
[q1, q3] (statistics.quantiles, n=4), the ratio tree/REV of the
medians, how many pairs the tree won and tied, and a verdict against
the metric's bound:

  worse       the tree's median is worse than REV's by more than the
              bound (a share of REV's median);
  unresolved  not worse, but REV's interquartile range is wider than
              the bound, and not every tree run beats every REV run;
  ok          otherwise.

Then says, for the first workload listed, whether the gain rule holds
for metric M (default ops_per_s): the tree wins at least nine tenths
of the pairs, ties counting for neither, and the medians differ in the
better direction by more than REV's interquartile range.

Exits 0 when the gain rule holds and no metric is worse on any
workload, 1 otherwise, and 2 when a build fails, a run is incorrect or
does not report M, or the seed range is empty.
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
        die(f"{root} {workload} seed {seed}: no correct result")
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


def compare(runs_a, runs_b, m, direction):
    """REV's runs [a] and the tree's [b] of metric m, as the tree's
    wins, ties, medians and quartiles."""
    a = [r[m] for r in runs_a]
    b = [r[m] for r in runs_b]
    sign = 1 if direction == "higher" else -1
    return {
        "a": a, "b": b, "sign": sign,
        "won": sum(1 for x, y in zip(a, b) if sign * (y - x) > 0),
        "tied": sum(1 for x, y in zip(a, b) if x == y),
        "ma": statistics.median(a), "mb": statistics.median(b),
        "qa": quartiles(a), "qb": quartiles(b),
    }


def verdict(c, bound):
    sign, ma, mb = c["sign"], c["ma"], c["mb"]
    scale = abs(ma) or 1.0
    if sign * (mb - ma) < -bound * scale:
        return "worse"
    a1, a3 = c["qa"]
    if a3 - a1 > bound * scale and not (
            min(sign * y for y in c["b"]) > max(sign * x for x in c["a"])):
        return "unresolved"
    return "ok"


def table(runs_a, runs_b, metrics):
    """Prints one row per end-to-end metric both sides report; returns
    the metrics worse than their bound."""
    n = len(runs_b)
    rows = [("metric", "rev median [q1, q3]", "tree median [q1, q3]", "tree/rev", "won",
             "tied", "bound")]
    worse = []
    for m, (direction, bound) in metrics.items():
        if m not in runs_b[0] or m not in runs_a[0]:
            continue
        c = compare(runs_a, runs_b, m, direction)
        v = verdict(c, bound)
        if v == "worse":
            worse.append(m)
        side = "{:.6g} [{:.6g}, {:.6g}]"
        rows.append((m, side.format(c["ma"], *c["qa"]), side.format(c["mb"], *c["qb"]),
                     f"{c['mb'] / c['ma']:.4f}" if c["ma"] else "-", f"{c['won']}/{n}",
                     f"{c['tied']}/{n}", f"{v} ({bound:g})"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  " + "  ".join(c.rjust(w) if 3 <= i <= 5 else c.ljust(w)
                               for i, (c, w) in enumerate(zip(r, widths))).rstrip())
    return worse


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("rev")
    ap.add_argument("--workload", required=True, metavar="W[,W...]",
                    type=lambda s: [w for w in s.split(",") if w])
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--seeds", type=seed_range, required=True, metavar="A-B")
    ap.add_argument("--metric", default="ops_per_s")
    args = ap.parse_args()
    if not args.workload:
        die("no workload")
    tree = git("rev-parse", "--show-toplevel")
    sha = git("-C", tree, "rev-parse", "--verify", args.rev + "^{commit}")
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        metrics = {m["name"]: (m["better"], m["bound"]) for m in json.load(f)["end_to_end"]}
    if args.metric not in metrics:
        die(f"{args.metric} is not an end-to-end metric")
    base = os.path.join(tree, "_build", "ab", sha[:12])
    # SIGTERM unwinds like ^C, so the extracted tree is removed either way
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runs = {w: {base: [], tree: []} for w in args.workload}
    try:
        shutil.rmtree(base, ignore_errors=True)
        extract(tree, sha, base)
        for seed in args.seeds:
            for w in args.workload:
                for root in (base, tree) if seed % 2 else (tree, base):
                    runs[w][root].append(run(root, w, seed, args.seconds))
                    if args.metric not in runs[w][root][-1]:
                        die(f"{root} {w} seed {seed}: the run does not report {args.metric}")
                print(f"{w} seed {seed}: {args.metric} {runs[w][base][-1][args.metric]:.6g} "
                      f"-> {runs[w][tree][-1][args.metric]:.6g}", file=sys.stderr)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    ok = True
    for i, w in enumerate(args.workload):
        n = len(runs[w][tree])
        print(f"{w}: {args.rev} ({sha[:12]}) -> working tree, {n} pairs of "
              f"{args.seconds} s, seeds {args.seeds.start}-{args.seeds.stop - 1}")
        worse = table(runs[w][base], runs[w][tree], metrics)
        if worse:
            ok = False
            print(f"worse than its bound: {', '.join(worse)}")
        if i == 0:
            c = compare(runs[w][base], runs[w][tree], args.metric, metrics[args.metric][0])
            (a1, a3), gap = c["qa"], c["mb"] - c["ma"]
            holds = c["won"] >= 0.9 * n and c["sign"] * gap > a3 - a1
            ok = ok and holds
            print(f"gain rule for {args.metric}: the tree won {c['won']} of {n} pairs "
                  f"(needs {-(-9 * n // 10)}), median gap {abs(gap):.6g} against "
                  f"{args.rev}'s IQR {a3 - a1:.6g}: {'holds' if holds else 'does not hold'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
