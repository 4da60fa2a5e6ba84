#!/usr/bin/env python3
"""The benchmark's own checks: determinism and oracle injection.

Usage, from the root of the repository:

    python3 perfbench/selfcheck.py

1. Determinism. Each workload runs twice with one seed and once with
   another, end to end and traced. The same seed must give the same
   generated inputs (the "inputs digest" line), the same sim_ms_per_op
   and alloc_words_per_op, and the same count metrics of the traced run.
   The other seed must give other inputs.
2. Oracles. Each output oracle runs with a wrong output injected
   (--inject) and must count failures and report correct: false.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import re
import subprocess
import sys

WORKLOADS = ["exec_mix", "build_cold", "relink_edit"]
# (workload, --inject value): each names one oracle of README.md
INJECTIONS = [
    ("exec_mix", "exec_stdout"),
    ("build_cold", "residency"),
    ("build_cold", "image_digest"),
    ("relink_edit", "relink"),
]
DETERMINISTIC = ["sim_ms_per_op", "alloc_words_per_op"]


def run(workload, seed, trace, inject=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "2", "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    out = subprocess.run(cmd, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    digest = re.search(r"inputs digest (\w+)", out).group(1)
    return digest, result


def repeatable(name, unit):
    """Traced metrics taken from the deterministic prefix: counts, ratios
    of counts, and simulated-clock figures (GC counts cover the whole
    untraced phase, whose length is a matter of host speed)."""
    if name.startswith(("simos.sim_", "server.sim_")):
        return True
    return unit in ("count", "ratio") and not name.startswith("gc.")


def main():
    ok = True

    def check(cond, what):
        nonlocal ok
        print(("ok    " if cond else "FAIL  ") + what)
        ok = ok and cond

    for w in WORKLOADS:
        d1, r1 = run(w, 1, 0)
        d1b, r1b = run(w, 1, 0)
        d2, _ = run(w, 2, 0)
        check(r1["correct"] and r1["failed"] == 0, f"{w}: seed 1 correct, no failures")
        check(d1 == d1b, f"{w}: same seed, same inputs ({d1})")
        check(d1 != d2, f"{w}: other seed, other inputs ({d2})")
        for m in DETERMINISTIC:
            a, b = r1["metrics"][m]["value"], r1b["metrics"][m]["value"]
            check(a == b, f"{w}: {m} repeats ({a})")
        _, t1 = run(w, 1, 1)
        _, t1b = run(w, 1, 1)
        check(t1["correct"], f"{w}: traced run correct (self-time check included)")
        counts = [m for m, v in t1["metrics"].items() if repeatable(m, v["unit"])]
        differ = [m for m in counts if t1["metrics"][m]["value"] != t1b["metrics"][m]["value"]]
        check(not differ, f"{w}: {len(counts)} traced count metrics repeat {differ or ''}")
    for w, inj in INJECTIONS:
        _, r = run(w, 1, 0, inj)
        check(not r["correct"] and r["failed"] > 0,
              f"{w}: oracle fires on injected {inj} ({r['failed']} of {r['attempted']} failed)")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
