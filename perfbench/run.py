#!/usr/bin/env python3
"""Build the OMOS host-clock benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload exec_mix|build_cold|relink_edit \
        --seed N --seconds S --trace 0|1

The build goes through dune into _build/ (the shared dune cache is
disabled, so nothing is written outside the checkout); its output goes
to stderr. The benchmark's own output, ending with the one-line JSON
result, goes to stdout. A failed build exits 1 without a result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "omosbench.exe")


def main() -> int:
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/omosbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
