#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper|modes|stream|serve \
        --seed N --seconds S --trace 0|1

Build output goes to standard error; the benchmark's own standard
output is passed through, so its last line is the result object.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no dune-project and lib/ here; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        return 2
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
