#!/usr/bin/env python3
"""Build the benchmark in release mode, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <fig09-1c|mix4-ppf|serve-sock> \
        [--seed N] [--seconds S] [--trace 0|1]

The build goes to $CARGO_TARGET_DIR (default .bench_build) and its output to
stderr, so stdout carries only the benchmark's table and, as its last line,
the JSON result. The benchmark process replaces this one, so nothing is left
running when it exits. A failed build exits non-zero without a result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
