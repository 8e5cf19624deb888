#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload replay|churn|campaign \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds `dtsvliw_run` (the simulator the
campaign workload spawns) from the repository's workspace and the
benchmark from its own package, both into CARGO_TARGET_DIR (default
`.bench_build`), then runs the benchmark. Build output goes to standard
error; the benchmark's last line of standard output is its JSON result.
The exit code is the benchmark's, or non-zero when a build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark stops itself after its measured seconds plus one pass;
# this is the backstop.
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    common = ["cargo", "build", "--release", "--offline", "--quiet"]
    builds = [
        common + ["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
                  "-p", "dtsvliw-bench", "--bin", "dtsvliw_run"],
        common + ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        try:
            built = subprocess.run(cmd, env=env, stdout=sys.stderr)
        except OSError as e:
            print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
            return 3
        if built.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 3
    exe = os.path.join(target, "release", "perfbench")
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
