#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the given arguments.  The last line
the benchmark prints is its JSON result; build output goes to standard error.
Scratch files (spilled shards, span dumps) go under `<target dir>/perfbench-work`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "ffsm-perfbench")
    work = os.path.join(target, "perfbench-work")
    return subprocess.run([binary, *sys.argv[1:], "--work-dir", work]).returncode


if __name__ == "__main__":
    sys.exit(main())
