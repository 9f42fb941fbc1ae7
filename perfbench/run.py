#!/usr/bin/env python3
"""Build the CloudMedia benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) with
path dependencies on the simulator's crates. This script builds it in
release mode into $CARGO_TARGET_DIR (default: .bench_build), offline,
then runs `perfbench bench` with the same arguments. Build output goes
to standard error; the benchmark's last line of standard output is its
JSON result. The exit code is the benchmark's, or non-zero if the build
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "crates", "sim", "Cargo.toml")):
        sys.stderr.write("perfbench: the simulator's sources (crates/sim) are missing\n")
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    binary = os.path.join(target, "release", "perfbench")
    bench = subprocess.run([binary, "bench"] + sys.argv[1:], cwd=ROOT, env=env)
    return bench.returncode if bench.returncode >= 0 else 2


if __name__ == "__main__":
    sys.exit(main())
