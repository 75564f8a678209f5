#!/usr/bin/env python3
"""Builds the awesym server and the benchmark, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rpc_small --seed 1 --seconds 10 --trace 0

Both builds go to $CARGO_TARGET_DIR (default `.bench_build`). Cargo's
output goes to standard error, so the last line of standard output is
the benchmark's JSON result. The exit code is the benchmark's: non-zero
when a build fails, an output check fails, or the run cannot complete.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    if not (
        os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
        and os.path.isdir(os.path.join(ROOT, "crates", "core"))
    ):
        print(
            "perfbench: no repository sources next to perfbench/ "
            "(Cargo.toml and crates/ are needed to build the server)",
            file=sys.stderr,
        )
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "awesymbolic", "--bin", "awesym"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return built.returncode
    release = os.path.join(target, "release")
    run = subprocess.run(
        [
            os.path.join(release, "awesym-perfbench"),
            *sys.argv[1:],
            "--server",
            os.path.join(release, "awesym"),
            "--out-dir",
            target,
        ],
        cwd=ROOT,
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
