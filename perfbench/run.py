#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <bus_batch|decoy_search> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR when set (relative paths are taken
from the checkout root), else to .bench_build. Every run configures and
builds; after the first, both steps are incremental and take a second.
Build output goes to stderr, so the binary's last stdout line stays its
JSON result. Exits with the binary's code, or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("bus_batch", "decoy_search")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build(out):
    """Configures and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        print("perfbench: no hematch sources next to perfbench/", file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT).returncode:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1
    sys.stdout.flush()
    return subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", args.trace,
         "--trace-dir", os.path.join(out, "traces"),
         "--catalog", os.path.join(ROOT, "BENCHMARK.json")],
        cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
