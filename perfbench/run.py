#!/usr/bin/env python3
"""Builds and runs the Samya benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fig3b --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Every call configures and builds the repository's libraries and the
benchmark binary (Release) under .bench_build/perfbench; after the first,
only what changed is rebuilt. Build output goes to stderr. The binary prints the
run's result as the last line of stdout and exits non-zero when a check
fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("fig3b", "audited-rw")


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        # Keep stdout for the result line: all build chatter goes to stderr.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the checks' own test")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("perfbench_checks_test")]).returncode)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
