#!/usr/bin/env python3
"""Builds the LSVD benchmark from this checkout and runs one workload.

    python3 lsvdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The benchmark is compiled (Release) from
lsvdbench/ and the repository's src/ tree into .bench_build/lsvdbench; build
output goes to standard error. Standard output is the benchmark's own, and
its last line is the JSON result. With --trace 1 the spans of the first
traced round are written to .bench_build/spans/<workload>-seed<N>.jsonl.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "lsvdbench")
WORKLOADS = ["lsvd-write-gc", "lsvd-read-miss", "bcache-rbd-write"]


def parse_args():
    p = argparse.ArgumentParser(allow_abbrev=False, description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()  # exits 2 with usage on an unknown flag
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds in 1..600")
    return args


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_ROOT, "lsvdbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = [
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD, "--target", "lsvdbench", "-j", jobs],
        ]
        for cmd in steps:
            if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
                sys.exit("lsvdbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "lsvdbench")


def main():
    args = parse_args()
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        spans = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.exit(subprocess.call(cmd))


if __name__ == "__main__":
    main()
