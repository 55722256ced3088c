#!/usr/bin/env python3
"""Shard-tick benchmark: builds gamedb and shardbench from source under
.bench_build/shardbench/ and runs one workload.

    python3 shardbench/run.py --workload crowd --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout. Build output goes to stderr; the last
line of stdout is the JSON result the shardbench binary prints. With
--trace 1 the span buffer is written to
.bench_build/shardbench/traces/<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "shardbench")


def build():
    """Configures and builds the gamedb library, installs it into a private
    prefix, then builds shardbench against it. Returns the binary's path."""
    jobs = str(min(4, os.cpu_count() or 1))
    lib = os.path.join(BUILD, "gamedb")
    prefix = os.path.join(BUILD, "prefix")
    bench = os.path.join(BUILD, "bench")
    steps = [
        ["cmake", "-S", ROOT, "-B", lib, "-DCMAKE_BUILD_TYPE=Release",
         "-DGAMEDB_BUILD_TESTS=OFF", "-DGAMEDB_BUILD_BENCHMARKS=OFF",
         "-DGAMEDB_BUILD_EXAMPLES=OFF"],
        ["cmake", "--build", lib, "--target", "gamedb", "-j", jobs],
        ["cmake", "--install", lib, "--prefix", prefix],
        ["cmake", "-S", HERE, "-B", bench, "-DCMAKE_BUILD_TYPE=Release",
         "-DCMAKE_PREFIX_PATH=" + prefix],
        ["cmake", "--build", bench, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("shardbench: build step failed: " + " ".join(cmd))
    return os.path.join(bench, "shardbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
