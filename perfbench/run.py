#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload t1-file --seed 7 --seconds 12 --trace 0

Builds the library, the setcover_server daemon and perfbench_driver
(optimized) into .bench_build, which is a no-op once built, then runs
perfbench_driver. Build output goes to stderr; stdout ends with its
one-line JSON result. Traced runs (--trace 1) also write their spans to
.bench_traces/<workload>-seed<seed>.json. The exit status is non-zero
when the build fails, perfbench_driver fails, or any correctness check
fails.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("t1-file", "adv-ckpt", "push-durable")
BUILD_DIR = ".bench_build"
SCRATCH_DIR = ".bench_scratch"
TRACE_DIR = ".bench_traces"
# Generous for a run of up to 60 s plus set-up, and inside the 180 s
# every run must finish in.
DRIVER_TIMEOUT_S = 170


def build(source_dir):
    """Configures and builds the benchmark; False on failure."""
    steps = [["cmake", "-S", source_dir, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", "4"]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")

    if not build(os.path.dirname(os.path.abspath(__file__))):
        return 1
    command = [
        os.path.join(BUILD_DIR, "perfbench_driver"),
        "--workload", args.workload,
        "--seed", str(args.seed % 2**64),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--scratch", SCRATCH_DIR,
        "--trace-out", os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed)),
        "--server-bin", os.path.join(BUILD_DIR, "setcover_server"),
    ]
    try:
        # The daemon push-durable starts dies with perfbench_driver
        # (PR_SET_PDEATHSIG), so killing an overrunning run stops both.
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
