#!/usr/bin/env python3
"""Builds the raqlet benchmark from the enclosing source tree and runs it.

    python3 perfbench/run.py --workload table1|closure|delta_stream|all \\
        --seed N --seconds S --trace 0|1

The first call configures and builds (Release) into .bench_build/perfbench
at the root of the tree; later calls only rebuild what changed. The
benchmark prints a human-readable report and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is non-zero when the build fails, any op fails or returns wrong rows, or
the run overruns its time limit. `--workload all` runs the three
workloads one after the other.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "raqlet_perfbench")
WORKLOADS = ["table1", "closure", "delta_stream"]
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; exits on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no raqlet source tree beside perfbench/")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.exit("perfbench: build failed (log: %s)" % log_path)


def run(workload, seed, seconds, trace):
    """Runs one workload, streaming its output; returns the exit code."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s overran %d s\n"
                         % (workload, RUN_TIMEOUT_S))
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    build()
    sys.stdout.flush()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    code = 0
    for workload in workloads:
        code = run(workload, args.seed, args.seconds, args.trace) or code
    return code


if __name__ == "__main__":
    sys.exit(main())
