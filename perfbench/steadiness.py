#!/usr/bin/env python3
"""Steadiness report: runs each workload N times and summarizes the spread.

    python3 perfbench/steadiness.py [--runs 10] [--sets 1] [--seed 1]
        [--workloads table1,closure,delta_stream] [--seconds S] [--out F]

Each run uses its own seed (seed, seed+1, ...; every set reuses them) and
the run length from BENCHMARK.json unless --seconds is given. For every
end-to-end metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and their distance as a share of the
median, next to the metric's bound. With --sets 2 it also prints how far
the second set's median moved from the first's. --out writes every value
as JSON. Exits non-zero when any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace=0):
    """Returns the benchmark's result object for one run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: %s seed %d failed (exit %d)"
                 % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}  # workload -> set -> metric -> [values]
    for workload in args.workloads.split(","):
        values[workload] = []
        for s in range(args.sets):
            per_metric = {}
            for i in range(args.runs):
                result = run_once(workload, args.seed + i, args.seconds)
                for name, metric in result["metrics"].items():
                    per_metric.setdefault(name, []).append(metric["value"])
            values[workload].append(per_metric)

        print("== %s: %d run(s) x %d set(s), %g s each"
              % (workload, args.runs, args.sets, args.seconds))
        print("  %-14s %4s %12s %12s %12s %8s %7s %9s"
              % ("metric", "set", "median", "q1", "q3", "iqr/med", "bound",
                 "drift"))
        for name, bound in bounds.items():
            first_median = None
            for s, per_metric in enumerate(values[workload]):
                median, q1, q3, rel = spread(per_metric[name])
                drift = ""
                if first_median is None:
                    first_median = median
                else:
                    drift = "%+.2f%%" % (100 * (median / first_median - 1))
                print("  %-14s %4d %12.5g %12.5g %12.5g %7.2f%% %6.0f%% %9s"
                      % (name, s + 1, median, q1, q3, 100 * rel, 100 * bound,
                         drift))
        sys.stdout.flush()

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": args.runs, "sets": args.sets,
                       "seed": args.seed, "seconds": args.seconds,
                       "values": values}, f, indent=1)


if __name__ == "__main__":
    main()
