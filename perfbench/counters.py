#!/usr/bin/env python3
"""Counter determinism check for the traced run.

    python3 perfbench/counters.py [--seed 1] [--seconds 6]
        [--workloads table1,closure,delta_stream]

Runs each workload's traced run twice with --seed and requires every
per-layer metric with unit "count" (work counters such as
datalog.tuples_considered, sql.rows_scanned, incremental.bailouts) to
repeat exactly. It then runs once more with seed + 1, which must run
clean. Prints one row per counter and exits non-zero on any difference or
failed run.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from steadiness import load_spec, run_once  # noqa: E402


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    counters = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    ok = True
    for workload in args.workloads.split(","):
        first = run_once(workload, args.seed, args.seconds, trace=1)
        second = run_once(workload, args.seed, args.seconds, trace=1)
        other = run_once(workload, args.seed + 1, args.seconds, trace=1)
        print("== %s: seed %d twice, then seed %d"
              % (workload, args.seed, args.seed + 1))
        for name in counters:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            c = other["metrics"][name]["value"]
            same = a == b
            ok &= same
            print("  %-30s %14.17g %14.17g %s   (seed %d: %.17g)"
                  % (name, a, b, "same" if same else "DIFFERS",
                     args.seed + 1, c))
        for result in (first, second, other):
            ok &= result["correct"] and result["failed"] == 0
    print("counters repeat exactly and every run is clean" if ok
          else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
