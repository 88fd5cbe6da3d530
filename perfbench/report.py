#!/usr/bin/env python3
"""Run the benchmark's lanes and print their metrics side by side.

    python3 perfbench/report.py                      # every lane, untraced then traced
    python3 perfbench/report.py --seeds 1-10 --workload mesh-lane   # run-to-run spread

The first form prints the end-to-end metrics of each lane, with the error
rate, then the per-layer metrics and the tracing overhead of a traced run.
The second runs one untraced run per seed and prints, per metric, the median
and the distance between the quartiles as a share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mesh-lane", "family-lane", "sweep-lane")


def run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seeds", type=seed_range, help="e.g. 1-10: spread over these seeds")
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    workloads = args.workload or WORKLOADS

    if args.seeds:
        for workload in workloads:
            results = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
            print(f"== {workload}: seeds {args.seeds.start}-{args.seeds.stop - 1}")
            for name in results[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in results]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                print(f"  {name:14s} median {q2:.6g}  spread {(q3 - q1) / q2:.4f}  "
                      f"values {', '.join(f'{v:.4g}' for v in values)}")
        return 0

    for workload in workloads:
        result = run(workload, 1, args.seconds, 0)
        print(f"== {workload} (seed 1, {result['attempted']} executions)")
        for name, m in result["metrics"].items():
            print(f"  {name:40s} {m['value']:12.6g} {m['unit']}")
        rate = result["failed"] / result["attempted"]
        print(f"  {'error_rate':40s} {rate:12.6g} ratio  (correct: {result['correct']})")
        traced = run(workload, 1, args.seconds, 1)
        print(f"-- {workload} traced")
        for name, m in traced["metrics"].items():
            print(f"  {name:40s} {m['value']:12.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
