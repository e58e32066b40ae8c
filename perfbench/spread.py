#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
        [--workloads compile,run,service,oracle] [--trace 0]

Run it from the repository root. For every workload it runs
perfbench/run.py --runs times, each with the next seed, and prints for
every metric of BENCHMARK.json its median, first and third quartile
(Python's statistics.quantiles(values, n=4)), and the spread: the
distance between the quartiles as a share of the median. A spread above
a third of the metric's bound is marked "!". It also prints each
workload's share of failed operations, which must be the same in every
run. The raw results go to .bench_build/spread.json. The bounds in
BENCHMARK.json were set from this output.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    metrics = bench["per_layer" if args.trace else "end_to_end"]
    raw = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if done.returncode != 0:
                print("%s seed %d: run failed (status %d)"
                      % (workload, seed, done.returncode))
                return 1
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        raw[workload] = results
        report(workload, results, metrics)
    with open(".bench_build/spread.json", "w") as out:
        json.dump(raw, out, indent=1)
    return 0


def report(workload, results, metrics):
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    correct = all(r["correct"] for r in results)
    print("%s: %d runs, correct=%s, failed share %s"
          % (workload, len(results), correct, shares))
    print("  %-26s %14s %14s %14s %8s %6s"
          % ("metric", "median", "q1", "q3", "spread", "bound"))
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                       else values * 3)
        spread = (q3 - q1) / med if med else 0.0
        bound = m.get("bound")
        flag = "!" if bound is not None and spread > bound / 3 else ""
        print("  %-26s %14.6g %14.6g %14.6g %7.1f%% %6s %s"
              % (m["name"], statistics.median(values), q1, q3, 100 * spread,
                 "" if bound is None else "%g" % bound, flag))
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
