#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage, from the repository root:

    python3 perfbench/spread.py --workload execute [--runs 10]
        [--first-seed 1] [--seconds N] [--out results.jsonl]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...),
then prints, for every end-to-end metric, the median of the runs and
the spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median, next to the bound
BENCHMARK.json fixes. A spread wider than a third of its bound means the
benchmark is not steady enough to hold that bound. --seconds defaults to
BENCHMARK.json's run_seconds. --out appends each run's result line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, run.returncode))
            return 1
        result = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    "result": result}) + "\n")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, v[-1]) for n, v in values.items())), flush=True)

    worst = True
    for metric in spec["end_to_end"]:
        samples = values[metric["name"]]
        mid = statistics.median(samples)
        q1, _, q3 = statistics.quantiles(samples, n=4)
        spread = (q3 - q1) / mid if mid else float("inf")
        steady = spread <= metric["bound"] / 3
        worst = worst and (steady or metric["name"] == "setup_s")
        print("%-16s median %-14.6g spread %6.2f%%  bound %5.1f%%  %s" % (
            metric["name"], mid, 100 * spread, 100 * metric["bound"],
            "ok" if steady else "WIDE"))
    return 0 if worst else 2


if __name__ == "__main__":
    sys.exit(main())
