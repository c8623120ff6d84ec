#!/usr/bin/env python3
"""Run one workload several times and print each metric's spread.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--seed 42] [--vary-seed]
                                [--seconds 20]

Run it from the repository root.  Each run goes through perfbench/run.py.
With --vary-seed, run i uses seed (--seed + i); otherwise every run uses
--seed.  For each metric it prints the median, the first and third
quartiles (Python's statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median, and that spread as a share of the metric's bound in
BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--vary-seed", action="store_true")
    p.add_argument("--seconds", type=int, default=20)
    a = p.parse_args()
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    runs = []
    for i in range(a.runs):
        seed = a.seed + i if a.vary_seed else a.seed
        r = run_once(a.workload, seed, a.seconds)
        runs.append(r)
        print("run %d seed %d: correct=%s attempted=%d failed=%d"
              % (i + 1, seed, r["correct"], r["attempted"], r["failed"]), file=sys.stderr)
    print("%-44s %14s %14s %14s %8s %8s" % ("metric", "median", "q1", "q3", "spread", "/bound"))
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med
        print("%-44s %14.6g %14.6g %14.6g %8.4f %8.2f %s"
              % (name, med, q1, q3, spread, spread / bounds[name], m["unit"]))
    bad = sum(1 for r in runs if not r["correct"])
    print("runs %d, incorrect %d" % (len(runs), bad))


if __name__ == "__main__":
    main()
