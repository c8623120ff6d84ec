#!/usr/bin/env python3
"""Build and run the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root.  It builds perfbench/main.exe with dune
into .bench_build/, runs it with the same arguments, checks that the
result line carries exactly the metrics BENCHMARK.json lists for that
mode, and prints the program's output.  It exits non-zero, printing no
result, when the repository sources are missing or the build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no dune-project and lib/ here; run from the repository root")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    cmd = dune + ["build", "--root", ".", "--build-dir", BUILD_DIR, "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed with exit code %d" % done.returncode)


def expected_metrics(traced):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def pin_to_one_cpu():
    # Every workload is one domain with one client, so it never runs on
    # two CPUs at once.  Pinned, a request and its response are not
    # handed between CPUs, whose wake-up latency would dominate the
    # warm round trip.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--trace", default="0")
    known, _ = parser.parse_known_args()
    build()
    try:
        done = subprocess.run(
            [EXE] + sys.argv[1:],
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
            preexec_fn=pin_to_one_cpu,
        )
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("benchmark exited with code %d" % done.returncode)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(known.trace == "1")
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra))
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
