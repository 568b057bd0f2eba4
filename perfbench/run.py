#!/usr/bin/env python3
"""Run one perfbench workload from the root of a source checkout.

    python3 perfbench/run.py --workload grid|suite|serve --seed N \
        --seconds S --trace 0|1

Builds the harness (perfbench/perfbench.exe) with dune into .bench_build,
runs it, forwards its report, and prints as the last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end_to_end list of BENCHMARK.json, with --trace 1
its per_layer list.  Exits non-zero, printing no result, when the build
or the run fails or a listed metric is missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune() + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                    "--profile", "release", "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["grid", "suite", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD_DIR, "perfbench")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0 or not lines:
        fail(f"harness exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])["perfbench"]
    except (ValueError, KeyError) as e:
        fail(f"unreadable harness result: {e}")
    print(lines[-1])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} in {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
