#!/usr/bin/env python3
"""Builds and runs the benchmark for one workload; prints the result line.

    python3 perfbench/run.py --workload organic_warm --seed 1 --seconds 25 \
        --trace 0 [--out results.jsonl]

--workload all runs every workload of BENCHMARK.json in turn.

Run from the repository root. The harness (perfbench/harness.cc) is built
from source with CMake under $CARGO_TARGET_DIR (default .bench_build), then
run once. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Earlier lines print host metadata and every metric by name and unit.
--out appends the full record (metadata, digests, every metric) to a JSON
lines file that compare.py reads. Exits non-zero, without a result line,
when the build or a run fails, and non-zero after the result line when a
correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170
# A per-layer metric named "demoted.<name>" is the end-to-end metric <name>
# moved to the per-layer list because it does not repeat within its bound.
DEMOTED = "demoted."


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench_harness"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))
    return build_root, os.path.join(build_dir, "perfbench_harness")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record to this file")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        # Every workload in turn, each its own process; exits non-zero if
        # any run fails. The last line is then the last workload's result.
        rc = 0
        for name in names:
            print("== " + name, flush=True)
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)]
            if args.out:
                cmd += ["--out", args.out]
            rc |= subprocess.run(cmd).returncode
        sys.exit(1 if rc else 0)
    if args.workload not in names:
        fail("unknown workload " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_root, harness = build()
    run_dir = os.path.join(build_root, "run-%d" % os.getpid())
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out after %d s" % HARNESS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("harness exited %d without a result" % proc.returncode)

    produced = record["metrics"]
    metrics = {}
    for m in wanted:
        source = m["name"]
        if source.startswith(DEMOTED):
            source = source[len(DEMOTED):]
        if source not in produced:
            fail("harness did not report " + source)
        metrics[m["name"]] = {"value": produced[source]["value"],
                              "unit": m["unit"]}

    meta = record["meta"]
    print("host: cores=%s build=%s compiler=%s lp_pool_threads=%s" % (
        meta["cores"], meta["build_type"], meta["compiler"],
        meta["lp_pool_threads"]))
    print("run: workload=%s seed=%s rounds=%s traced_rounds=%s ticks=%s "
          "batches=%s digest=%s reference=%s" % (
              meta["workload"], meta["seed"], meta["rounds"],
              meta["traced_rounds"], meta["tick_samples"],
              meta["ingest_samples"], meta["confirmed_digest"],
              meta["reference_digest"]))
    for e in meta["errors"]:
        print("CHECK FAILED: " + e)
    for name, m in metrics.items():
        print("  %-34s %16.6g %s" % (name, m["value"], m["unit"]))

    if args.out:
        full = dict(record)
        full["trace"] = args.trace
        with open(args.out, "a") as f:
            f.write(json.dumps(full) + "\n")

    print(json.dumps({"correct": bool(record["correct"]),
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}))
    sys.stdout.flush()
    if proc.returncode != 0 or not record["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
