#!/usr/bin/env python3
"""Compares two result sets of the benchmark, per (metric, workload).

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each result set is a JSON lines file written by `run.py --out`, one record
per run; give runs of the same seeds on both sides. Runs with --trace 0
are judged. End-to-end metrics use the bounds and directions in
BENCHMARK.json:

  improved    the change wins at least 9 of 10 seed pairs (ties count for
              neither side) and the medians differ by more than the
              parent's own spread (distance between its quartiles);
  worse       the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's spread is wider than the bound and not every
              change run beats every parent run;
  same        otherwise, or every pair ties.

Demoted metrics (per-layer "demoted.<name>", recorded in every run) have
no bound; they are judged by the pairs rule alone: improved, worse (the
parent wins at least 9 of 10 pairs and the medians differ by more than the
parent's spread), or unresolved.

Failed operations are counted separately: a gain does not count when the
change fails more operations than the parent. Exits 1 when any pairing is
worse, a run failed its correctness check, or the change fails more.
Standard library only.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEMOTED = "demoted."


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            r = json.loads(line)
            if r.get("trace", 0):
                continue
            runs.setdefault(r["meta"]["workload"], {})[r["meta"]["seed"]] = r
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def judge(metric, parent, change):
    """parent/change: lists of values over the same seeds, in seed order."""
    sign = 1 if metric["better"] == "higher" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    rel = sign * (cm - pm) / abs(pm) if pm else 0.0
    if wins == 0 and losses == 0:
        verdict = "same"
    elif wins >= 0.9 * len(parent) and abs(cm - pm) > spread and rel > 0:
        verdict = "improved"
    elif "bound" not in metric:
        verdict = ("worse" if losses >= 0.9 * len(parent) and
                   abs(cm - pm) > spread else "unresolved")
    elif rel < -metric["bound"]:
        verdict = "worse"
    elif pm and spread / abs(pm) > metric["bound"] and not (
            min(sign * c for c in change) > max(sign * p for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "same"
    return verdict, pm, cm, rel, wins


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    demoted = [dict(m, name=m["name"][len(DEMOTED):])
               for m in spec["per_layer"] if m["name"].startswith(DEMOTED)]
    bad = False
    print("%-14s %-18s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "parent", "change", "delta", "wins", "verdict"))
    for wl in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(set(parent.get(wl, {})) & set(change.get(wl, {})))
        if not seeds:
            print("%-14s (no common seeds)" % wl)
            continue
        p_runs = [parent[wl][s] for s in seeds]
        c_runs = [change[wl][s] for s in seeds]
        for m in spec["end_to_end"] + demoted:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            verdict, pm, cm, rel, wins = judge(m, pv, cv)
            bad |= verdict == "worse"
            print("%-14s %-18s %12.5g %12.5g %+7.1f%% %3d/%-2d  %s" % (
                wl, name, pm, cm, 100 * rel, wins, len(seeds), verdict))
        pf = sum(r["failed"] for r in p_runs)
        pa = sum(r["attempted"] for r in p_runs)
        cf = sum(r["failed"] for r in c_runs)
        ca = sum(r["attempted"] for r in c_runs)
        print("%-14s %-18s %12.5g %12.5g   (failed / attempted: %d/%d vs %d/%d)"
              % (wl, "failed_ratio", pf / max(pa, 1), cf / max(ca, 1),
                 pf, pa, cf, ca))
        if cf / max(ca, 1) > pf / max(pa, 1):
            print("%-14s change fails more operations: no gain counts" % wl)
            bad = True
        incorrect = [r["meta"]["seed"] for r in p_runs + c_runs
                     if not r["correct"]]
        if incorrect:
            print("%-14s correctness check failed on seeds %s" % (
                wl, incorrect))
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
