#!/usr/bin/env python3
"""Compares the parent and change runs recorded in one BENCH_*.json file.

    python3 bench/compare_bench.py BENCH_19.json [--benchmark BENCHMARK.json]

The file's runs.parent and runs.change hold, per workload, the JSON result
lines of perfbench/run.py. Runs that carry "trace": 1 are left out, so only
untraced end-to-end numbers are compared. Runs pair up by seed, or by
position when the seeds differ.

For each workload and each end-to-end metric of BENCHMARK.json it prints
both sides' median and quartiles, the pairs the change won (moved in the
metric's better direction), the gain of the change's median relative to the
parent's (negative when worse) and the metric's bound. The verdict is WORSE
when the change's median is worse than the parent's by more than the bound,
WIDE when the change's quartile spread exceeds the bound times the parent's
median (too spread to tell), and GAIN when the change won at least 9 pairs
in 10 and its median gained more than the parent's quartile spread. Exits 1
if any metric is WORSE or a run failed operations or its oracles, 0
otherwise. Standard library only.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(xs):
    """(q1, median, q3) of a non-empty list."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def untraced(lines):
    return [r for r in lines if not r.get("trace")]


def pairs(parent, change):
    """Matched (parent, change) result lines: by seed if both sides carry
    the same seeds, else by position."""
    pseeds = [r.get("seed") for r in parent]
    cseeds = [r.get("seed") for r in change]
    if None not in pseeds and sorted(pseeds) == sorted(cseeds):
        by_seed = {r["seed"]: r for r in change}
        return [(p, by_seed[p["seed"]]) for p in parent]
    return list(zip(parent, change))


def fmt(x):
    return "%.4g" % x


def compare(bench, metrics):
    """Prints one table per workload; returns the number of problems."""
    problems = 0
    runs = bench["runs"]
    for workload in sorted(runs["parent"]):
        parent = untraced(runs["parent"][workload])
        change = untraced(runs["change"].get(workload, []))
        matched = pairs(parent, change)
        failed = sum(r.get("failed", 0) for r in parent + change)
        incorrect = sum(1 for r in parent + change if not r.get("correct"))
        print("%s: %d pairs, %d failed ops, %d incorrect runs"
              % (workload, len(matched), failed, incorrect))
        if failed or incorrect:
            problems += 1
        print("  %-14s %-34s %-34s %6s %8s %6s  %s"
              % ("metric", "parent median [q1, q3]",
                 "change median [q1, q3]", "won", "gain", "bound",
                 "verdict"))
        for m in metrics:
            name = m["name"]
            got = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                   for p, c in matched
                   if name in p["metrics"] and name in c["metrics"]]
            if not got:
                continue
            lower = m["better"] == "lower"
            pq1, pmed, pq3 = quartiles([p for p, _ in got])
            cq1, cmed, cq3 = quartiles([c for _, c in got])
            won = sum(1 for p, c in got if (c < p if lower else c > p))
            gain = (pmed - cmed) if lower else (cmed - pmed)
            rel = gain / pmed if pmed else 0.0
            verdict = []
            if -rel > m["bound"]:
                verdict.append("WORSE")
                problems += 1
            if pmed and (cq3 - cq1) > m["bound"] * pmed:
                verdict.append("WIDE")
            if won * 10 >= 9 * len(got) and gain > pq3 - pq1:
                verdict.append("GAIN")
            print("  %-14s %-34s %-34s %6s %+7.1f%% %5.0f%%  %s"
                  % (name,
                     "%s [%s, %s]" % (fmt(pmed), fmt(pq1), fmt(pq3)),
                     "%s [%s, %s]" % (fmt(cmed), fmt(cq1), fmt(cq3)),
                     "%d/%d" % (won, len(got)), 100.0 * rel,
                     100.0 * m["bound"], " ".join(verdict) or "ok"))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench", help="a BENCH_*.json file with runs.parent "
                    "and runs.change")
    ap.add_argument("--benchmark", default=os.path.join(ROOT,
                                                        "BENCHMARK.json"),
                    help="the benchmark declaration with each metric's bound")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    with open(args.bench) as f:
        bench = json.load(f)
    if "runs" not in bench or not {"parent", "change"} <= set(bench["runs"]):
        print("%s has no runs.parent / runs.change" % args.bench,
              file=sys.stderr)
        return 2
    return 1 if compare(bench, metrics) else 0


if __name__ == "__main__":
    sys.exit(main())
