#!/usr/bin/env python3
"""Compares the parent and change runs recorded in one BENCH_*.json file.

    python3 bench/compare_bench.py BENCH_20.json [--benchmark BENCHMARK.json]
    python3 bench/compare_bench.py BENCH_20.json --against BENCH_19.json

The file's runs.parent and runs.change hold, per workload, the JSON result
lines of perfbench/run.py. Runs that carry "trace": 1 are left out, so only
untraced end-to-end numbers are compared. Runs pair up by seed, or by
position when the seeds differ or either side has a line without one. With
--against, the file's change runs are compared with the other file's change
runs instead of its own parent runs: the trajectory from one recorded change
to the next (the two were measured at different times, so host drift shows
up as a move on every metric).

For each workload and each end-to-end metric of BENCHMARK.json it prints
both sides' median and quartiles, each side's quartile spread relative to
its own median (information only), the pairs the change won (moved in the
metric's better direction), the gain of the change's median relative to the
baseline's (negative when worse) and the metric's bound. The verdict is
WORSE when the change's median is worse than the baseline's by more than
the bound, WIDE when the change's quartile spread exceeds the bound times
the baseline's median (too spread to tell), and GAIN when the change won at
least 9 pairs in 10 and its median gained more than the baseline's quartile
spread. Exits 1 if any metric is WORSE or a run failed operations or its
oracles, 0 otherwise. Standard library only.
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
    """Matched (parent, change) result lines: by seed if every line on both
    sides carries one and the two sides carry the same seeds, else by
    position."""
    pseeds = [r.get("seed") for r in parent]
    cseeds = [r.get("seed") for r in change]
    if None not in pseeds + cseeds and sorted(pseeds) == sorted(cseeds):
        by_seed = {r["seed"]: r for r in change}
        return [(p, by_seed[p["seed"]]) for p in parent]
    return list(zip(parent, change))


def fmt(x):
    return "%.4g" % x


def spread(q1, med, q3):
    """Quartile spread relative to the median, as a percentage string."""
    return "%.1f%%" % (100.0 * (q3 - q1) / med) if med else "-"


def compare(base_runs, change_runs, metrics, base_label):
    """Prints one table per workload, the change's runs against the
    baseline's; returns the number of problems."""
    problems = 0
    for workload in sorted(base_runs):
        parent = untraced(base_runs[workload])
        change = untraced(change_runs.get(workload, []))
        matched = pairs(parent, change)
        failed = sum(r.get("failed", 0) for r in parent + change)
        incorrect = sum(1 for r in parent + change if not r.get("correct"))
        print("%s: %d pairs, %d failed ops, %d incorrect runs"
              % (workload, len(matched), failed, incorrect))
        if failed or incorrect:
            problems += 1
        print("  %-14s %-34s %-34s %15s %6s %8s %6s  %s"
              % ("metric", base_label + " median [q1, q3]",
                 "change median [q1, q3]", "iqr/med", "won", "gain",
                 "bound", "verdict"))
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
            print("  %-14s %-34s %-34s %15s %6s %+7.1f%% %5.0f%%  %s"
                  % (name,
                     "%s [%s, %s]" % (fmt(pmed), fmt(pq1), fmt(pq3)),
                     "%s [%s, %s]" % (fmt(cmed), fmt(cq1), fmt(cq3)),
                     "%s %s" % (spread(pq1, pmed, pq3),
                                spread(cq1, cmed, cq3)),
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
    ap.add_argument("--against", metavar="BENCH_N.json",
                    help="compare the change runs with this file's change "
                    "runs instead of the parent runs")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    files = [args.bench] + ([args.against] if args.against else [])
    runs = []
    for path in files:
        with open(path) as f:
            bench = json.load(f)
        if ("runs" not in bench
                or not {"parent", "change"} <= set(bench["runs"])):
            print("%s has no runs.parent / runs.change" % path,
                  file=sys.stderr)
            return 2
        runs.append(bench["runs"])
    if args.against:
        base, label = runs[1]["change"], "previous change"
    else:
        base, label = runs[0]["parent"], "parent"
    return 1 if compare(base, runs[0]["change"], metrics, label) else 0


if __name__ == "__main__":
    sys.exit(main())
