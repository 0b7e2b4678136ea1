#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/client.cpp, runs one workload and
prints every metric by name with its unit, then one JSON result line.

    python3 perfbench/run.py --workload snapshot-read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run it from the repository root. --trace 0 reports the end-to-end metrics of
BENCHMARK.json from one untraced run. --trace 1 reports the per-layer
metrics: it runs the workload twice, once untraced and once under
MVCC_STATS=1 MVCC_TRACE=<file>, takes the untraced layer timings from the
first, the module counters, stage replay and span busy fractions from the
second, and the tracing overhead from the two. --smoke runs every workload
briefly in both modes and checks that each metric named in BENCHMARK.json is
printed with its unit and that no oracle check failed.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the root.
Inherited MVCC_* variables are removed before the client starts.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("snapshot-read", "write-stream", "ycsb-a-sharded")

# The rate obs.trace_overhead_frac compares between the untraced and the
# traced run: each workload's main throughput.
MAIN_RATE = {
    "snapshot-read": ("read_mops",),
    "write-stream": ("commit_mops",),
    "ycsb-a-sharded": ("commit_mops", "read_mops"),
}

# Per-layer metrics the traced run's client reports (module counters and the
# stage replay); the span fractions come from its trace file, and every
# other metric from the untraced run.
TRACED_ONLY = {
    "txn.stall_commit_frac", "txn.admission_reject_frac",
    "exec.tasks_per_batch", "exec.steals_per_batch",
    "ftree.prepare_ns_per_op", "ftree.multi_insert_ns_per_op", "vm.set_ns",
    "ftree.collect_ns_per_batch", "ftree.nodes_copied_per_op",
    "ftree.nodes_freed_per_batch",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    out = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return out if os.path.isabs(out) else os.path.join(ROOT, out)


def build():
    """Configures and builds the client; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "include", "mvcc", "txn",
                                       "batching.h")):
        fail("the mvcc headers (include/mvcc) are missing; run from a "
             "checkout of the repository")
    bdir = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "4"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=800)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench_client")


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("MVCC_")}


def run_client(binary, workload, seed, seconds, warmup, trace_file=None):
    env = clean_env()
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--warmup", str(warmup)]
    if trace_file is not None:
        env["MVCC_STATS"] = "1"
        env["MVCC_TRACE"] = trace_file
        cmd.append("--traced")
    r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                       stderr=sys.stderr, text=True, timeout=80)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("client failed (exit %d) on %s" % (r.returncode, workload))
    return json.loads(lines[-1])


def clipped(e, lo, hi):
    """Duration of span e (ns) inside [lo, hi]."""
    s = e["ts"] * 1000.0
    return max(0.0, min(s + e["dur"] * 1000.0, hi) - max(s, lo))


def collect_self_ns(spans, lo, hi):
    """Self time of ftree/collect spans fully inside [lo, hi]: a span's
    duration minus that of the collect spans nested in it."""
    spans = sorted(spans, key=lambda e: (e["ts"], -e["dur"]))
    total = 0.0
    stack = []  # [end_us, child_dur_us]
    for e in spans:
        s, d = e["ts"], e["dur"]
        while stack and s >= stack[-1][0]:
            stack.pop()
        if stack:
            stack[-1][1] += d
        inside = s * 1000.0 >= lo and (s + d) * 1000.0 <= hi
        stack.append([s + d, 0.0])
        e["_inside"] = inside
        e["_frame"] = stack[-1]
    for e in spans:
        if e["_inside"]:
            total += (e["dur"] - e["_frame"][1]) * 1000.0
    return total


def trace_fracs(path, t0, t1):
    """Per-layer fractions from the spans and instants of the measured window
    [t0, t1] (trace ns).

    Each thread's ring keeps only its latest events, so a thread's window
    starts at its oldest retained event if that is later than t0, and
    counts are compared as rates over each thread's own window.
    txn.flattener_busy_frac: flattener_commit time / window, averaged over
    the flattener threads. ftree.collect_busy_frac: collect self time /
    window, summed over threads (in CPUs). vm.release_free_frac: the share
    of vm/release_free events (a release that freed a version) that fell on
    threads other than a flattener, i.e. the frees readers pay for."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    flattener, collect = [], 0.0
    frees = {"reader": 0.0, "writer": 0.0}
    for evs in by_tid.values():
        lo = max(t0, min(e["ts"] for e in evs) * 1000.0)
        if t1 - lo < 1e6:  # under 1 ms of this thread's window retained
            continue
        commits = [e for e in evs
                   if e["ph"] == "X" and e["name"] == "txn/flattener_commit"]
        if commits:
            flattener.append(sum(clipped(e, lo, t1) for e in commits)
                             / (t1 - lo))
        spans = [e for e in evs
                 if e["ph"] == "X" and e["name"] == "ftree/collect"]
        collect += collect_self_ns(spans, lo, t1) / (t1 - lo)
        n = sum(1 for e in evs if e["name"] == "vm/release_free"
                and lo <= e["ts"] * 1000.0 <= t1)
        frees["writer" if commits else "reader"] += n / (t1 - lo)
    busy = sum(flattener) / len(flattener) if flattener else 0.0
    total = frees["reader"] + frees["writer"]
    return busy, collect, (frees["reader"] / total if total else 0.0)


def main_rate(workload, metrics):
    return sum(metrics[m]["value"] for m in MAIN_RATE[workload])


def measure(binary, workload, seed, seconds, trace, warmup):
    """Runs the workload; returns (metrics, attempted, failed, config)."""
    plain = run_client(binary, workload, seed, seconds, warmup)
    metrics = dict(plain["metrics"])
    attempted, failed = plain["attempted"], plain["failed"]
    if trace:
        trace_file = os.path.join(build_dir(), "trace-%s-%d.json"
                                  % (workload, seed))
        traced = run_client(binary, workload, seed, seconds, warmup,
                            trace_file)
        attempted += traced["attempted"]
        failed += traced["failed"]
        for name in TRACED_ONLY:
            metrics[name] = traced["metrics"][name]
        t0, t1 = traced["trace_window_ns"]
        busy, collect, reader_frees = trace_fracs(trace_file, t0, t1)
        os.remove(trace_file)
        metrics["txn.flattener_busy_frac"] = {"value": busy, "unit": "frac",
                                              "n": -1, "omitted": False}
        metrics["ftree.collect_busy_frac"] = {"value": collect,
                                              "unit": "frac", "n": -1,
                                              "omitted": False}
        metrics["vm.release_free_frac"] = {"value": reader_frees,
                                           "unit": "frac", "n": -1,
                                           "omitted": False}
        base = main_rate(workload, plain["metrics"])
        over = 1.0 - main_rate(workload, traced["metrics"]) / base
        metrics["obs.trace_overhead_frac"] = {"value": over, "unit": "frac",
                                              "n": -1, "omitted": False}
    return metrics, attempted, failed, plain["config"]


def print_report(workload, seed, seconds, trace, metrics, attempted, failed,
                 config):
    print("perfbench workload=%s seed=%d seconds=%s trace=%d"
          % (workload, seed, seconds, trace))
    print("config " + json.dumps(config, sort_keys=True))
    for name, m in metrics.items():
        n = "" if m["n"] < 0 else "n=%d" % m["n"]
        if m["omitted"]:
            print("  %-32s %16s %-6s %s (omitted: under 10 samples beyond)"
                  % (name, "-", m["unit"], n))
        else:
            print("  %-32s %16.6g %-6s %s" % (name, m["value"], m["unit"], n))
    print("  %-32s %16.6g %-6s failed=%d attempted=%d"
          % ("fail_frac", failed / max(attempted, 1), "frac", failed,
             attempted))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(args, binary, spec):
    metrics, attempted, failed, config = measure(
        binary, args.workload, args.seed, args.seconds, args.trace, 1.0)
    print_report(args.workload, args.seed, args.seconds, args.trace, metrics,
                 attempted, failed, config)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out, missing = {}, []
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["omitted"] or got["unit"] != m["unit"]:
            missing.append(m["name"])
        else:
            out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


def smoke(binary, spec):
    """Every workload, briefly, in both modes: checks on, every metric name
    of BENCHMARK.json printed with its unit."""
    bad = []
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            metrics, attempted, failed, config = measure(
                binary, workload, 1, 2, trace, 0.3)
            print_report(workload, 1, 2, trace, metrics, attempted, failed,
                         config)
            if failed:
                bad.append("%s trace=%d: %d failed checks"
                           % (workload, trace, failed))
            for m in spec[group]:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    bad.append("%s trace=%d: %s [%s] not printed"
                               % (workload, trace, m["name"], m["unit"]))
    for b in bad:
        print("SMOKE FAIL " + b)
    print("smoke " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke")
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be within [1, 60]")
    start = time.time()
    binary = build()
    print("perfbench: build ready in %.1f s" % (time.time() - start),
          file=sys.stderr)
    spec = load_spec()
    sys.stdout.flush()
    return smoke(binary, spec) if args.smoke else run_one(args, binary, spec)


if __name__ == "__main__":
    sys.exit(main())
