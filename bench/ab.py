#!/usr/bin/env python3
"""Same-session A/B of the repository benchmark between two revisions.

    python3 bench/ab.py <parent-rev> --out BENCH_<n>.json
    python3 bench/ab.py HEAD~1 --change HEAD --workloads write-stream \\
        --pairs 10 --sets 2 --seed 3001 --out BENCH_<n>.json

Exports both revisions with `git archive` into a work directory (a new
temporary one, or --work DIR, which must not hold an earlier run's parent/
or change/ checkout), builds each one's perfbench client once (each side has
its own CARGO_TARGET_DIR), then runs
`perfbench/run.py --workload <w> --seed <s> --seconds <n> --trace 0`
(n is BENCHMARK.json's run_seconds) for every requested workload and pair,
in each side's checkout. The side that runs first alternates from pair to
pair. Every result line is kept
with its seed. With --sets K the pairs are run K times over (seeds continue
across sets), so a claim can be checked on sets measured apart.

Writes a BENCH file in the shape bench/compare_bench.py reads: host, both
commits, the command, runs.parent / runs.change (every set) and, with --sets
above 1, each set's seeds and comparator output. Then runs the comparator on
the whole file and exits with its status. Standard library only.
"""
import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("snapshot-read", "write-stream", "ycsb-a-sharded")
SIDES = ("parent", "change")


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(rev, dest):
    """Extracts the committed tree of `rev` into dest, a new directory."""
    os.makedirs(dest)
    p = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         stdout=subprocess.PIPE)
    with tarfile.open(fileobj=p.stdout, mode="r|") as t:
        t.extractall(dest)
    if p.wait() != 0:
        sys.exit("ab: git archive %s failed" % rev)


def side_env(work, side):
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.join(work, side + "-build")
    return env


def build(work, side):
    """Builds the side's perfbench client through its own run.py."""
    checkout = os.path.join(work, side)
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "run.build()")
    subprocess.run([sys.executable, "-c", code], cwd=checkout,
                   env=side_env(work, side), check=True)


def run_one(work, side, workload, seed, seconds):
    """One perfbench run; returns its result line with the seed added."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=os.path.join(work, side),
                       env=side_env(work, side), stdout=subprocess.PIPE,
                       text=True)
    lines = r.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit("ab: %s run of %s seed %d printed no result line (exit %d)"
                 % (side, workload, seed, r.returncode))
    line = json.loads(lines[-1])
    line["seed"] = seed
    return line


def compare(path):
    """Runs the comparator on a BENCH file; returns (exit, output lines)."""
    cmd = [sys.executable, os.path.join(ROOT, "bench", "compare_bench.py"),
           path]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    return r.returncode, r.stdout.rstrip("\n").splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="the baseline revision")
    ap.add_argument("--change", default="HEAD",
                    help="the revision under test (default HEAD)")
    ap.add_argument("--workloads", default=",".join(WORKLOADS),
                    help="comma-separated perfbench workloads (default all)")
    ap.add_argument("--pairs", type=int, default=10,
                    help="alternating pairs per workload and set")
    ap.add_argument("--sets", type=int, default=1,
                    help="times the pairs are run over")
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the first pair; later pairs count up")
    ap.add_argument("--work", help="directory for the checkouts and builds "
                    "(default: a new temporary directory)")
    ap.add_argument("--out", required=True, help="the BENCH file to write")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in WORKLOADS:
            ap.error("unknown workload %r" % w)
    revs = {"parent": git("rev-parse", "--short", args.parent),
            "change": git("rev-parse", "--short", args.change)}
    work = os.path.abspath(args.work or tempfile.mkdtemp(prefix="ab-"))
    os.makedirs(work, exist_ok=True)
    for side in SIDES:
        if os.path.exists(os.path.join(work, side)):
            sys.exit("ab: %s already holds a %s/ checkout; give --work a "
                     "directory without an earlier run" % (work, side))
    for side in SIDES:
        export(revs[side], os.path.join(work, side))
        build(work, side)

    sets = []
    seed = args.seed
    for k in range(args.sets):
        first_seed = seed
        runs = {side: {w: [] for w in workloads} for side in SIDES}
        for w in workloads:
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    line = run_one(work, side, w, seed, seconds)
                    runs[side][w].append(line)
                    print("ab: set %d %s seed %d %s %s" % (
                        k + 1, w, seed, side,
                        json.dumps({m: v["value"] for m, v
                                    in line["metrics"].items()})),
                          file=sys.stderr)
                seed += 1
        sets.append({"seeds": [first_seed, seed - 1], "runs": runs})

    bench = {
        "date": datetime.date.today().isoformat(),
        "host": "%s, %d CPUs" % (platform.machine(), os.cpu_count()),
        "command": "python3 perfbench/run.py --workload <w> --seed <n> "
                   "--seconds %d --trace 0" % seconds,
        "driver": "python3 bench/ab.py %s --change %s --workloads %s "
                  "--pairs %d --sets %d --seed %d"
                  % (revs["parent"], revs["change"], ",".join(workloads),
                     args.pairs, args.sets, args.seed),
        "parent_commit": revs["parent"],
        "change_commit": revs["change"],
        "runs": {side: {w: [line for s in sets for line in s["runs"][side][w]]
                        for w in workloads} for side in SIDES},
    }
    if args.sets > 1:
        # Each set's own verdicts; its run lines are already in "runs".
        for k, s in enumerate(sets):
            path = os.path.join(work, "set%d.json" % (k + 1))
            with open(path, "w") as f:
                json.dump({"runs": s.pop("runs")}, f)
            code, out = compare(path)
            s["comparator"] = {"exit": code, "output": out}
        bench["sets"] = sets
    with open(args.out, "w") as f:
        json.dump(bench, f, indent=1)
    code, out = compare(args.out)
    bench["comparator"] = {"command": "python3 bench/compare_bench.py "
                           + os.path.basename(args.out),
                           "exit": code, "output": out}
    with open(args.out, "w") as f:
        json.dump(bench, f, indent=1)
        f.write("\n")
    print("\n".join(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
