#!/usr/bin/env python3
"""Merges bench outputs into one flat JSON object (bench-smoke.json).

Usage: merge_json.py OUTPUT... [footprint.csv] > bench-smoke.json

Each OUTPUT is a bench's captured stdout. Every bench ends its stdout with
its obs registry dumped as one JSON object, keys already namespaced by the
bench (fig7/..., batching/..., table3/..., collect/...); that block is
taken as is. A .csv input is the footprint sampler's t_ms,col,... curve,
summarised to footprint/<col>/first|peak|mean|final.

Fails when an output has no JSON block, a CSV has no samples, or two inputs
emit the same key.
"""
import csv
import json
import sys


def registry_block(path):
    with open(path) as f:
        lines = f.read().splitlines()
    starts = [i for i, line in enumerate(lines) if line in ("{", "{}")]
    if not starts:
        sys.exit(f"merge_json.py: no registry JSON block in {path}")
    return json.loads("\n".join(lines[starts[-1]:]))


def footprint(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if len(rows) < 2:
        sys.exit(f"merge_json.py: no footprint samples in {path}")
    out = {}
    for i, col in enumerate(rows[0][1:], start=1):
        values = [int(r[i]) for r in rows[1:]]
        out[f"footprint/{col}/first"] = values[0]
        out[f"footprint/{col}/peak"] = max(values)
        out[f"footprint/{col}/mean"] = round(sum(values) / len(values), 3)
        out[f"footprint/{col}/final"] = values[-1]
    return out


def main(args):
    if not args:
        sys.exit(__doc__)
    merged = {}
    for path in args:
        if path.endswith(".csv"):
            block = footprint(path)
        else:
            block = registry_block(path)
        for key, value in block.items():
            if key in merged:
                sys.exit(f"merge_json.py: {key} emitted twice ({path})")
            merged[key] = value
    # One key per line, like the registry dumps, so the file greps cleanly.
    lines = (f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in merged.items())
    print("{\n" + ",\n".join(lines) + "\n}")


if __name__ == "__main__":
    main(sys.argv[1:])
