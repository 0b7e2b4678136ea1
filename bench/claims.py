#!/usr/bin/env python3
"""Usage: claims.py bench-smoke.json -- prints each paper result as HOLDS,
FAILS or NOT MEASURED with its numbers; exits 1 if a gated claim fails."""
import json
import os
import sys

VMS = ("Base", "PSWF", "PSLF", "HP", "EP", "RCU", "IBR")
CELLS = ("nq10/nu1", "nq10/nu10", "nq10/nu100", "nq10/nu1000",
         "nq10/nu10000", "nq1000/nu10", "nq1000/nu1000")
BASELINES = ("cow-nobatch", "skiplist", "ext-bst", "b+tree", "hash")


def thm_3_4(m):
    """Thm 3.4, O(P) live versions"""
    # At most P = readers + 1 announced versions plus the one just retired.
    readers = m["vm_sweep/readers"]
    v = {(vm, c, k): m[f"vm_sweep/{vm}/{c}/{k}"] for vm in VMS for c in CELLS
         for k in ("query_ops_per_s", "update_ops_per_s", "max_live_versions")}
    wf, lf = (max(v[vm, c, "max_live_versions"] for c in CELLS)
              for vm in ("PSWF", "PSLF"))
    return (f"max live PSWF {wf}, PSLF {lf}, readers + 2 = {readers + 2}",
            readers > 0 and max(wf, lf) <= readers + 2)


def thm_4_2_selfcheck(m):
    """Thm 4.2, exactly the unreachable nodes freed"""
    f, r, live = (m[f"collect/selfcheck_{k}"]
                  for k in ("freed", "reachable", "live"))
    return f"freed {f}, reachable {r}, live {live}", f == r and live == 0


def footprint_shape(m):
    """Footprint, ftree/live_bytes rose and fell back to its start"""
    first, peak, final = (m[f"footprint/ftree/live_bytes/{k}"]
                          for k in ("first", "peak", "final"))
    return (f"first {first}, peak {peak}, final {final}",
            first < peak and final == first)


def table3(m):
    """Table 3, concurrency is nearly free"""
    rows = sorted({k.split("/")[1] for k in m if k.startswith("table3/")})
    t = {p: [m[f"table3/{p}/{c}_ns"] for c in ("Tu", "Tq", "Tuplusq")]
         for p in rows}
    ratio = {p: round(uq / (u + q), 2) for p, (u, q, uq) in t.items()}
    return (f"Tu+q / (Tu + Tq) {ratio} vs 1.5",
            bool(t) and all(uq < 1.5 * (u + q) for u, q, uq in t.values()))


def fig7_shard_sweep(m):
    """Fig 7, sharded write scale-out"""
    # The rise from 1 to 4 shards is checked where 4 flatteners have cores.
    upd = [m[f"fig7/shardscale/s{s}/upd_ops_per_s"] for s in (1, 2, 4)]
    cpus = len(os.sched_getaffinity(0))
    counts = ["batching/sharded/multi_commits", "fig7/sharded/snapshots"]
    counts += [f"{b}/shardscale/s{s}/shard{i}/ops" for s in (1, 2, 4)
               for i in range(s) for b in ("fig7", "batching")]
    zero = [k for k in counts if not m[k]]
    return (f"upd/s s1/s2/s4 {upd} on {cpus} CPUs, zero counts {zero}",
            upd[2] > 0 and (cpus < 4 or upd == sorted(upd)) and not zero)


def sec_7_1(m):
    """§7.1 / Table 2, PSWF/PSLF query within 15% of HP"""
    # The read-heavy cells, where §7.1 reports near-identical throughput.
    x = {f"{vm}/{c}": m[f"vm_sweep/{vm}/{c}/query_ops_per_s"]
         / m[f"vm_sweep/HP/{c}/query_ops_per_s"] for vm in ("PSWF", "PSLF")
         for c in ("nq10/nu1", "nq10/nu10", "nq1000/nu10")}
    return (f"x HP's query rate { {k: round(v, 2) for k, v in x.items()} }",
            min(x.values()) >= 0.85)


def fig6(m):
    """Fig 6, EP's live versions grow, PSWF/PSLF's stay bounded"""
    ep, wf, lf = (m[f"vm_sweep/{vm}/nq10/nu1/max_live_versions"]
                  for vm in ("EP", "PSWF", "PSLF"))
    return f"at nq10/nu1: EP {ep}, PSWF {wf}, PSLF {lf}", ep > max(wf, lf)


def fig7_ours(m):
    """Fig 7, ours at or above the best baseline"""
    x = {f"{w}/{s}": m[f"fig7/{w}/{s}/ops_per_s"]
         / max(m[f"fig7/{w}/{b}/ops_per_s"] for b in BASELINES)
         for w in "ABC" for s in ("ours", "ours+gc")}
    return (f"x best baseline { {k: round(v, 2) for k, v in x.items()} }",
            all(x[f"{w}/ours"] >= 1 for w in "ABC"))


def thm_4_2_cost(m):
    """Thm 4.2, collect costs O(S+1)"""
    # Flat ns per freed tuple: at the largest S at most 2x that at S = 100.
    ns = dict(sorted((int(k.split("/")[2][1:]), v) for k, v in m.items()
                     if k.startswith("collect/chain/s")
                     and k.endswith("/ns_per_tuple")))
    at_100, top = ns[100], max(ns)
    return f"ns per freed tuple by S {ns}", ns[top] <= 2 * at_100


GATED = (thm_3_4, thm_4_2_selfcheck, footprint_shape, table3, fig7_shard_sweep)


def main(path):
    with open(path) as f:
        m, failed = json.load(f), False
    for claim in GATED + (sec_7_1, fig6, fig7_ours, thm_4_2_cost):
        try:
            numbers, ok = claim(m)
        except (KeyError, ZeroDivisionError) as e:
            numbers, ok = f"{type(e).__name__}: {e}", None
        tag = "gated" if claim in GATED else "reported"
        failed = failed or (tag == "gated" and not ok)
        verdict = {True: "HOLDS", False: "FAILS", None: "NOT MEASURED"}[ok]
        print(f"{verdict:<12}  {claim.__doc__} ({tag}): {numbers}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]) if len(sys.argv) == 2 else __doc__)
