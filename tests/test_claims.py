#!/usr/bin/env python3
"""Tests for bench/claims.py, the claims ledger.

A small synthetic bench-smoke.json on which every gated claim holds; each
gated condition is then broken once, on its own, and must fail the ledger.
Run directly or through ctest (`ctest -R Claims`).
"""
import contextlib
import io
import json
import os
import re
import sys
import tempfile
import unittest
from unittest import mock

sys.dont_write_bytecode = True  # no __pycache__ beside bench/claims.py
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))
import claims  # noqa: E402

READERS = 2


def smoke():
    """A registry on which every claim, gated or reported, HOLDS."""
    m = {"vm_sweep/readers": READERS}
    for vm in claims.VMS:
        for c in claims.CELLS:
            cell = f"vm_sweep/{vm}/{c}/"
            m[cell + "query_ops_per_s"] = 1_000_000
            m[cell + "update_ops_per_s"] = 100_000
            # The Thm 3.4 bound is met with equality by PSWF and PSLF.
            m[cell + "max_live_versions"] = {
                "PSWF": READERS + 2, "PSLF": READERS + 2, "EP": 900}.get(vm, 6)
    m.update({"collect/selfcheck_freed": 6284,
              "collect/selfcheck_reachable": 6284,
              "collect/selfcheck_live": 0})
    m.update({"footprint/ftree/live_bytes/first": 0,
              "footprint/ftree/live_bytes/peak": 3000,
              "footprint/ftree/live_bytes/mean": 700.5,
              "footprint/ftree/live_bytes/final": 0})
    # Collect's ns per freed tuple, exactly 2x S = 100's at the largest S.
    for s, ns in ((10, 80), (100, 30), (1000, 26), (10000, 60)):
        m[f"collect/chain/s{s}/ns_per_tuple"] = ns
    # Tu+q just under 1.5 x (Tu + Tq) on p2, the row the tests push over.
    for p, tu, tq, tuq in (("p1", 100, 50, 120), ("p2", 100, 100, 299)):
        m.update({f"table3/{p}/Tu_ns": tu, f"table3/{p}/Tq_ns": tq,
                  f"table3/{p}/TuplusTq_ns": tu + tq,
                  f"table3/{p}/Tuplusq_ns": tuq})
    for s, rate in ((1, 2_000_000), (2, 2_500_000), (4, 3_000_000)):
        m[f"fig7/shardscale/s{s}/upd_ops_per_s"] = rate
        for b in ("fig7", "batching"):
            for i in range(s):
                m[f"{b}/shardscale/s{s}/shard{i}/ops"] = 1000
    m["batching/sharded/multi_commits"] = 40
    m["fig7/sharded/snapshots"] = 7
    for w in "ABC":
        for s in ("ours", "ours+gc") + claims.BASELINES:
            m[f"fig7/{w}/{s}/ops_per_s"] = 9_000_000 if "ours" in s else 1_000
    return m


LINE = re.compile(r"(HOLDS|FAILS|NOT MEASURED) +(.*) \((gated|reported)\): ")


def run(m, cpus=4):
    """The ledger's exit status and its verdicts, keyed by claim."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "bench-smoke.json")
        with open(path, "w") as f:
            json.dump(m, f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), mock.patch.object(
                claims.os, "sched_getaffinity",
                return_value=set(range(cpus))):
            status = claims.main(path)
    lines = [LINE.match(line) for line in out.getvalue().splitlines()]
    return status, {match[2]: match[1] for match in lines}


def edited(changes):
    """smoke() with `changes` applied; a value of None removes the key."""
    m = smoke()
    for key, value in changes.items():
        if value is None:
            del m[key]
        else:
            m[key] = value
    return m


THM_3_4 = "Thm 3.4, O(P) live versions"
SELFCHECK = "Thm 4.2, exactly the unreachable nodes freed"
FOOTPRINT = "Footprint, ftree/live_bytes rose and fell back to its start"
TABLE_3 = "Table 3, concurrency is nearly free"
SHARDS = "Fig 7, sharded write scale-out"
SEC_7_1 = "§7.1 / Table 2, PSWF/PSLF query within 15% of HP"
FIG_6 = "Fig 6, EP's live versions grow, PSWF/PSLF's stay bounded"
FIG_7 = "Fig 7, ours at or above the best baseline"
COST = "Thm 4.2, collect costs O(S+1)"


class Claims(unittest.TestCase):
    def assertBreaks(self, m, claim, verdict="FAILS", cpus=4):
        """`m` fails the run on `claim` alone."""
        status, verdicts = run(m, cpus)
        self.assertEqual(status, 1)
        expected = run(smoke(), cpus)[1]
        expected[claim] = verdict
        self.assertEqual(verdicts, expected)

    def test_every_claim_holds_on_the_smoke_registry(self):
        status, verdicts = run(smoke())
        self.assertEqual(status, 0)
        self.assertEqual(verdicts, {THM_3_4: "HOLDS", SELFCHECK: "HOLDS",
                                    FOOTPRINT: "HOLDS", TABLE_3: "HOLDS",
                                    SHARDS: "HOLDS", SEC_7_1: "HOLDS",
                                    FIG_6: "HOLDS", FIG_7: "HOLDS",
                                    COST: "HOLDS"})

    def test_thm_3_4_bound_is_readers_plus_two(self):
        for vm in ("PSWF", "PSLF"):
            key = f"vm_sweep/{vm}/nq1000/nu10/max_live_versions"
            self.assertBreaks(edited({key: READERS + 3}), THM_3_4)

    def test_thm_3_4_needs_readers_and_every_cell(self):
        # No readers fails even with every cell under the bound.
        no_readers = {f"vm_sweep/{vm}/{c}/max_live_versions": 1
                      for vm in ("PSWF", "PSLF") for c in claims.CELLS}
        no_readers["vm_sweep/readers"] = 0
        self.assertBreaks(edited(no_readers), THM_3_4)
        for key in ("vm_sweep/readers",
                    "vm_sweep/IBR/nq1000/nu1000/update_ops_per_s"):
            self.assertBreaks(edited({key: None}), THM_3_4, "NOT MEASURED")

    def test_selfcheck_frees_exactly_the_reachable_nodes(self):
        self.assertBreaks(edited({"collect/selfcheck_freed": 6283}), SELFCHECK)
        self.assertBreaks(edited({"collect/selfcheck_live": 1}), SELFCHECK)
        self.assertBreaks(edited({"collect/selfcheck_reachable": None}),
                          SELFCHECK, "NOT MEASURED")

    def test_footprint_peaks_above_both_ends(self):
        for end in ("first", "final"):
            key = f"footprint/ftree/live_bytes/{end}"
            self.assertBreaks(edited({key: 3000}), FOOTPRINT)
        self.assertBreaks(edited({"footprint/ftree/live_bytes/first": None}),
                          FOOTPRINT, "NOT MEASURED")

    def test_footprint_returns_exactly_to_its_start(self):
        # A final footprint above the first one, even far below the peak,
        # is memory the run never gave back.
        self.assertBreaks(edited({"footprint/ftree/live_bytes/final": 1}),
                          FOOTPRINT)

    def test_table3_bound_is_one_and_a_half(self):
        # Exactly 1.5 x (Tu + Tq) fails.
        self.assertBreaks(edited({"table3/p2/Tuplusq_ns": 300}), TABLE_3)
        no_rows = {k: v for k, v in smoke().items()
                   if not k.startswith("table3/")}
        self.assertBreaks(no_rows, TABLE_3)
        self.assertBreaks(edited({"table3/p1/Tq_ns": None}), TABLE_3,
                          "NOT MEASURED")

    def test_shard_sweep_needs_every_row_and_a_committing_widest(self):
        self.assertBreaks(edited({"fig7/shardscale/s2/upd_ops_per_s": None}),
                          SHARDS, "NOT MEASURED")
        self.assertBreaks(edited({f"fig7/shardscale/s{s}/upd_ops_per_s": 0
                                  for s in (1, 2, 4)}), SHARDS)

    def test_shard_sweep_must_not_fall_on_four_cpus(self):
        m = edited({"fig7/shardscale/s4/upd_ops_per_s": 2_400_000})
        self.assertBreaks(m, SHARDS, cpus=4)
        status, verdicts = run(m, cpus=3)
        self.assertEqual(status, 0)
        self.assertEqual(verdicts[SHARDS], "HOLDS")

    def test_shard_sweep_every_count_is_nonzero(self):
        for key in ("batching/sharded/multi_commits", "fig7/sharded/snapshots",
                    "fig7/shardscale/s1/shard0/ops",
                    "batching/shardscale/s4/shard3/ops"):
            self.assertBreaks(edited({key: 0}), SHARDS)
        self.assertBreaks(edited({"fig7/shardscale/s2/shard1/ops": None}),
                          SHARDS, "NOT MEASURED")

    def test_collect_cost_is_reported_against_s_100(self):
        # One ns over 2x S = 100's at the largest S fails, without failing
        # the run; the largest S decides, not a middle one.
        status, verdicts = run(edited({
            "collect/chain/s10000/ns_per_tuple": 61}))
        self.assertEqual(status, 0)
        self.assertEqual(verdicts[COST], "FAILS")
        status, verdicts = run(edited({
            "collect/chain/s1000/ns_per_tuple": 900}))
        self.assertEqual(verdicts[COST], "HOLDS")
        status, verdicts = run(edited({
            "collect/chain/s100/ns_per_tuple": None}))
        self.assertEqual(status, 0)
        self.assertEqual(verdicts[COST], "NOT MEASURED")

    def test_reported_claims_never_fail_the_run(self):
        status, verdicts = run(edited({
            "vm_sweep/PSWF/nq1000/nu10/query_ops_per_s": 849_999,
            "vm_sweep/EP/nq10/nu1/max_live_versions": READERS + 2,
            "fig7/B/ours/ops_per_s": 999,
            "fig7/C/hash/ops_per_s": None}))
        self.assertEqual(status, 0)
        self.assertEqual([verdicts[c] for c in (SEC_7_1, FIG_6, FIG_7)],
                         ["FAILS", "FAILS", "NOT MEASURED"])
        status, verdicts = run(edited({"fig7/C/hash/ops_per_s": 9_000_001}))
        self.assertEqual(verdicts[FIG_7], "FAILS")


if __name__ == "__main__":
    unittest.main()
