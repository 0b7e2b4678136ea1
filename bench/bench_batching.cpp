// Ablation for Appendix F: batch size vs throughput and latency. Sweeps the
// writer's max batch bound and reports steady-state update throughput, mean
// batch size, and p50/p99/p999 submit-to-commit latency -- the
// throughput/latency trade the paper calls out ("a larger batch size leads
// to higher throughput ... at the cost of longer latency").
//
// Each cell is a bench::steady_state run: producers start, the system warms
// for MVCC_WARMUP_SECONDS (rings filled, flattener batching at its
// equilibrium size, allocator warm), then the MVCC_SECONDS window is
// measured. Latency probes record into the cell's registry histogram only
// inside the window.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "mvcc/common/rng.h"
#include "mvcc/common/timing.h"
#include "mvcc/obs/obs.h"
#include "mvcc/txn/batching.h"
#include "mvcc/txn/sharded.h"
#include "mvcc/vm/pswf.h"

namespace {

using namespace mvcc;
using BMap = txn::BatchingMap<std::uint64_t, std::uint64_t,
                              ftree::NoAug<std::uint64_t, std::uint64_t>,
                              vm::PswfVersionManager>;

// The committed-op and committed-batch counts a cell's window measures.
template <class M>
std::vector<bench::Source> commit_sources(M& map) {
  return {[&map] { return map.ops_committed(); },
          [&map] { return map.batches_committed(); }};
}

// Records a window over commit_sources as <name>/ops_per_s and
// <name>/batches_per_s (their ratio is the mean batch size).
void record_commits(const std::string& name, const bench::Window& w) {
  auto& reg = obs::registry();
  reg.gauge(name + "/ops_per_s").set(w.per_s(w.sources[0]));
  reg.gauge(name + "/batches_per_s").set(w.per_s(w.sources[1]));
}

// Batch-bound cell mb<max_batch>: committed throughput plus the sync
// probe's submit-to-commit latency in mb<max_batch>/commit_ns.
void run(std::size_t max_batch, int producers, double warmup,
         double seconds) {
  const std::string name = "mb" + std::to_string(max_batch);
  auto& latency = obs::registry().histogram(name + "/commit_ns");
  BMap map(producers, {}, /*buffer_capacity=*/1 << 14, max_batch);
  // Latency probes are synchronous updates, and a sync producer parks until
  // its commit. Probing on a fixed fine cadence would cap batch formation
  // at the probe interval for every large bound — measuring the probe, not
  // the system — so the cadence scales with the batch bound (floored and
  // capped to keep samples flowing at smoke scale).
  const std::uint64_t sync_cadence = std::clamp<std::uint64_t>(
      4 * static_cast<std::uint64_t>(max_batch), 1024, 8192);
  const bench::Window w = bench::steady_state(
      producers, warmup, seconds,
      [&](int p) {
        return [&, p, rng = Xoshiro256(static_cast<std::uint64_t>(p) + 17)](
                   std::uint64_t i, bool measuring) mutable -> std::uint64_t {
          if (i % sync_cadence == sync_cadence - 1) {
            Timer t;
            map.upsert_sync(p, rng.next_below(100000), i);
            if (measuring) latency.record(t.nanos());
          } else {
            map.submit(p, txn::BatchOp::kUpsert, rng.next_below(100000), i);
          }
          return 0;
        };
      },
      commit_sources(map));
  map.flush_all();
  record_commits(name, w);
}

// Sharded sweep: the same steady-state cell over txn::ShardedMap at
// increasing shard counts. Producers stream async submits (uniform keys,
// so the splitmix routing spreads them across every shard) and every
// 4096th op is a timed two-key multi_upsert_sync whose keys almost always
// span two shards — shardscale/s<N>/multi_commit_ns is the price of the
// cross-shard atomic-commit protocol (epoch flip + overlapped per-shard sync
// tickets), and throughput is committed ops across all flatteners.
void run_sharded(int nshards, int producers, double warmup, double seconds) {
  using SMap = txn::ShardedMap<std::uint64_t, std::uint64_t,
                               ftree::NoAug<std::uint64_t, std::uint64_t>,
                               vm::PswfVersionManager>;
  constexpr std::uint64_t kMultiCadence = 4096;
  const std::string name = "shardscale/s" + std::to_string(nshards);
  auto& latency = obs::registry().histogram(name + "/multi_commit_ns");
  SMap map(producers, {}, nshards);
  const bench::Window w = bench::steady_state(
      producers, warmup, seconds,
      [&](int p) {
        return [&, p, rng = Xoshiro256(static_cast<std::uint64_t>(p) + 31)](
                   std::uint64_t i, bool measuring) mutable -> std::uint64_t {
          if (i % kMultiCadence == kMultiCadence - 1) {
            const SMap::Entry ops[2] = {{rng.next_below(100000), i},
                                        {rng.next_below(100000), i}};
            Timer t;
            map.multi_upsert_sync(p, std::span<const SMap::Entry>(ops));
            if (measuring) latency.record(t.nanos());
          } else {
            map.submit(p, txn::BatchOp::kUpsert, rng.next_below(100000), i);
          }
          return 0;
        };
      },
      commit_sources(map));
  map.flush_all();
  record_commits(name, w);
  bench::record_shard_ops(name, map);
}

// A table row from what a cell recorded: Mop/s, mean batch size, and the
// latency histogram's p50/p99/p999 in ns.
std::vector<std::string> row(const std::string& label, const std::string& name,
                             const std::string& latency) {
  auto& reg = obs::registry();
  const auto ops = static_cast<double>(reg.gauge(name + "/ops_per_s").value());
  const auto batches =
      static_cast<double>(reg.gauge(name + "/batches_per_s").value());
  const auto& h = reg.histogram(name + "/" + latency);
  return {label,
          bench::fmt(ops / 1e6),
          bench::fmt(batches > 0 ? ops / batches : 0, 1),
          bench::fmt_ns(h, 0.50),
          bench::fmt_ns(h, 0.99),
          bench::fmt_ns(h, 0.999)};
}

}  // namespace

int main() {
  bench::ObsSession obs_session("batching");
  const int producers = bench::worker_threads(2);
  const double warmup = bench::warmup_seconds();
  const double secs = bench::cell_seconds();
  bench::print_header("Batching ablation (Appendix F): batch bound sweep");
  std::printf("(producers=%d warmup=%.2fs measure=%.2fs per cell; "
              "steady-state)\n",
              producers, warmup, secs);
  bench::Table table(
      {"max_batch", "mops", "avg_batch", "p50_ns", "p99_ns", "p999_ns"});
  for (std::size_t mb : {std::size_t{1}, std::size_t{16}, std::size_t{256},
                         std::size_t{4096}, std::size_t{65536}}) {
    std::fprintf(stderr, "batching: max_batch=%zu...\n", mb);
    run(mb, producers, warmup, secs);
    table.add_row(
        row(std::to_string(mb), "mb" + std::to_string(mb), "commit_ns"));
  }
  table.print();
  std::printf("expected shape: throughput grows with the batch bound while\n"
              "sampled commit latency grows too (throughput/latency trade).\n");

  bench::print_header(
      "Sharded multi-writer sweep (latency = 2-key cross-shard commit)");
  std::printf("(producers=%d warmup=%.2fs measure=%.2fs per row)\n",
              producers, warmup, secs);
  bench::Table sharded_table(
      {"shards", "mops", "avg_batch", "p50_ns", "p99_ns", "p999_ns"});
  for (int n : {1, 2, 4}) {
    std::fprintf(stderr, "batching: shards=%d...\n", n);
    run_sharded(n, producers, warmup, secs);
    sharded_table.add_row(row(std::to_string(n),
                              "shardscale/s" + std::to_string(n),
                              "multi_commit_ns"));
  }
  sharded_table.print();
  return 0;
}
