// Ablation for Appendix F: batch size vs throughput and latency. Sweeps the
// writer's max batch bound and reports steady-state update throughput, mean
// batch size, and p50/p99/p999 submit-to-commit latency -- the
// throughput/latency trade the paper calls out ("a larger batch size leads
// to higher throughput ... at the cost of longer latency").
//
// Each cell is a duration-based steady-state run: producers start, the
// system warms for MVCC_WARMUP_SECONDS (rings filled, flattener batching at
// its equilibrium size, allocator warm), then counters are snapshotted and
// the measured window of MVCC_SECONDS begins. Latency samples are recorded
// into an obs::LatencyHistogram only inside the window.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
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

struct Result {
  double mops;
  double avg_batch;
  double p50_us;
  double p99_us;
  double p999_us;
};

Result run(std::size_t max_batch, int producers, double warmup,
           double seconds) {
  // Opened before the producer threads spawn: perf inherit only covers
  // threads created after the counters exist.
  obs::PerfCell perf("mb" + std::to_string(max_batch));
  BMap map(producers, {}, /*buffer_capacity=*/1 << 14, max_batch);
  // Latency probes are synchronous updates, and a sync producer parks until
  // its commit. Probing on a fixed fine cadence would cap batch formation
  // at the probe interval for every large bound — measuring the probe, not
  // the system — so the cadence scales with the batch bound (floored and
  // capped to keep samples flowing at smoke scale).
  const std::uint64_t sync_cadence = std::clamp<std::uint64_t>(
      4 * static_cast<std::uint64_t>(max_batch), 1024, 8192);
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  obs::LatencyHistogram latency;

  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      Xoshiro256 rng(static_cast<std::uint64_t>(p) + 17);
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        if (i % sync_cadence == sync_cadence - 1) {
          // Sampled synchronous update: measures commit latency.
          Timer t;
          map.upsert_sync(p, rng.next_below(100000), i);
          if (measuring.load(std::memory_order_relaxed)) {
            latency.record(t.nanos());
          }
        } else {
          map.submit(p, txn::BatchOp::kUpsert, rng.next_below(100000), i);
        }
        ++i;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
  obs::Delta ops_d([&map] { return map.ops_committed(); });
  obs::Delta batches_d([&map] { return map.batches_committed(); });
  measuring.store(true, std::memory_order_relaxed);
  Timer timer;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  const double secs = timer.seconds();
  const std::uint64_t ops = ops_d.delta();
  const std::uint64_t batches = batches_d.delta();
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  map.flush_all();

  Result r;
  r.mops = static_cast<double>(ops) / secs / 1e6;
  r.avg_batch = batches == 0 ? 0
                             : static_cast<double>(ops) /
                                   static_cast<double>(batches);
  r.p50_us = latency.quantile(0.50) / 1e3;
  r.p99_us = latency.quantile(0.99) / 1e3;
  r.p999_us = latency.quantile(0.999) / 1e3;
  return r;
}

// Sharded sweep: same steady-state harness over txn::ShardedMap at
// increasing shard counts. Producers stream async submits (uniform keys,
// so the splitmix routing spreads them across every shard) and every
// 4096th op is a timed two-key multi_upsert_sync whose keys almost always
// span two shards — the latency columns are the price of the cross-shard
// atomic-commit protocol (epoch flip + overlapped per-shard sync tickets),
// and throughput is committed ops across all flatteners.
Result run_sharded(int nshards, int producers, double warmup,
                   double seconds) {
  using SMap = txn::ShardedMap<std::uint64_t, std::uint64_t,
                               ftree::NoAug<std::uint64_t, std::uint64_t>,
                               vm::PswfVersionManager>;
  obs::PerfCell perf("sharded-s" + std::to_string(nshards));
  SMap map(producers, {}, nshards);
  constexpr std::uint64_t kMultiCadence = 4096;
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  obs::LatencyHistogram latency;

  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      Xoshiro256 rng(static_cast<std::uint64_t>(p) + 31);
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        if (i % kMultiCadence == kMultiCadence - 1) {
          const SMap::Entry ops[2] = {{rng.next_below(100000), i},
                                      {rng.next_below(100000), i}};
          Timer t;
          map.multi_upsert_sync(p, std::span<const SMap::Entry>(ops));
          if (measuring.load(std::memory_order_relaxed)) {
            latency.record(t.nanos());
          }
        } else {
          map.submit(p, txn::BatchOp::kUpsert, rng.next_below(100000), i);
        }
        ++i;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
  obs::Delta ops_d([&map] { return map.ops_committed(); });
  obs::Delta batches_d([&map] { return map.batches_committed(); });
  measuring.store(true, std::memory_order_relaxed);
  Timer timer;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  const double secs = timer.seconds();
  const std::uint64_t ops = ops_d.delta();
  const std::uint64_t batches = batches_d.delta();
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  map.flush_all();

  Result r;
  r.mops = static_cast<double>(ops) / secs / 1e6;
  r.avg_batch = batches == 0 ? 0
                             : static_cast<double>(ops) /
                                   static_cast<double>(batches);
  r.p50_us = latency.quantile(0.50) / 1e3;
  r.p99_us = latency.quantile(0.99) / 1e3;
  r.p999_us = latency.quantile(0.999) / 1e3;
  return r;
}

}  // namespace

int main() {
  bench::ObsSession obs_session;
  const int producers = static_cast<int>(env_long("MVCC_THREADS", 2));
  const double warmup = bench::warmup_seconds();
  const double secs = bench::cell_seconds();
  bench::print_header("Batching ablation (Appendix F): batch bound sweep");
  std::printf("(producers=%d warmup=%.2fs measure=%.2fs per cell; "
              "steady-state)\n",
              producers, warmup, secs);
  bench::Table table(
      {"max_batch", "mops", "avg_batch", "p50_us", "p99_us", "p999_us"});
  for (std::size_t mb : {std::size_t{1}, std::size_t{16}, std::size_t{256},
                         std::size_t{4096}, std::size_t{65536}}) {
    std::fprintf(stderr, "batching: max_batch=%zu...\n", mb);
    Result r = run(mb, producers, warmup, secs);
    table.add_row({std::to_string(mb), bench::fmt(r.mops),
                   bench::fmt(r.avg_batch, 1), bench::fmt(r.p50_us, 1),
                   bench::fmt(r.p99_us, 1), bench::fmt(r.p999_us, 1)});
  }
  table.print();
  std::printf("expected shape: throughput grows with the batch bound while\n"
              "sampled commit latency grows too (throughput/latency trade).\n");

  std::vector<int> shard_counts;
  const long forced_shards = env_long("MVCC_SHARDS", 0);
  if (forced_shards > 0) {
    shard_counts.push_back(static_cast<int>(forced_shards));
  } else {
    shard_counts = {1, 2, 4};
  }
  bench::print_header(
      "Sharded multi-writer sweep (latency = 2-key cross-shard commit)");
  std::printf("(producers=%d warmup=%.2fs measure=%.2fs per row)\n",
              producers, warmup, secs);
  bench::Table sharded_table(
      {"shards", "mops", "avg_batch", "p50_us", "p99_us", "p999_us"});
  for (int n : shard_counts) {
    std::fprintf(stderr, "batching: shards=%d...\n", n);
    Result r = run_sharded(n, producers, warmup, secs);
    sharded_table.add_row({std::to_string(n), bench::fmt(r.mops),
                           bench::fmt(r.avg_batch, 1),
                           bench::fmt(r.p50_us, 1), bench::fmt(r.p99_us, 1),
                           bench::fmt(r.p999_us, 1)});
  }
  sharded_table.print();
  if (obs::enabled()) {
    bench::print_header("metrics (obs registry)");
    std::fputs(obs::registry().dump_text("batching/").c_str(), stdout);
  }
  return 0;
}
