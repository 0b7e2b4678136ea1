// Microbenchmarks for the functional tree substrate: point ops, range sums,
// and the parallel bulk operations (multi_insert, build_sorted) whose
// join-based parallelism the batching writer relies on, including the
// small-batch multi_insert regime its commits live in and its stage
// decomposition.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mvcc/common/rng.h"
#include "mvcc/common/timing.h"
#include "mvcc/ftree/fmap.h"

namespace {

using namespace mvcc;
using SumMap = ftree::FMap<std::uint64_t, std::uint64_t,
                           ftree::AugSum<std::uint64_t, std::uint64_t>>;

SumMap make_random(std::int64_t n, std::uint64_t seed) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  entries.reserve(static_cast<std::size_t>(n));
  Xoshiro256 rng(seed);
  for (std::int64_t i = 0; i < n; ++i) {
    entries.emplace_back(rng(), static_cast<std::uint64_t>(i));
  }
  return SumMap::from_entries(std::move(entries));
}

void BM_TreeInsert(benchmark::State& state) {
  SumMap m = make_random(state.range(0), 1);
  Xoshiro256 rng(2);
  for (auto _ : state) {
    m = m.inserted(rng(), 1);
  }
}

void BM_TreeFind(benchmark::State& state) {
  SumMap m = make_random(state.range(0), 3);
  auto entries = m.to_vector();
  Xoshiro256 rng(4);
  for (auto _ : state) {
    const auto& probe = entries[rng.next_below(entries.size())];
    benchmark::DoNotOptimize(m.find(probe.first));
  }
}

void BM_TreeRangeSum(benchmark::State& state) {
  SumMap m = make_random(state.range(0), 5);
  Xoshiro256 rng(6);
  for (auto _ : state) {
    const std::uint64_t lo = rng();
    benchmark::DoNotOptimize(m.aug_range(lo, lo + (~std::uint64_t{0} >> 8)));
  }
}

void BM_TreeMultiInsert(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  SumMap a = make_random(n, 9);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> batch;
  Xoshiro256 rng(10);
  for (std::int64_t i = 0; i < n / 10; ++i) batch.emplace_back(rng(), 1);
  ftree::prepare_batch(batch);
  for (auto _ : state) {
    SumMap u = a.multi_inserted(
        std::span<const std::pair<std::uint64_t, std::uint64_t>>(batch));
    benchmark::DoNotOptimize(u.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
}

void BM_TreeMultiInsertSmallBatch(benchmark::State& state) {
  // The commit regime of the batching writer: batches of 128 keys that
  // already exist, into a tree of range(0) keys. copied/op is the node
  // copies per written key (the new version's private nodes).
  constexpr std::size_t kBatch = 128;
  const std::int64_t n = state.range(0);
  SumMap a = make_random(n, 13);
  const auto entries = a.to_vector();
  Xoshiro256 rng(14);
  using Batch = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  std::vector<Batch> batches(16);
  for (auto& batch : batches) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch.emplace_back(entries[rng.next_below(entries.size())].first, 1);
    }
    ftree::prepare_batch(batch);
  }
  std::size_t next = 0;
  std::int64_t ops = 0;
  long long copied = 0;
  for (auto _ : state) {
    const auto& batch = batches[next++ % batches.size()];
    const long long live = ftree::live_nodes();
    SumMap u = a.multi_inserted(
        std::span<const std::pair<std::uint64_t, std::uint64_t>>(batch));
    copied += ftree::live_nodes() - live;
    ops += static_cast<std::int64_t>(batch.size());
    benchmark::DoNotOptimize(u.size());
  }
  state.SetItemsProcessed(ops);
  state.counters["copied/op"] =
      ops > 0 ? static_cast<double>(copied) / static_cast<double>(ops) : 0.0;
}

void BM_TreeMultiInsertVsLoop(benchmark::State& state) {
  // The ablation behind batching: the same updates applied one-by-one.
  const std::int64_t n = state.range(0);
  SumMap a = make_random(n, 11);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> batch;
  Xoshiro256 rng(12);
  for (std::int64_t i = 0; i < n / 10; ++i) batch.emplace_back(rng(), 1);
  for (auto _ : state) {
    SumMap u = a;
    for (const auto& [k, v] : batch) u = u.inserted(k, v);
    benchmark::DoNotOptimize(u.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch.size()));
}

void BM_TreeMultiInsertThreads(benchmark::State& state) {
  // Fork-join scaling of the bulk apply: the same batch of n/4 random keys
  // into the same corpus with an explicit worker budget. The /1 rows are
  // the sequential baseline the speedup at /2, /4... is measured against
  // (the result tree is bit-identical at every worker count). Rates are per
  // wall-clock second: the joining thread parks while workers finish its
  // forks, so its CPU time says nothing about the speedup.
  const std::int64_t n = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  SumMap a = make_random(n, 21);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> batch;
  Xoshiro256 rng(22);
  for (std::int64_t i = 0; i < n / 4; ++i) batch.emplace_back(rng(), 1);
  ftree::prepare_batch(batch);
  for (auto _ : state) {
    SumMap u = a.multi_inserted(
        std::span<const std::pair<std::uint64_t, std::uint64_t>>(batch),
        threads);
    benchmark::DoNotOptimize(u.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}

void BM_TreeBuildSortedThreads(benchmark::State& state) {
  // Fork-join scaling of build_sorted (what multi_insert runs where its
  // descent reaches an empty subtree), in wall-clock rates like
  // BM_TreeMultiInsertThreads.
  const std::int64_t n = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  entries.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    entries.emplace_back(static_cast<std::uint64_t>(i) * 2, 1);
  }
  const std::span<const std::pair<std::uint64_t, std::uint64_t>> sp(entries);
  using Aug = ftree::AugSum<std::uint64_t, std::uint64_t>;
  for (auto _ : state) {
    auto* t =
        ftree::build_sorted<std::uint64_t, std::uint64_t, Aug>(sp, threads);
    benchmark::DoNotOptimize(ftree::weight_of(t));
    ftree::collect(t);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_TreeCommitStages(benchmark::State& state) {
  // One writer commit split into its tree stages, per written key, on one
  // worker: walk_ns is a read-only find of a fresh batch of keys (the
  // cache-miss floor of any descent), insert_ns the multi_insert that
  // copies the batch's paths, collect_ns the precise collect of the
  // retired version. The map holds the dense keys [0, range(0)) and every
  // iteration writes range(1) uniform keys and replaces the version, as
  // write-stream's flattener does; kWarm batches first let written keys
  // settle where multi_insert leaves them. copied/op is new nodes per
  // written key, nodes/key the live nodes per entry at the end.
  using Map = ftree::FMap<std::uint64_t, std::uint64_t>;
  using Batch = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  constexpr int kWarm = 256;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  Batch entries;
  entries.reserve(n);
  for (std::uint64_t k = 0; k < n; ++k) entries.emplace_back(k, k);
  Map cur = Map::from_entries(std::move(entries));
  Xoshiro256 rng(15);
  Batch batch;
  auto next_batch = [&] {
    batch.clear();
    for (std::size_t i = 0; i < m; ++i) {
      batch.emplace_back(rng.next_below(n), rng());
    }
    ftree::prepare_batch(batch);
    return std::span<const std::pair<std::uint64_t, std::uint64_t>>(batch);
  };
  for (int i = 0; i < kWarm; ++i) cur = cur.multi_inserted(next_batch(), 1);
  std::uint64_t walk_ns = 0, walked = 0, insert_ns = 0, collect_ns = 0;
  std::uint64_t ops = 0;
  long long copied = 0;
  for (auto _ : state) {
    const auto probes = next_batch();
    Timer t;
    for (const auto& [k, v] : probes) benchmark::DoNotOptimize(cur.find(k));
    walk_ns += t.lap();
    walked += probes.size();
    const auto writes = next_batch();
    t.reset();
    const long long live = ftree::live_nodes();
    Map next = cur.multi_inserted(writes, 1);
    insert_ns += t.lap();
    copied += ftree::live_nodes() - live;
    cur = std::move(next);  // drops the last reference to the old root
    collect_ns += t.lap();
    ops += writes.size();
  }
  const double per = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.counters["walk_ns"] =
      walked > 0 ? static_cast<double>(walk_ns) / static_cast<double>(walked)
                 : 0.0;
  state.counters["insert_ns"] = static_cast<double>(insert_ns) * per;
  state.counters["collect_ns"] = static_cast<double>(collect_ns) * per;
  state.counters["copied/op"] = static_cast<double>(copied) * per;
  state.counters["nodes/key"] = static_cast<double>(ftree::live_nodes()) /
                                static_cast<double>(cur.size());
}

}  // namespace

BENCHMARK(BM_TreeInsert)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);
BENCHMARK(BM_TreeFind)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 20);
BENCHMARK(BM_TreeRangeSum)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 20);
BENCHMARK(BM_TreeMultiInsert)->Arg(1 << 14)->Arg(1 << 17);
BENCHMARK(BM_TreeMultiInsertSmallBatch)->Arg(1 << 20);
BENCHMARK(BM_TreeMultiInsertVsLoop)->Arg(1 << 14)->Arg(1 << 17);
BENCHMARK(BM_TreeMultiInsertThreads)
    ->Args({1 << 18, 1})
    ->Args({1 << 18, 2})
    ->Args({1 << 18, 4})
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 2})
    ->Args({1 << 20, 4})
    ->UseRealTime();
BENCHMARK(BM_TreeBuildSortedThreads)
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 2})
    ->Args({1 << 20, 4})
    ->UseRealTime();

BENCHMARK(BM_TreeCommitStages)
    ->Args({1 << 21, 900})
    ->Args({1 << 19, 120})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
