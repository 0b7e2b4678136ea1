// Microbenchmark supporting Theorem 4.2: collect() cost is O(S+1) where S is
// the number of tuples freed. We build chains/trees of size S and measure a
// full collect; ns-per-freed-tuple should be flat across four orders of
// magnitude of S (linear total cost).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "mvcc/ftree/ops.h"
#include "mvcc/obs/obs.h"
#include "mvcc/plm/plm.h"

namespace {

using namespace mvcc;

void BM_PlmCollectChain(benchmark::State& state) {
  const std::int64_t depth = state.range(0);
  plm::Machine m;
  for (auto _ : state) {
    state.PauseTiming();
    plm::Tuple* cur = m.make_tuple({plm::Value::from_int(0)});
    for (std::int64_t i = 1; i < depth; ++i) {
      cur = m.make_tuple({plm::Value::from_tuple(cur)});
    }
    m.publish_root(cur);
    state.ResumeTiming();
    benchmark::DoNotOptimize(m.collect(plm::Value::from_tuple(cur)));
  }
  state.SetItemsProcessed(state.iterations() * depth);
}

void BM_PlmCollectSharedPrefix(benchmark::State& state) {
  // Collect a version that shares most of its structure with a survivor:
  // cost must be proportional to the PRIVATE part only (precision of the
  // work bound, not just of the reclamation).
  const std::int64_t shared = state.range(0);
  plm::Machine m;
  plm::Tuple* base = m.make_tuple({plm::Value::from_int(0)});
  for (std::int64_t i = 1; i < shared; ++i) {
    base = m.make_tuple({plm::Value::from_tuple(base)});
  }
  m.publish_root(base);  // survivor version pins the chain
  for (auto _ : state) {
    state.PauseTiming();
    // A version with an 8-tuple private path onto the shared chain.
    plm::Tuple* v = m.make_tuple({plm::Value::from_tuple(base)});
    for (int i = 0; i < 7; ++i) {
      v = m.make_tuple({plm::Value::from_tuple(v)});
    }
    m.publish_root(v);
    state.ResumeTiming();
    benchmark::DoNotOptimize(m.collect(plm::Value::from_tuple(v)));
  }
  m.collect(plm::Value::from_tuple(base));
  state.SetItemsProcessed(state.iterations() * 8);
}

void BM_TreeCollectWholeTree(benchmark::State& state) {
  using N = ftree::Node<std::uint64_t, std::uint64_t>;
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    N* t = nullptr;
    for (std::int64_t i = 0; i < n; ++i) {
      t = ftree::insert(t, static_cast<std::uint64_t>(i),
                        static_cast<std::uint64_t>(i));
    }
    state.ResumeTiming();
    ftree::collect(t);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_TreeCollectOneVersionOfMany(benchmark::State& state) {
  // The transaction-system shape: drop one version out of a chain of
  // versions produced by single-key updates; cost is the private path only.
  using N = ftree::Node<std::uint64_t, std::uint64_t>;
  const std::int64_t n = state.range(0);
  N* base = nullptr;
  for (std::int64_t i = 0; i < n; ++i) {
    base = ftree::insert(base, static_cast<std::uint64_t>(i),
                         static_cast<std::uint64_t>(i));
  }
  std::uint64_t key = 0;
  for (auto _ : state) {
    state.PauseTiming();
    N* next = ftree::insert(ftree::share(base), key % n, key);
    ++key;
    state.ResumeTiming();
    ftree::collect(next);  // drop the derived version; base survives
  }
  ftree::collect(base);
}

// Deterministic precise-GC self-check, recorded as collect/selfcheck_*
// gauges after the benchmarks: dropping two versions that share structure
// must free exactly the nodes the exact-reachability oracle counts from
// both (freed == reachable), and leave no node live (live == 0).
void record_selfcheck() {
  using N = ftree::Node<std::uint64_t, std::uint64_t>;
  constexpr std::uint64_t kMod = 100003;
  N* base = nullptr;
  for (std::uint64_t i = 0; i < 50000; ++i) {
    base = ftree::insert(
        base, static_cast<std::uint64_t>((i * 2654435761ull) % kMod), i);
  }
  N* derived = ftree::share(base);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    derived = ftree::insert(
        derived, static_cast<std::uint64_t>((i * 40503ull) % kMod), i + 1);
  }
  const std::size_t reachable =
      ftree::reachable_nodes(std::vector<const N*>{base, derived});
  std::size_t freed = ftree::collect(derived);
  freed += ftree::collect(base);
  auto& reg = obs::registry();
  reg.gauge("selfcheck_freed").set(freed);
  reg.gauge("selfcheck_reachable").set(reachable);
  reg.gauge("selfcheck_live").set(ftree::live_nodes());
}

// Console output (uncoloured), plus BM_PlmCollectChain's ns per freed
// tuple at each S as the gauge chain/s<S>/ns_per_tuple: the numbers the
// claims ledger's Thm 4.2 cost line compares across S.
class ChainCostReporter : public benchmark::ConsoleReporter {
 public:
  ChainCostReporter() : ConsoleReporter(OO_None) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& r : runs) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred ||
          r.run_name.function_name != "BM_PlmCollectChain") {
        continue;
      }
      const double per_s = r.counters.at("items_per_second").value;
      obs::registry()
          .gauge("chain/s" + r.run_name.args + "/ns_per_tuple")
          .set(std::llround(1e9 / per_s));
    }
  }
};

}  // namespace

BENCHMARK(BM_PlmCollectChain)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);
BENCHMARK(BM_PlmCollectSharedPrefix)->Arg(100)->Arg(10000);
BENCHMARK(BM_TreeCollectWholeTree)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_TreeCollectOneVersionOfMany)->Arg(1000)->Arg(100000);

// Hand-rolled BENCHMARK_MAIN so the observability session (footprint
// sampler, trace dump, registry JSON) also covers the self-check.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  {
    mvcc::bench::ObsSession obs_session("collect");
    ChainCostReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    record_selfcheck();
  }
  benchmark::Shutdown();
  return 0;
}
