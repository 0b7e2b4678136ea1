// Tests for the bench harness glue in bench/bench_util.h: the steady-state
// driver's thread lifecycle, warm-up/window phases and window deltas, and
// the environment-knob helpers' floors and clamps, and the per-shard
// gauges of the sharded cells. Every suite name starts
// with "BenchDriver" so CI's TSan job can select this tier with
// `ctest -R '...|BenchDriver'`.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "mvcc/txn/sharded.h"
#include "mvcc/vm/pswf.h"

namespace {

using namespace mvcc;

constexpr int kThreads = 3;
constexpr double kWarmup = 0.02;
constexpr double kSeconds = 0.05;

// Per-worker body that tracks how many bodies are alive and what phases it
// saw; its destructor runs when the worker thread leaves its loop.
struct Probe {
  std::atomic<int> made{0};
  std::atomic<int> alive{0};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> warm_calls{0};
  std::atomic<std::uint64_t> window_calls{0};
  std::atomic<bool> flipped_back{false};  // saw false after true
};

struct Body {
  Probe* probe;
  bool seen_window = false;

  explicit Body(Probe* p) : probe(p) {
    probe->made.fetch_add(1);
    probe->alive.fetch_add(1);
  }
  Body(const Body&) = delete;
  Body& operator=(const Body&) = delete;
  ~Body() { probe->alive.fetch_sub(1); }

  std::uint64_t operator()(std::uint64_t, bool measuring) {
    probe->calls.fetch_add(1, std::memory_order_relaxed);
    if (measuring) {
      seen_window = true;
      probe->window_calls.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (seen_window) probe->flipped_back.store(true);
      probe->warm_calls.fetch_add(1, std::memory_order_relaxed);
    }
    return 1;
  }
};

bench::Window run_probe(Probe& probe, std::vector<bench::Source> sources = {}) {
  return bench::steady_state(
      kThreads, kWarmup, kSeconds, [&probe](int) { return Body(&probe); },
      std::move(sources));
}

TEST(BenchDriver, JoinsEveryWorkerBeforeReturning) {
  Probe probe;
  run_probe(probe);
  EXPECT_EQ(probe.made.load(), kThreads);
  EXPECT_EQ(probe.alive.load(), 0);
  // Nothing runs after return: the call count is final.
  const std::uint64_t calls = probe.calls.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(probe.calls.load(), calls);
}

TEST(BenchDriver, BodySeesWarmupThenWindow) {
  Probe probe;
  run_probe(probe);
  EXPECT_GT(probe.warm_calls.load(), 0u);
  EXPECT_GT(probe.window_calls.load(), 0u);
  EXPECT_FALSE(probe.flipped_back.load());
}

TEST(BenchDriver, WindowOpsArePositiveAndBoundedByTotal) {
  Probe probe;
  const bench::Window w = run_probe(probe);
  EXPECT_GT(w.ops, 0u);
  EXPECT_LE(w.ops, probe.calls.load());
  EXPECT_GT(w.seconds, 0.0);
  EXPECT_GT(w.per_s(w.ops), 0);
}

TEST(BenchDriver, ReturnsEachSourceDelta) {
  Probe probe;
  // Each read advances the source by 5, so its delta over the window (one
  // read at each edge) is exactly 5; the second source never moves.
  std::uint64_t ticks = 100;
  const bench::Window w =
      run_probe(probe, {[&ticks] { return ticks += 5; }, [] { return 7ull; }});
  ASSERT_EQ(w.sources.size(), 2u);
  EXPECT_EQ(w.sources[0], 5u);
  EXPECT_EQ(w.sources[1], 0u);
}

// Sets (or, for nullptr, unsets) one env var for a test body and reseeds
// config(); restores the unset state and config() afterwards.
struct ScopedEnv {
  const char* name;
  ScopedEnv(const char* n, const char* value) : name(n) {
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
    reload_config();
  }
  ~ScopedEnv() {
    unsetenv(name);
    reload_config();
  }
};

TEST(BenchDriver, WorkerThreadsKeepsDefaultAndClamps) {
  {
    ScopedEnv env("MVCC_THREADS", nullptr);
    EXPECT_EQ(bench::worker_threads(2), 2);
  }
  for (const char* v : {"-1", "0", "-99999999999999999999"}) {
    ScopedEnv env("MVCC_THREADS", v);
    EXPECT_EQ(bench::worker_threads(2), 1) << v;
  }
  for (const char* v : {"1000000", "99999999999999999999"}) {
    ScopedEnv env("MVCC_THREADS", v);
    EXPECT_EQ(bench::worker_threads(2), kMaxThreadKnob) << v;
  }
  for (const char* v : {"abc", "4x", ""}) {
    ScopedEnv env("MVCC_THREADS", v);
    EXPECT_EQ(bench::worker_threads(5), 5) << v;
  }
  ScopedEnv env("MVCC_THREADS", "6");
  EXPECT_EQ(bench::worker_threads(2), 6);
}

TEST(BenchDriver, ReaderThreadsKeepsDefaultAndClamps) {
  {
    ScopedEnv env("MVCC_READERS", nullptr);
    EXPECT_EQ(bench::reader_threads(), 3);
  }
  for (const char* v : {"-1", "0"}) {
    ScopedEnv env("MVCC_READERS", v);
    EXPECT_EQ(bench::reader_threads(), 1) << v;
  }
  {
    ScopedEnv env("MVCC_READERS", "99999999999999999999");
    EXPECT_EQ(bench::reader_threads(), kMaxThreadKnob);
  }
  {
    ScopedEnv env("MVCC_READERS", "many");
    EXPECT_EQ(bench::reader_threads(), 3);
  }
  ScopedEnv env("MVCC_READERS", "8");
  EXPECT_EQ(bench::reader_threads(), 8);
}

TEST(BenchDriver, CellAndWarmupSecondsRejectBadValues) {
  // Malformed, non-finite and non-positive values mean the default.
  for (const char* v : {"nan", "inf", "-1", "0", "junk"}) {
    ScopedEnv env("MVCC_SECONDS", v);
    EXPECT_DOUBLE_EQ(bench::cell_seconds(), 0.4) << v;
  }
  for (const char* v : {"nan", "inf", "junk"}) {
    ScopedEnv env("MVCC_WARMUP_SECONDS", v);
    EXPECT_DOUBLE_EQ(bench::warmup_seconds(), 0.1) << v;
  }
  ScopedEnv env("MVCC_WARMUP_SECONDS", "-3");
  EXPECT_DOUBLE_EQ(bench::warmup_seconds(), 0.0);
}

TEST(BenchDriver, RecordShardOpsCountsOnlyTheCellsMap) {
  using SMap = txn::ShardedMap<std::uint64_t, std::uint64_t,
                               ftree::NoAug<std::uint64_t, std::uint64_t>,
                               vm::PswfVersionManager>;
  auto& reg = obs::registry();
  // Two maps in turn under one cell name, as a sweep rerun would build
  // them: the second map's gauges hold its own ops, not a running sum.
  for (int run = 0; run < 2; ++run) {
    SMap map(1, {}, /*shards=*/2);
    for (std::uint64_t k = 0; k < 1000; ++k) {
      map.submit(0, txn::BatchOp::kUpsert, k, k);
    }
    map.flush_all();
    bench::record_shard_ops("cell", map);
    const std::int64_t s0 = reg.gauge("cell/shard0/ops").value();
    const std::int64_t s1 = reg.gauge("cell/shard1/ops").value();
    EXPECT_GT(s0, 0);
    EXPECT_GT(s1, 0);
    EXPECT_EQ(s0 + s1, 1000);
  }
}

}  // namespace
