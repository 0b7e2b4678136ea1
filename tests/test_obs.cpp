// Tests for the obs/ metrics layer: histogram quantile math (empty,
// single sample, overflow bucket, cross-bucket interpolation), striped
// counter exactness under concurrent per-thread increments, gauge
// high-water marks, registry identity and the JSON dump, the obs gate's
// environment resolution, and an end-to-end BatchingMap run asserting that
// the txn/vm/ftree instrumentation actually records under MVCC_STATS.
// Every suite name starts with "Obs" so CI's TSan job can select this tier
// with `ctest -R '...|Obs'`.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "mvcc/ftree/fmap.h"
#include "mvcc/ftree/ops.h"
#include "mvcc/obs/obs.h"
#include "mvcc/txn/batching.h"
#include "mvcc/vm/pswf.h"

namespace {

using namespace mvcc;

// Flips stats collection on for one test body and always restores the
// disabled default, so suites stay order-independent.
struct ScopedStats {
  ScopedStats() { obs::set_enabled(true); }
  ~ScopedStats() { obs::set_enabled(false); }
};

// The worst-case relative bucket width of the log-bucketed histogram.
constexpr double kResolution = 1.0 / (1 << obs::LatencyHistogram::kSubBits);

// ---------------------------------------------------------------------------
// Counter.

TEST(ObsCounter, StartsAtZeroAndSums) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsCounter, ConcurrentIncrementsSumExactly) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// Gauge.

TEST(ObsGauge, UpdateMaxKeepsHighWaterMark) {
  obs::Gauge g;
  g.update_max(10);
  g.update_max(3);
  EXPECT_EQ(g.value(), 10);
  g.update_max(17);
  EXPECT_EQ(g.value(), 17);
  g.set(5);
  EXPECT_EQ(g.value(), 5);
}

TEST(ObsGauge, ConcurrentUpdateMaxConverges) {
  obs::Gauge g;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20000; ++i) {
        g.update_max(static_cast<std::int64_t>(t) * 100000 + i);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(g.value(), (kThreads - 1) * 100000 + 19999);
}

// ---------------------------------------------------------------------------
// Histogram quantile math.

TEST(ObsHistogram, EmptyHistogramReadsZero) {
  obs::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.999), 0.0);
}

TEST(ObsHistogram, SingleSampleWithinBucketResolution) {
  obs::LatencyHistogram h;
  h.record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 1000.0);
  for (double q : {0.0, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_NEAR(h.quantile(q), 1000.0, 1000.0 * kResolution) << "q=" << q;
  }
}

TEST(ObsHistogram, IdentityRangeIsExact) {
  // Values below 2^kSubBits occupy width-1 integer buckets and read back
  // exactly — the freed_per_sweep distribution of mostly-zeros relies on
  // this (an all-zero histogram must not report p50 = 0.5).
  obs::LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.999), 0.0);
  h.record(3);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
}

TEST(ObsHistogram, OverflowBucketSaturates) {
  obs::LatencyHistogram h;
  h.record(std::uint64_t{1} << 60);  // far beyond the covered range
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.count(), 2u);
  const double limit =
      static_cast<double>(std::uint64_t{1} << obs::LatencyHistogram::kMaxExp);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), limit);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), limit);
}

TEST(ObsHistogram, CrossBucketInterpolation) {
  // A uniform ramp: quantiles should track the underlying distribution to
  // within one bucket of relative error.
  obs::LatencyHistogram h;
  constexpr std::uint64_t kN = 100000;
  for (std::uint64_t v = 1; v <= kN; ++v) h.record(v);
  EXPECT_EQ(h.count(), kN);
  for (double q : {0.10, 0.50, 0.90, 0.99, 0.999}) {
    const double expect = q * static_cast<double>(kN);
    EXPECT_NEAR(h.quantile(q), expect, expect * kResolution + 1.0)
        << "q=" << q;
  }
}

TEST(ObsHistogram, QuantilesAreMonotone) {
  obs::LatencyHistogram h;
  for (std::uint64_t v = 0; v < 4096; v += 7) h.record(v * v % 100000);
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double cur = h.quantile(q);
    EXPECT_GE(cur, prev) << "q=" << q;
    prev = cur;
  }
}

TEST(ObsHistogram, IndexOfIsMonotoneAndInRange) {
  std::size_t prev = 0;
  for (std::uint64_t v = 0; v < (std::uint64_t{1} << 50);
       v = v * 2 + 1) {
    const std::size_t idx = obs::LatencyHistogram::index_of(v);
    EXPECT_LT(idx, obs::LatencyHistogram::kBuckets);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST(ObsHistogram, ConcurrentRecordsKeepExactCount) {
  obs::LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.record(i * 31 + static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// Registry.

TEST(ObsRegistry, SameNameReturnsSameMetric) {
  obs::Counter& a = obs::registry().counter("obstest/identity");
  obs::Counter& b = obs::registry().counter("obstest/identity");
  EXPECT_EQ(&a, &b);
  obs::LatencyHistogram& ha = obs::registry().histogram("obstest/hist");
  obs::LatencyHistogram& hb = obs::registry().histogram("obstest/hist");
  EXPECT_EQ(&ha, &hb);
}

TEST(ObsRegistry, DumpJsonEmitsPrefixedFlatKeys) {
  obs::registry().counter("obstest/dump_counter").add(7);
  obs::registry().gauge("obstest/dump_gauge").set(13);
  obs::registry().histogram("obstest/dump_hist").record(100);
  const std::string json = obs::registry().dump_json("pfx/");
  for (const char* key :
       {"\"pfx/obstest/dump_counter\": 7", "\"pfx/obstest/dump_gauge\": 13",
        "\"pfx/obstest/dump_hist/count\": 1", "\"pfx/obstest/dump_hist/p50\": ",
        "\"pfx/obstest/dump_hist/p999\": "}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(ObsRegistry, DumpJsonIsOneFlatObject) {
  obs::registry().counter("obstest/json_counter").add(3);
  const std::string json = obs::registry().dump_json();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"obstest/json_counter\": 3"), std::string::npos);
  // Flat object: no nested braces between the outer pair.
  EXPECT_EQ(json.find('{', 1), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: the instrumentation actually records.

using PswfMap = txn::BatchingMap<std::uint64_t, std::uint64_t,
                                 ftree::NoAug<std::uint64_t, std::uint64_t>,
                                 vm::PswfVersionManager>;

TEST(ObsBatchingE2E, CommitLatencyAndStallsAreRecorded) {
  ScopedStats stats;
  obs::LatencyHistogram& commit_lat =
      obs::registry().histogram("txn/commit_latency_ns");
  obs::LatencyHistogram& batch_size =
      obs::registry().histogram("txn/batch_size");
  obs::Counter& stalls = obs::registry().counter("txn/flattener_stalls");
  const std::uint64_t lat0 = commit_lat.count();
  const std::uint64_t sizes0 = batch_size.count();
  const std::uint64_t stalls0 = stalls.value();

  std::uint64_t batches = 0;
  {
    PswfMap map(2, {});
    for (std::uint64_t i = 0; i < 100; ++i) {
      map.upsert_sync(static_cast<int>(i % 2), i, i * 3);
    }
    map.flush_all();
    batches = map.batches_committed();
  }

  // Every upsert_sync recorded one commit-latency sample.
  EXPECT_EQ(commit_lat.count() - lat0, 100u);
  // Every published batch recorded its size.
  EXPECT_EQ(batch_size.count() - sizes0, batches);
  // Sequential sync updates park their producer on dry rings, so the
  // flattener's stall detection must have fired.
  EXPECT_GE(stalls.value() - stalls0, 1u);
}

TEST(ObsBatchingE2E, VmAndFtreeMetricsAreRecorded) {
  ScopedStats stats;
  obs::Counter& retired = obs::registry().counter("vm/versions_retired");
  const std::uint64_t retired0 = retired.value();
  const long long bytes0 =
      ftree::g_live_bytes.load(std::memory_order_relaxed);

  std::uint64_t batches = 0;
  {
    PswfMap map(1, {});
    for (std::uint64_t i = 0; i < 200; ++i) map.upsert_sync(0, i, i);
    batches = map.batches_committed();
    // While the map is live, footprint high-water marks cover its tree.
    EXPECT_GE(obs::registry().gauge("ftree/live_nodes_hwm").value(),
              ftree::live_nodes());
    EXPECT_GT(obs::registry().gauge("ftree/live_bytes_hwm").value(), 0);
  }

  // One version retirement per published batch.
  EXPECT_EQ(retired.value() - retired0, batches);
  EXPECT_GE(obs::registry().gauge("vm/live_versions_hwm").value(), 1);
  // freed_per_sweep saw one record per writer sweep (one per set).
  EXPECT_GE(obs::registry().histogram("vm/freed_per_sweep").count(),
            batches);
  // Byte-exact accounting: everything allocated under stats-on was freed.
  EXPECT_EQ(ftree::g_live_bytes.load(std::memory_order_relaxed), bytes0);
}

// ---------------------------------------------------------------------------
// Delta snapshots.

TEST(ObsDelta, MeasuresGrowthSinceConstruction) {
  std::uint64_t raw = 100;
  obs::Delta fn([&raw] { return raw; });
  raw = 107;
  EXPECT_EQ(fn.delta(), 7u);
}

// ---------------------------------------------------------------------------
// Histogram min and bucket export.

TEST(ObsHistogram, MinIsExactNotBucketResolved) {
  obs::LatencyHistogram h;
  EXPECT_EQ(h.min(), 0u);  // empty reads zero
  h.record(1000);
  h.record(37);
  h.record(999999);
  EXPECT_EQ(h.min(), 37u);
}

TEST(ObsHistogram, BucketsJsonListsNonEmptyBucketsOnly) {
  obs::LatencyHistogram h;
  EXPECT_EQ(h.buckets_json(), "[]");
  h.record(2);
  h.record(2);
  h.record(2);
  EXPECT_EQ(h.buckets_json(), "[[2, 3, 3]]");  // identity bucket [2, 3) x3
}

TEST(ObsRegistry, DumpsCarryMinAndBuckets) {
  obs::registry().histogram("obstest/minbuckets").record(5);
  const std::string json = obs::registry().dump_json();
  EXPECT_NE(json.find("\"obstest/minbuckets/min\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"obstest/minbuckets/buckets\": [[5, 6, 1]]"),
            std::string::npos);
}

TEST(ObsRegistry, UnrecordedHistogramIsOmittedFromDumps) {
  (void)obs::registry().histogram("obstest/never_recorded");
  obs::registry().histogram("obstest/recorded").record(9);
  const std::string json = obs::registry().dump_json();
  EXPECT_EQ(json.find("obstest/never_recorded"), std::string::npos);
  EXPECT_NE(json.find("\"obstest/recorded/count\": 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Footprint sampler.

TEST(ObsSampler, NotStartedHasNoRows) {
  obs::Sampler s;
  EXPECT_FALSE(s.running());
  s.sample_once();  // no-op before start
  EXPECT_EQ(s.samples_taken(), 0u);
  EXPECT_TRUE(s.rows().empty());
  EXPECT_EQ(s.dump_csv(), "t_ms\n");
}

TEST(ObsSampler, ManualModeRingWrapKeepsNewestRows) {
  obs::Sampler s;
  std::int64_t x = 0;
  s.register_probe("x", [&x] { return x; });
  ASSERT_TRUE(s.start(0, 4));
  EXPECT_FALSE(s.start(0, 4));  // already running
  for (int i = 1; i <= 9; ++i) {
    x = i;
    s.sample_once();
  }
  s.stop();                           // takes the final sample (x == 9)
  EXPECT_EQ(s.samples_taken(), 11u);  // initial + 9 manual + final
  const auto rows = s.rows();
  ASSERT_EQ(rows.size(), 4u);  // ring capacity retains the newest window
  EXPECT_EQ(rows[0].values[0], 7);
  EXPECT_EQ(rows[3].values[0], 9);
  double prev = -1.0;
  for (const auto& r : rows) {
    EXPECT_GE(r.t_ms, prev);  // timestamps stay monotone across the wrap
    prev = r.t_ms;
  }
}

TEST(ObsSampler, CsvHasFixedColumnsAndOneLinePerRow) {
  obs::Sampler s;
  s.register_probe("a", [] { return 1; });
  s.register_probe("b", [] { return 2; });
  s.register_probe("a", [] { return 7; });  // re-registration replaces
  ASSERT_TRUE(s.start(0, 16));
  s.sample_once();
  s.stop();
  const auto cols = s.columns();
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], "a");
  EXPECT_EQ(cols[1], "b");
  const std::string csv = s.dump_csv();
  EXPECT_EQ(csv.rfind("t_ms,a,b\n", 0), 0u);  // header first
  int lines = 0;
  for (char ch : csv) lines += ch == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 4);  // header + initial + manual + final
  EXPECT_NE(csv.find(",7,2\n"), std::string::npos);
}

TEST(ObsSampler, BackgroundThreadSamplesUntilStopped) {
  obs::Sampler s;
  std::atomic<std::int64_t> v{0};
  s.register_probe("v", [&v] { return v.load(std::memory_order_relaxed); });
  ASSERT_TRUE(s.start(1));
  EXPECT_TRUE(s.running());
  v.store(5, std::memory_order_relaxed);
  while (s.samples_taken() < 3) std::this_thread::yield();
  s.stop();
  EXPECT_FALSE(s.running());
  EXPECT_GE(s.samples_taken(), 4u);  // >= 3 waited for, plus the final one
  EXPECT_EQ(s.rows().back().values[0], 5);
  s.stop();  // idempotent
  // Restartable after a stop.
  ASSERT_TRUE(s.start(0, 4));
  s.stop();
}

// ---------------------------------------------------------------------------
// Event tracer.

// Forces tracing on for one test body and restores the off default.
struct ScopedTrace {
  ScopedTrace() {
    obs::set_trace_enabled(true);
    obs::Tracer::instance().reset_for_test();
  }
  ~ScopedTrace() { obs::set_trace_enabled(false); }
};

TEST(ObsTrace, SpansAndInstantsLandInChromeJson) {
  ScopedTrace trace;
  {
    obs::TraceSpan span("obstest/span", 1);
    span.set_arg(42);
  }
  obs::trace_instant("obstest/instant", 7);
  const std::string json = obs::Tracer::instance().dump_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"obstest/span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"v\": 42}"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"obstest/instant\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
}

TEST(ObsTrace, ConcurrentEmissionCountsEveryEvent) {
  ScopedTrace trace;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::TraceSpan span("obstest/worker",
                            static_cast<std::uint64_t>(i));
        obs::trace_instant("obstest/tick");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(obs::Tracer::instance().events_emitted(),
            std::uint64_t{2} * kThreads * kPerThread);
}

TEST(ObsTrace, DisabledEmitsNothingAndDumpsValidJson) {
  obs::set_trace_enabled(false);
  obs::Tracer::instance().reset_for_test();
  { obs::TraceSpan span("obstest/off"); }
  obs::trace_instant("obstest/off");
  EXPECT_EQ(obs::Tracer::instance().events_emitted(), 0u);
  const std::string json = obs::Tracer::instance().dump_json();
  EXPECT_NE(json.find("\"traceEvents\": []"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The obs gate.

TEST(ObsGate, ResolvesStatsAndTraceFromTheEnvironment) {
  using obs::detail::gate_bits, obs::detail::kStats, obs::detail::kTrace;
  EXPECT_EQ(gate_bits(nullptr, "trace.json"), 0);  // trace needs stats
  for (const char* off : {"0", "", "yes"}) {
    EXPECT_EQ(gate_bits(off, "trace.json"), 0) << off;
  }
  EXPECT_EQ(gate_bits("1", nullptr), kStats);
  EXPECT_EQ(gate_bits("1", ""), kStats);
  EXPECT_EQ(gate_bits("1", "trace.json"), kStats | kTrace);
}

TEST(ObsBatchingE2E, DisabledMeansNoRecording) {
  obs::set_enabled(false);
  obs::LatencyHistogram& commit_lat =
      obs::registry().histogram("txn/commit_latency_ns");
  const std::uint64_t lat0 = commit_lat.count();
  {
    PswfMap map(1, {});
    for (std::uint64_t i = 0; i < 50; ++i) map.upsert_sync(0, i, i);
  }
  EXPECT_EQ(commit_lat.count(), lat0);
}

}  // namespace
