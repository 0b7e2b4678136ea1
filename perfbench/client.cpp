// The repository benchmark client: one process that drives the mvcc
// library only through its public API (txn::BatchingMap / txn::ShardedMap
// calls and FMap reads on a pinned snapshot), times those calls from the
// outside, reads the counters the modules already export, and checks every
// answer against an oracle.
//
//   perfbench_client --workload snapshot-read|write-stream|ycsb-a-sharded
//                    --seed N --seconds S [--warmup S] [--traced]
//
// It prints exactly one JSON object on stdout: the measured metrics (each
// with its unit and sample count), the number of client operations
// attempted and of oracle checks failed, and the effective library
// configuration. perfbench/run.py builds this file, scrubs the environment,
// runs it (twice for a traced run: once plain, once under MVCC_STATS=1 and
// MVCC_TRACE) and turns the output into the benchmark result.
//
// Latency quantiles are exact nearest-rank quantiles over raw per-sample
// nanosecond values kept in per-thread buffers that are allocated and
// touched before the map is built, so client memory is constant during the
// measured window. A buffer that fills switches to reservoir sampling (a
// uniform sample of the whole window), keeping its size fixed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <sched.h>
#include <span>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "mvcc/alloc/pool.h"
#include "mvcc/common/env.h"
#include "mvcc/common/rng.h"
#include "mvcc/exec/pool.h"
#include "mvcc/ftree/fmap.h"
#include "mvcc/obs/obs.h"
#include "mvcc/txn/batching.h"
#include "mvcc/txn/sharded.h"
#include "mvcc/vm/base.h"
#include "mvcc/vm/pswf.h"
#include "mvcc/workload/ycsb.h"

#ifndef NDEBUG
#error "perfbench must be built with NDEBUG: asserts on the hot paths skew every timing"
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "perfbench refuses sanitizer builds: timings would measure the sanitizer"
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#error "perfbench refuses sanitizer builds: timings would measure the sanitizer"
#endif
#endif
#if defined(MVCC_STATS_DISABLED)
#error "perfbench needs the obs/ instrumentation compiled in for traced runs"
#endif

extern char** environ;

namespace {

using namespace mvcc;
using u64 = std::uint64_t;
using Entry = std::pair<u64, u64>;

using SumAug = ftree::AugSum<u64, u64>;
using PlainAug = ftree::NoAug<u64, u64>;
template <class Aug>
using Batching = txn::BatchingMap<u64, u64, Aug, vm::PswfVersionManager>;
using Sharded = txn::ShardedMap<u64, u64, PlainAug, vm::PswfVersionManager>;

u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : (n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

// The 1-second slice of the measured window the clients are in (see
// Window); the main thread advances it. Every latency sample carries its
// slice in the top bits, so quantiles can be taken per slice.
std::atomic<u64> g_slice{0};
constexpr int kSliceShift = 48;
constexpr u64 kValueMask = (u64{1} << kSliceShift) - 1;

// --- Bounded raw-sample buffers ---------------------------------------------

class Samples {
 public:
  // Allocates and touches the whole buffer, so it is resident before the
  // map is built and never grows afterwards.
  void reserve(std::size_t cap, u64 seed) {
    buf_.assign(cap, 0);
    rng_ = Xoshiro256(seed);
  }

  void add(u64 ns) {
    const u64 v = (g_slice.load(std::memory_order_relaxed) << kSliceShift) |
                  std::min(ns, kValueMask);
    ++seen_;
    if (n_ < buf_.size()) {
      buf_[n_++] = v;
      return;
    }
    if (buf_.empty()) return;
    const u64 j = rng_.next_below(seen_);
    if (j < buf_.size()) buf_[j] = v;
  }

  std::span<const u64> values() const { return {buf_.data(), n_}; }

 private:
  std::vector<u64> buf_;
  std::size_t n_ = 0;
  u64 seen_ = 0;
  Xoshiro256 rng_;
};

// Per-client-thread measurements. Latency streams a workload does not use
// keep a zero-capacity buffer.
struct ClientStats {
  Samples commit;  // upsert_sync submit-to-visible
  Samples get;     // point get
  Samples pin;     // read_txn / snapshot call
  Samples query;   // reads on the pinned snapshot
  Samples snap;    // pin-to-result of a read transaction
  Samples unpin;   // dropping the pin
  Samples submit;  // async submit call
  Samples late;    // how late a paced generator started on its tick
  Samples multi;   // atomic cross-shard commit
  // Read transactions and gets completed in the window; atomic so the main
  // thread can take per-slice rates (only this client thread writes it).
  std::atomic<u64> reads{0};
  u64 submits = 0;  // submit attempts in the window (sync ones included)
  u64 ops = 0;      // client operations issued in the window
  u64 failed = 0;   // oracle violations, any time
  u64 sink = 0;     // keeps query results alive

  void add_reads(u64 n) {
    reads.store(reads.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
  }
};

// One latency stream merged across client threads: every sample of the
// window, and the samples of each calm 1-second slice (see Window), each
// sorted.
struct Quantiles {
  std::vector<u64> sorted;
  std::vector<std::vector<u64>> slices;
};

Quantiles merge(const std::vector<std::unique_ptr<ClientStats>>& clients,
                Samples ClientStats::*stream, const std::vector<bool>& calm) {
  Quantiles q;
  q.slices.resize(calm.size());
  for (const auto& c : clients) {
    for (const u64 v : ((*c).*stream).values()) {
      const std::size_t slice = static_cast<std::size_t>(v >> kSliceShift);
      if (slice < calm.size() && calm[slice]) {
        q.slices[slice].push_back(v & kValueMask);
      }
      q.sorted.push_back(v & kValueMask);
    }
  }
  std::sort(q.sorted.begin(), q.sorted.end());
  for (auto& s : q.slices) std::sort(s.begin(), s.end());
  return q;
}

// Nearest-rank quantile p of sorted samples; empty when fewer than 10
// samples lie beyond it.
std::optional<u64> rank_value(const std::vector<u64>& sorted, double p) {
  const std::size_t n = sorted.size();
  if (n == 0 || static_cast<double>(n) * (1.0 - p) < 10.0) return {};
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n))), 1, n);
  return sorted[rank - 1];
}

// --- Result assembly ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  long long n = -1;  // samples behind a quantile; -1 for rates and counts
  bool omitted = false;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           long long n = -1) {
    metrics_.push_back({name, value, unit, n, false});
  }

  // Quantile p of a stream, omitted when fewer than 10 samples of the
  // window lie beyond it. When at least 3 calm one-second slices each have
  // 10 samples beyond their own quantile, the value is the median of those
  // slices' quantiles; otherwise it is the quantile over the whole window.
  void quantile(const std::string& name, const Quantiles& q, double p,
                double scale, const std::string& unit) {
    const long long n = static_cast<long long>(q.sorted.size());
    const std::optional<u64> whole = rank_value(q.sorted, p);
    if (!whole) {
      metrics_.push_back({name, 0, unit, n, true});
      return;
    }
    std::vector<double> per_slice;
    for (const auto& s : q.slices) {
      if (const std::optional<u64> v = rank_value(s, p)) {
        per_slice.push_back(static_cast<double>(*v));
      }
    }
    const double v = per_slice.size() >= 3 ? median(per_slice)
                                           : static_cast<double>(*whole);
    add(name, v * scale, unit, n);
  }

  void latency(const std::string& base, const Quantiles& q, double scale,
               const std::string& unit) {
    quantile(base + "_p50_" + unit, q, 0.50, scale, unit);
    quantile(base + "_p90_" + unit, q, 0.90, scale, unit);
    quantile(base + "_p99_" + unit, q, 0.99, scale, unit);
  }

  std::string json() const {
    std::string out = "{";
    char buf[512];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\", \"n\": "
                    "%lld, \"omitted\": %s}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str(), m.n, m.omitted ? "true" : "false");
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// --- Command line and environment ---------------------------------------------

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  double warmup = 1.0;
  bool traced = false;
};

[[noreturn]] void die(const char* msg) {
  std::fprintf(stderr, "perfbench_client: %s\n", msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) die("missing value for an option");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = next();
    } else if (k == "--seed") {
      a.seed = std::strtoull(next(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(next(), nullptr);
    } else if (k == "--warmup") {
      a.warmup = std::strtod(next(), nullptr);
    } else if (k == "--traced") {
      a.traced = true;
    } else {
      die("unknown option");
    }
  }
  if (!(a.seconds > 0 && a.seconds <= 120)) die("--seconds out of (0, 120]");
  if (!(a.warmup >= 0 && a.warmup <= 10)) die("--warmup out of [0, 10]");
  return a;
}

// Inherited MVCC_* knobs would silently change what is measured. The only
// ones allowed are the two a traced run sets on purpose.
void check_environment(const Args& a) {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MVCC_", 5) != 0) continue;
    const bool trace_knob = std::strncmp(*e, "MVCC_STATS=", 11) == 0 ||
                            std::strncmp(*e, "MVCC_TRACE=", 11) == 0;
    if (!(a.traced && trace_knob)) {
      std::fprintf(stderr, "perfbench_client: refusing inherited %s\n", *e);
      std::exit(2);
    }
  }
  if (a.traced != obs::enabled() || a.traced != obs::trace_on()) {
    die("--traced needs MVCC_STATS=1 and MVCC_TRACE set, and only then");
  }
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string config_json() {
  const Config& c = config();
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"threads\": %d, \"grain\": %ld, \"scale\": %g, \"alloc\": \"%s\", "
      "\"slab_bytes\": %zu, \"shards_default\": %d, \"reclaim\": \"%s\", "
      "\"nproc\": %d, \"hardware_concurrency\": %u, \"stats\": %s, "
      "\"trace\": %s, \"build\": \"Release -O2 NDEBUG\", \"compiler\": "
      "\"%s\"}",
      c.threads, c.grain, c.scale, alloc::pooled() ? "slab" : "malloc",
      c.slab_bytes, c.shards,
      vm::bg_reclaim_enabled() ? "background" : "inline", online_cpus(),
      std::thread::hardware_concurrency(), obs::enabled() ? "true" : "false",
      obs::trace_on() ? "true" : "false", __VERSION__);
  return buf;
}

// --- Measured window and footprint --------------------------------------------

// 0 = warm-up, 1 = measured window, 2 = stop.
std::atomic<int> g_phase{0};

bool measuring() { return g_phase.load(std::memory_order_relaxed) == 1; }
bool stopping() { return g_phase.load(std::memory_order_relaxed) == 2; }

long rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long pages = 0;
  long resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  return got == 2 ? resident * sysconf(_SC_PAGESIZE) : 0;
}

// Ticks the host took from this virtual machine's CPUs (the `steal` field
// of /proc/stat), summed over CPUs; 0 where the kernel does not report it.
u64 steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int got =
      std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return got == 8 ? v[7] : 0;
}

// The median of the values whose slice is calm.
double calm_median(const std::vector<double>& v, const std::vector<bool>& calm) {
  std::vector<double> kept;
  for (std::size_t i = 0; i < v.size() && i < calm.size(); ++i) {
    if (calm[i]) kept.push_back(v[i]);
  }
  return median(kept);
}

struct Footprint {
  long long live_nodes_peak = 0;
  std::int64_t live_versions_peak = 0;
  std::int64_t slabs_peak = 0;
  long rss_peak = 0;
};

// The measured window, cut into 1-second slices. The host this benchmark was
// written on is a virtual machine whose CPUs are shared with other tenants:
// in some seconds it loses up to a fifth of its CPU time (`steal` in
// /proc/stat), and the fork-join commit path then slows by up to half. So
// every slice records the steal it saw, and a slice is calm when its steal
// is at most the median over the window's slices. Rates and quantiles are
// medians over the calm slices: a program change moves every slice, a
// neighbour's burst only the slices it hit.
struct Window {
  double seconds = 0;
  std::vector<double> commit_rates;  // Mop/s per slice
  std::vector<double> read_rates;
  std::vector<u64> steal;  // steal ticks per slice
  std::vector<bool> calm;
  u64 t0_trace = 0;  // obs::trace_now_ns() at the window's edges
  u64 t1_trace = 0;
  Footprint fp;
};

// Runs the warm-up and the measured window on the calling thread while the
// client threads run: `before` snapshots counters as the window opens,
// `after` as it closes, and `counts` returns the cumulative committed
// updates and completed reads for the slice rates. The caller sleeps
// through the window, sampling the footprint every millisecond (resident
// memory every 20 ms).
template <class Before, class After, class Counts>
Window run_window(const Args& a, Before&& before, After&& after,
                  Counts&& counts) {
  std::this_thread::sleep_for(std::chrono::duration<double>(a.warmup));
  Window w;
  before();
  w.t0_trace = obs::trace_now_ns();
  const u64 t0 = now_ns();
  g_phase.store(1, std::memory_order_relaxed);
  const u64 end = t0 + static_cast<u64>(a.seconds * 1e9);
  u64 slice = 0;
  u64 slice_t = t0;
  std::pair<u64, u64> slice_c = counts();
  u64 slice_steal = steal_ticks();
  for (int tick = 0;; ++tick) {
    const u64 now = now_ns();
    if ((now - t0) / 1'000'000'000 != slice) {
      const std::pair<u64, u64> c = counts();
      const u64 st = steal_ticks();
      const double us = static_cast<double>(now - slice_t) / 1e3;
      w.commit_rates.push_back(static_cast<double>(c.first - slice_c.first) / us);
      w.read_rates.push_back(static_cast<double>(c.second - slice_c.second) / us);
      w.steal.push_back(st - slice_steal);
      g_slice.store(++slice, std::memory_order_relaxed);
      slice_t = now;
      slice_c = c;
      slice_steal = st;
    }
    w.fp.live_nodes_peak = std::max(w.fp.live_nodes_peak, ftree::live_nodes());
    w.fp.live_versions_peak =
        std::max(w.fp.live_versions_peak,
                 vm::g_live_versions.load(std::memory_order_relaxed));
    w.fp.slabs_peak = std::max(
        w.fp.slabs_peak, alloc::g_slabs_live.load(std::memory_order_relaxed));
    if (tick % 20 == 0) w.fp.rss_peak = std::max(w.fp.rss_peak, rss_bytes());
    if (now >= end) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  g_phase.store(2, std::memory_order_relaxed);
  const u64 t1 = now_ns();
  w.t1_trace = obs::trace_now_ns();
  after();
  w.fp.rss_peak = std::max(w.fp.rss_peak, rss_bytes());
  w.seconds = static_cast<double>(t1 - t0) / 1e9;
  std::vector<double> steal(w.steal.begin(), w.steal.end());
  const double typical = median(steal);
  for (const u64 st : w.steal) w.calm.push_back(static_cast<double>(st) <= typical);
  return w;
}

constexpr int kSetupReps = 5;

// Builds the map `reps` times from a fresh copy of the preload and keeps the
// last one; each build is timed (the copy and the previous map's teardown
// are not), and setup_s is the median.
template <class M, class Build>
std::unique_ptr<M> build_timed(const std::vector<Entry>& data, int reps,
                               Build&& build, std::vector<double>& secs) {
  std::unique_ptr<M> m;
  for (int r = 0; r < reps; ++r) {
    m.reset();
    std::vector<Entry> copy = data;
    const u64 t0 = now_ns();
    m = build(std::move(copy));
    secs.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return m;
}

std::vector<Entry> dataset(u64 keys, u64 seed) {
  return workload::ycsb_dataset(keys, seed ^ 0x5eedda7aULL);
}

// Registry counters the modules export; read only in traced runs, where
// obs::enabled() makes the modules maintain them.
u64 counter(const char* name) { return obs::registry().counter(name).value(); }

struct LayerCounters {
  u64 stalls = 0, rejects = 0, tasks = 0, steals = 0, depot = 0;

  static LayerCounters read() {
    LayerCounters c;
    c.stalls = counter("txn/flattener_stalls");
    c.rejects = counter("txn/admission_rejects");
    c.tasks = counter("exec/tasks");
    c.steals = counter("exec/steals");
    c.depot = static_cast<u64>(alloc::Pool::instance().stats().depot_transfers);
    return c;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// What one workload run hands back to main.
struct Outcome {
  Report report;
  Window window;
  u64 attempted = 0;
  u64 failed = 0;
  double avg_batch_ops = 0;
};

using Clients = std::vector<std::unique_ptr<ClientStats>>;

u64 total_reads(const Clients& cs) {
  u64 n = 0;
  for (const auto& c : cs) n += c->reads.load(std::memory_order_relaxed);
  return n;
}

Clients make_clients(int n) {
  Clients cs;
  for (int i = 0; i < n; ++i) cs.push_back(std::make_unique<ClientStats>());
  return cs;
}

// Counters the window opens and closes on: the map's committed ops and
// versions, plus the module counters.
struct Progress {
  u64 ops = 0;
  u64 batches = 0;
  LayerCounters layer;
};

template <class M>
Progress progress(const M& map) {
  return {map.ops_committed(), map.batches_committed(),
          LayerCounters::read()};
}

// The metrics every workload reports, end to end and per layer.
void report_common(Outcome& out, const Clients& cs, const Progress& p0,
                   const Progress& p1, u64 live_keys, double setup_s,
                   bool traced) {
  Report& r = out.report;
  const Window& w = out.window;
  const double committed = static_cast<double>(p1.ops - p0.ops);
  const double batches = static_cast<double>(p1.batches - p0.batches);
  u64 submits = 0;
  for (const auto& c : cs) {
    submits += c->submits;
    out.attempted += c->ops;
    out.failed += c->failed;
  }
  out.avg_batch_ops = ratio(committed, batches);

  r.add("setup_s", setup_s, "s");
  auto merged = [&](Samples ClientStats::*stream) {
    return merge(cs, stream, w.calm);
  };
  r.add("commit_mops", calm_median(w.commit_rates, w.calm), "Mop/s");
  r.latency("commit", merged(&ClientStats::commit), 1e-3, "us");
  r.add("read_mops", calm_median(w.read_rates, w.calm), "Mop/s");
  r.latency("get", merged(&ClientStats::get), 1, "ns");
  r.latency("snap", merged(&ClientStats::snap), 1, "ns");
  r.add("space_amp",
        static_cast<double>(w.fp.live_nodes_peak) /
            static_cast<double>(live_keys),
        "ratio");
  r.add("rss_peak_mb", static_cast<double>(w.fp.rss_peak) / 1e6, "MB");

  r.quantile("txn.submit_p99_ns", merged(&ClientStats::submit), 0.99, 1,
             "ns");
  r.add("txn.avg_batch_ops", out.avg_batch_ops, "ops");
  const Quantiles pin = merged(&ClientStats::pin);
  r.quantile("vm.pin_p50_ns", pin, 0.50, 1, "ns");
  r.quantile("vm.pin_p99_ns", pin, 0.99, 1, "ns");
  r.add("vm.live_versions_peak",
        static_cast<double>(w.fp.live_versions_peak), "count");
  const Quantiles query = merged(&ClientStats::query);
  r.quantile("ftree.query_p50_ns", query, 0.50, 1, "ns");
  r.quantile("ftree.query_p99_ns", query, 0.99, 1, "ns");
  r.quantile("ftree.unpin_p99_ns", merged(&ClientStats::unpin), 0.99, 1,
             "ns");
  r.add("alloc.slab_mb",
        static_cast<double>(w.fp.slabs_peak) *
            static_cast<double>(alloc::Pool::instance().slab_bytes()) / 1e6,
        "MB");
  r.add("alloc.depot_transfers_per_kop",
        ratio(static_cast<double>(p1.layer.depot - p0.layer.depot),
              committed / 1000.0),
        "count");
  if (traced) {
    const LayerCounters& a = p0.layer;
    const LayerCounters& b = p1.layer;
    r.add("txn.stall_commit_frac",
          ratio(static_cast<double>(b.stalls - a.stalls), batches), "frac");
    r.add("txn.admission_reject_frac",
          ratio(static_cast<double>(b.rejects - a.rejects),
                static_cast<double>(submits)),
          "frac");
    r.add("exec.tasks_per_batch",
          ratio(static_cast<double>(b.tasks - a.tasks), batches), "count");
    r.add("exec.steals_per_batch",
          ratio(static_cast<double>(b.steals - a.steals), batches), "count");
  }
}

// Writes the tracer's retained events for run.py, which derives the span
// busy fractions from them. Called once the clients have stopped.
void dump_trace(Outcome& out) {
  if (!obs::trace_on()) return;
  if (!obs::Tracer::instance().dump_json_to_file(obs::trace_path())) {
    std::fprintf(stderr, "perfbench_client: cannot write the trace\n");
    ++out.failed;
  }
}

// --- snapshot-read ------------------------------------------------------------
//
// Two closed-loop readers run read-only transactions (pin, one 64-key
// aug_range and 8 point finds, unpin) against a 1M-key AugSum map while one
// paced writer sends a 100-op burst of uniform upserts on every 4 ms tick
// (25k ops/s): 99 async submits, then a timed upsert_sync, so the commit
// latency covers the whole burst from its first submit. The writer waits for
// that commit; if it overran its tick it starts the next burst at once and
// skips the missed ticks, so one stall costs one late sample rather than a
// train of them. The burst is short because a writer preempted mid-burst
// lets the flattener commit the first part alone, doubling that burst's
// latency; the longer the burst, the more often that happens, and the p90
// then jumps between the two cases from run to run.
//
// Two readers: the flattener and the exec/ pool workers need CPUs too, and
// with three spinning readers on 4 CPUs the commit latency measures the OS
// scheduler. A burst commits in about 0.5 ms, so the 4 ms tick leaves the
// writer room to keep its rate when other tenants take CPU time.
// perfbench/README.md records the measurements behind these choices.

constexpr u64 kSnapKeys = 1'000'000;
constexpr int kReaders = 2;

Outcome snapshot_read(const Args& a) {
  using M = Batching<SumAug>;
  constexpr u64 kRange = 64;
  constexpr int kFinds = 8;
  constexpr u64 kBurst = 100;
  constexpr u64 kPeriodNs = 4'000'000;  // kBurst ops per 4 ms = 25k ops/s
  const int writer_p = kReaders;

  Clients cs = make_clients(kReaders + 1);
  for (int p = 0; p < kReaders; ++p) {
    const u64 s = a.seed * 64 + static_cast<u64>(p);
    for (Samples ClientStats::*f :
         {&ClientStats::pin, &ClientStats::query, &ClientStats::snap,
          &ClientStats::unpin}) {
      ((*cs[p]).*f).reserve(1 << 19, s);
    }
    cs[p]->get.reserve(1 << 17, s);
  }
  ClientStats& ws = *cs[writer_p];
  ws.commit.reserve(1 << 16, a.seed);
  ws.late.reserve(1 << 16, a.seed);
  ws.get.reserve(1 << 16, a.seed);
  ws.submit.reserve(1 << 18, a.seed);

  Outcome out;
  std::vector<double> setup;
  std::unique_ptr<M> map;
  {
    const std::vector<Entry> data = dataset(kSnapKeys, a.seed);
    map = build_timed<M>(
        data, kSetupReps,
        [](std::vector<Entry> e) {
          return std::make_unique<M>(
              kReaders + 1,
              ftree::FMap<u64, u64, SumAug>::from_entries(std::move(e)));
        },
        setup);
  }

  auto reader = [&](int p) {
    ClientStats& s = *cs[p];
    Xoshiro256 rng(a.seed * 1000 + static_cast<u64>(p) + 1);
    for (u64 i = 0; !stopping(); ++i) {
      const bool in = measuring();
      const u64 lo = rng.next_below(kSnapKeys - kRange + 1);
      const u64 hi = lo + kRange - 1;
      u64 keys[kFinds];
      for (u64& k : keys) k = rng.next_below(kSnapKeys);
      const bool timed = (i & 15) == 0;
      const bool checked = (i & 63) == 7;
      const u64 t0 = timed ? now_ns() : 0;
      std::optional<M::ReadTxn> txn(map->read_txn(p));
      const u64 t1 = timed ? now_ns() : 0;
      const u64 sum = (*txn)->aug_range(lo, hi);
      for (const u64 k : keys) {
        const u64* v = (*txn)->find(k);
        if (v != nullptr) {
          s.sink += *v;
        } else {
          ++s.failed;
        }
      }
      if (checked) {
        // Oracle: the range aggregate equals the sum of point finds over
        // the same range on the same pin.
        u64 by_find = 0;
        for (u64 k = lo; k <= hi; ++k) {
          const u64* v = (*txn)->find(k);
          by_find += v != nullptr ? *v : 0;
          if (v == nullptr) ++s.failed;
        }
        if (by_find != sum) ++s.failed;
      }
      s.sink += sum;
      const u64 t2 = timed ? now_ns() : 0;
      txn.reset();
      if (in) {
        if (timed) {
          const u64 t3 = now_ns();
          s.pin.add(t1 - t0);
          s.query.add(t2 - t1);
          s.snap.add(t2 - t0);
          s.unpin.add(t3 - t2);
        }
        s.add_reads(1);
        ++s.ops;
      }
      if ((i & 63) == 33) {
        const u64 k = rng.next_below(kSnapKeys);
        const u64 g0 = now_ns();
        const std::optional<u64> g = map->get(p, k);
        const u64 g1 = now_ns();
        if (!g) ++s.failed;
        if (in) {
          s.get.add(g1 - g0);
          s.add_reads(1);
          ++s.ops;
        }
      }
    }
  };

  auto writer = [&] {
    ClientStats& s = ws;
    Xoshiro256 rng(a.seed * 1000 + 999);
    u64 due = now_ns();
    while (!stopping()) {
      const u64 now = now_ns();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      } else {
        due = now;  // overran the tick: start now, skip the missed ticks
      }
      const bool in = measuring();
      const u64 start = now_ns();
      for (u64 j = 1; j < kBurst; ++j) {
        const u64 kj = rng.next_below(kSnapKeys);
        const u64 vj = rng();
        if ((j & 63) == 0) {
          const u64 t0 = now_ns();
          map->submit(writer_p, txn::BatchOp::kUpsert, kj, vj);
          if (in) s.submit.add(now_ns() - t0);
        } else {
          map->submit(writer_p, txn::BatchOp::kUpsert, kj, vj);
        }
      }
      const u64 k = rng.next_below(kSnapKeys);
      const u64 v = rng();
      {
        obs::TraceSpan span("bench/commit_probe");
        map->upsert_sync(writer_p, k, v);
      }
      const u64 done = now_ns();
      const std::optional<u64> g = map->get(writer_p, k);
      const u64 got = now_ns();
      if (!g || *g != v) ++s.failed;  // read-your-write
      if (in) {
        s.late.add(start - due);
        s.commit.add(done - start);
        s.get.add(got - done);
        s.add_reads(1);
        s.ops += kBurst + 1;
        s.submits += kBurst;
      }
      due += kPeriodNs;
    }
  };

  std::vector<std::thread> threads;
  for (int p = 0; p < kReaders; ++p) threads.emplace_back(reader, p);
  threads.emplace_back(writer);
  Progress p0, p1;
  out.window = run_window(
      a, [&] { p0 = progress(*map); }, [&] { p1 = progress(*map); },
      [&] { return std::make_pair(map->ops_committed(), total_reads(cs)); });
  for (auto& t : threads) t.join();
  dump_trace(out);
  report_common(out, cs, p0, p1, kSnapKeys, median(setup), a.traced);
  out.report.quantile("workload.gen_late_p99_us",
                      merge(cs, &ClientStats::late, out.window.calm), 0.99,
                      1e-3, "us");
  map->flush_all();
  map.reset();
  return out;
}

// --- write-stream -------------------------------------------------------------
//
// Two closed-loop producers send async upserts, each uniformly over its own
// half of a 2M-key map (about 96 MB of nodes, far beyond the L2), held back
// only by admission control. One op in 1024, at random, is a timed
// upsert_sync followed by a read-your-write get and a snapshot find; two ops
// in each 64 are a timed get and a timed snapshot find of an own key. The
// probes are random, not every 1024th op: with a fixed stride the two
// producers' probes lock into a phase that lasts the whole run, and since a
// probe's commit waits for the other producer's next probe or for a full
// batch, that phase set the latency of the run.

constexpr u64 kStreamKeys = 2'000'000;
constexpr int kStreamProducers = 2;

Outcome write_stream(const Args& a) {
  using M = Batching<PlainAug>;
  constexpr u64 kHalf = kStreamKeys / kStreamProducers;
  constexpr u64 kProbe = 1024;

  Clients cs = make_clients(kStreamProducers);
  for (int p = 0; p < kStreamProducers; ++p) {
    const u64 s = a.seed * 64 + static_cast<u64>(p);
    for (Samples ClientStats::*f :
         {&ClientStats::commit, &ClientStats::get, &ClientStats::pin,
          &ClientStats::query, &ClientStats::snap, &ClientStats::unpin}) {
      ((*cs[p]).*f).reserve(1 << 16, s);
    }
    cs[p]->submit.reserve(1 << 18, s);
  }

  Outcome out;
  std::vector<double> setup;
  std::unique_ptr<M> map;
  // The oracle: the last value written to each key (each key has one owner).
  std::vector<u64> last(kStreamKeys);
  {
    const std::vector<Entry> data = dataset(kStreamKeys, a.seed);
    for (const Entry& e : data) last[e.first] = e.second;
    map = build_timed<M>(
        data, kSetupReps,
        [](std::vector<Entry> e) {
          return std::make_unique<M>(
              kStreamProducers,
              ftree::FMap<u64, u64, PlainAug>::from_entries(std::move(e)));
        },
        setup);
  }

  auto producer = [&](int p) {
    ClientStats& s = *cs[p];
    Xoshiro256 rng(a.seed * 1000 + static_cast<u64>(p) + 1);
    const u64 lo = static_cast<u64>(p) * kHalf;
    u64 seq = 0;
    for (u64 i = 0; !stopping(); ++i) {
      const bool in = measuring();
      const u64 k = lo + rng.next_below(kHalf);
      const u64 v = (static_cast<u64>(p) << 62) | ++seq;
      if (rng.next_below(kProbe) == 0) {
        const u64 t0 = now_ns();
        {
          obs::TraceSpan span("bench/commit_probe");
          map->upsert_sync(p, k, v);
        }
        const u64 t1 = now_ns();
        last[k] = v;
        const std::optional<u64> g = map->get(p, k);
        const u64 t2 = now_ns();
        std::optional<M::ReadTxn> txn(map->read_txn(p));
        const u64 t3 = now_ns();
        const u64* f = (*txn)->find(k);
        const bool seen = f != nullptr && *f == v;
        const u64 t4 = now_ns();
        txn.reset();
        const u64 t5 = now_ns();
        if (!g || *g != v) ++s.failed;  // read-your-write through get
        if (!seen) ++s.failed;          // and through a snapshot
        if (in) {
          s.commit.add(t1 - t0);
          s.get.add(t2 - t1);
          s.pin.add(t3 - t2);
          s.query.add(t4 - t3);
          s.snap.add(t4 - t2);
          s.unpin.add(t5 - t4);
          s.add_reads(2);
          s.ops += 3;
          ++s.submits;
        }
        continue;
      }
      if ((i & 63) == 31) {
        // A point read of an own key; its value may still be in flight.
        const u64 t0 = now_ns();
        const std::optional<u64> g = map->get(p, k);
        const u64 t1 = now_ns();
        if (!g) ++s.failed;
        if (in) {
          s.get.add(t1 - t0);
          s.add_reads(1);
          ++s.ops;
        }
        continue;
      }
      if ((i & 63) == 47) {
        const u64 t0 = now_ns();
        std::optional<M::ReadTxn> txn(map->read_txn(p));
        const u64 t1 = now_ns();
        const bool hit = (*txn)->find(k) != nullptr;
        const u64 t2 = now_ns();
        txn.reset();
        const u64 t3 = now_ns();
        if (!hit) ++s.failed;
        if (in) {
          s.pin.add(t1 - t0);
          s.query.add(t2 - t1);
          s.snap.add(t2 - t0);
          s.unpin.add(t3 - t2);
          s.add_reads(1);
          ++s.ops;
        }
        continue;
      }
      if ((i & 63) == 0) {
        const u64 t0 = now_ns();
        map->submit(p, txn::BatchOp::kUpsert, k, v);
        if (in) s.submit.add(now_ns() - t0);
      } else {
        map->submit(p, txn::BatchOp::kUpsert, k, v);
      }
      last[k] = v;
      if (in) {
        ++s.ops;
        ++s.submits;
      }
    }
  };

  std::vector<std::thread> threads;
  for (int p = 0; p < kStreamProducers; ++p) threads.emplace_back(producer, p);
  Progress p0, p1;
  out.window = run_window(
      a, [&] { p0 = progress(*map); }, [&] { p1 = progress(*map); },
      [&] { return std::make_pair(map->ops_committed(), total_reads(cs)); });
  for (auto& t : threads) t.join();
  dump_trace(out);
  report_common(out, cs, p0, p1, kStreamKeys, median(setup), a.traced);

  // Oracle after the final flush: every key holds its owner's last write.
  map->flush_all();
  {
    const M::ReadTxn txn = map->read_txn(0);
    u64 next = 0;
    u64 bad = 0;
    txn->for_each([&](u64 k, u64 v) {
      if (k != next || v != last[k]) ++bad;
      ++next;
    });
    if (next != kStreamKeys) ++bad;
    out.failed += bad;
  }
  map.reset();
  return out;
}

// --- ycsb-a-sharded -----------------------------------------------------------
//
// YCSB-A (50/50 get/submit, Zipf 0.99 inside each producer's partition) on
// a 1M-key ShardedMap with 2 shards and 2 closed-loop producers. One op in
// 1024 is a cross-shard snapshot plus finds, one in 4096 a 2-key
// multi_upsert_sync spanning both shards, and one in 512 a timed
// upsert_sync with a read-your-write get. Which ops these are is drawn at
// random (seeded), so the producers' probes do not lock into a phase.

constexpr u64 kYcsbKeys = 1'000'000;
constexpr int kYcsbProducers = 2;
constexpr int kYcsbShards = 2;
constexpr std::size_t kYcsbStream = std::size_t{1} << 20;

// Producer p's cross-shard key pair, above the YCSB key range: the first key
// from its own base in shard 0 and the first in shard 1. Written only by
// multi_upsert_sync, so every snapshot must read the two equal.
std::pair<u64, u64> owned_pair(int p) {
  u64 in0 = 0, in1 = 0;
  for (u64 k = kYcsbKeys + static_cast<u64>(p) * 1000; in0 == 0 || in1 == 0;
       ++k) {
    const std::size_t s = Sharded::shard_index(k, kYcsbShards);
    if (s == 0 && in0 == 0) in0 = k;
    if (s == 1 && in1 == 0) in1 = k;
  }
  return {in0, in1};
}

std::vector<std::vector<workload::YcsbOp>> ycsb_streams(u64 seed) {
  const workload::PartitionedYcsb gen(workload::kYcsbA, kYcsbKeys,
                                      kYcsbProducers);
  std::vector<std::vector<workload::YcsbOp>> out;
  for (int p = 0; p < kYcsbProducers; ++p) {
    out.push_back(gen.stream(p, kYcsbStream, seed * 7919 + 17));
  }
  return out;
}

Outcome ycsb_sharded(const Args& a) {
  Clients cs = make_clients(kYcsbProducers);
  for (int p = 0; p < kYcsbProducers; ++p) {
    const u64 s = a.seed * 64 + static_cast<u64>(p);
    for (Samples ClientStats::*f :
         {&ClientStats::commit, &ClientStats::pin, &ClientStats::query,
          &ClientStats::snap, &ClientStats::unpin, &ClientStats::multi}) {
      ((*cs[p]).*f).reserve(1 << 16, s);
    }
    cs[p]->get.reserve(1 << 19, s);
    cs[p]->submit.reserve(1 << 18, s);
  }
  const auto streams = ycsb_streams(a.seed);

  Outcome out;
  std::vector<double> setup;
  std::unique_ptr<Sharded> map;
  std::vector<u64> last(kYcsbKeys);
  std::pair<u64, u64> pairs[kYcsbProducers];
  u64 pair_val[kYcsbProducers] = {};
  {
    std::vector<Entry> data = dataset(kYcsbKeys, a.seed);
    for (const Entry& e : data) last[e.first] = e.second;
    for (int p = 0; p < kYcsbProducers; ++p) {
      pairs[p] = owned_pair(p);
      data.emplace_back(pairs[p].first, 0);
      data.emplace_back(pairs[p].second, 0);
    }
    map = build_timed<Sharded>(
        data, kSetupReps,
        [](std::vector<Entry> e) {
          return std::make_unique<Sharded>(kYcsbProducers, std::move(e),
                                           kYcsbShards);
        },
        setup);
  }

  auto producer = [&](int p) {
    ClientStats& s = *cs[p];
    const std::vector<workload::YcsbOp>& ops = streams[static_cast<std::size_t>(p)];
    const auto [ka, kb] = pairs[p];
    Xoshiro256 rng(a.seed * 1000 + static_cast<u64>(p) + 1);
    u64 seq = 0;
    u64 gets = 0;
    for (u64 i = 0; !stopping(); ++i) {
      const bool in = measuring();
      const workload::YcsbOp& op = ops[i % kYcsbStream];
      const u64 slot = rng.next_below(4096);
      if (slot == 0) {
        const u64 v = (static_cast<u64>(p) << 62) | ++seq;
        const Entry pair[2] = {{ka, v}, {kb, v}};
        const u64 t0 = now_ns();
        map->multi_upsert_sync(p, std::span<const Entry>(pair, 2));
        const u64 t1 = now_ns();
        pair_val[p] = v;
        if (in) {
          s.multi.add(t1 - t0);
          ++s.ops;
          s.submits += 2;
        }
      } else if (slot <= 4) {
        const u64 t0 = now_ns();
        std::optional<Sharded::Snapshot> snap;
        {
          obs::TraceSpan span("bench/snapshot");
          snap.emplace(map->snapshot(p));
        }
        const u64 t1 = now_ns();
        const u64* fa = snap->find(ka);
        const u64* fb = snap->find(kb);
        const u64* fk = snap->find(op.key);
        const u64 t2 = now_ns();
        // Oracle: the pair is never torn, and holds this producer's last
        // committed multi-write; every YCSB key exists.
        if (fa == nullptr || fb == nullptr || *fa != *fb ||
            *fa != pair_val[p] || fk == nullptr) {
          ++s.failed;
        }
        snap.reset();
        const u64 t3 = now_ns();
        if (in) {
          s.pin.add(t1 - t0);
          s.query.add(t2 - t1);
          s.snap.add(t2 - t0);
          s.unpin.add(t3 - t2);
          s.add_reads(1);
          ++s.ops;
        }
      } else if (slot <= 12) {
        const u64 v = (static_cast<u64>(p) << 62) | ++seq;
        const u64 t0 = now_ns();
        {
          obs::TraceSpan span("bench/commit_probe");
          map->upsert_sync(p, op.key, v);
        }
        const u64 t1 = now_ns();
        last[op.key] = v;
        const std::optional<u64> g = map->get(p, op.key);
        const u64 t2 = now_ns();
        if (!g || *g != v) ++s.failed;  // read-your-write
        if (in) {
          s.commit.add(t1 - t0);
          s.get.add(t2 - t1);
          s.add_reads(1);
          s.ops += 2;
          ++s.submits;
        }
      } else if (op.type == workload::YcsbOp::kRead) {
        if ((++gets & 15) == 0) {
          const u64 t0 = now_ns();
          const std::optional<u64> g = map->get(p, op.key);
          const u64 t1 = now_ns();
          if (!g) ++s.failed;
          if (in) s.get.add(t1 - t0);
        } else if (!map->get(p, op.key)) {
          ++s.failed;
        }
        if (in) {
          s.add_reads(1);
          ++s.ops;
        }
      } else {
        const u64 v = (static_cast<u64>(p) << 62) | ++seq;
        if ((seq & 63) == 0) {
          const u64 t0 = now_ns();
          map->submit(p, txn::BatchOp::kUpsert, op.key, v);
          if (in) s.submit.add(now_ns() - t0);
        } else {
          map->submit(p, txn::BatchOp::kUpsert, op.key, v);
        }
        last[op.key] = v;
        if (in) {
          ++s.ops;
          ++s.submits;
        }
      }
    }
  };

  std::vector<std::thread> threads;
  for (int p = 0; p < kYcsbProducers; ++p) threads.emplace_back(producer, p);
  Progress p0, p1;
  u64 shard0[kYcsbShards] = {}, shard1[kYcsbShards] = {};
  u64 snaps0 = 0, snaps1 = 0, retries0 = 0, retries1 = 0;
  auto shard_snapshot = [&](u64* ops, u64& snaps, u64& retries) {
    for (int s = 0; s < kYcsbShards; ++s) ops[s] = map->shard_ops_committed(s);
    snaps = map->snapshots_taken();
    retries = map->snapshot_retries();
  };
  out.window = run_window(
      a,
      [&] {
        p0 = progress(*map);
        shard_snapshot(shard0, snaps0, retries0);
      },
      [&] {
        p1 = progress(*map);
        shard_snapshot(shard1, snaps1, retries1);
      },
      [&] { return std::make_pair(map->ops_committed(), total_reads(cs)); });
  for (auto& t : threads) t.join();
  dump_trace(out);
  report_common(out, cs, p0, p1, kYcsbKeys + 2 * kYcsbProducers, median(setup),
                a.traced);
  Report& r = out.report;
  r.latency("multi", merge(cs, &ClientStats::multi, out.window.calm), 1e-3,
            "us");
  r.quantile("sharded.snapshot_call_p99_ns",
             merge(cs, &ClientStats::pin, out.window.calm), 0.99, 1, "ns");
  r.add("sharded.retry_per_snapshot",
        ratio(static_cast<double>(retries1 - retries0),
              static_cast<double>(snaps1 - snaps0)),
        "count");
  double lo = 0, hi = 0;
  for (int s = 0; s < kYcsbShards; ++s) {
    const double d = static_cast<double>(shard1[s] - shard0[s]);
    lo = s == 0 ? d : std::min(lo, d);
    hi = std::max(hi, d);
  }
  r.add("sharded.shard_skew", ratio(hi, lo), "ratio");

  // Oracle after the final flush: every YCSB key holds its owner's last
  // write, and every pair its owner's last multi-write.
  map->flush_all();
  {
    const Sharded::Snapshot snap = map->snapshot(0);
    u64 bad = 0;
    for (u64 k = 0; k < kYcsbKeys; ++k) {
      const u64* v = snap.find(k);
      if (v == nullptr || *v != last[k]) ++bad;
    }
    for (int p = 0; p < kYcsbProducers; ++p) {
      const u64* va = snap.find(pairs[p].first);
      const u64* vb = snap.find(pairs[p].second);
      if (va == nullptr || vb == nullptr || *va != pair_val[p] ||
          *vb != pair_val[p]) {
        ++bad;
      }
    }
    out.failed += bad;
  }
  map.reset();
  return out;
}

// --- Stage replay (traced runs) -------------------------------------------------
//
// Splits one commit into its stages from outside the library: a private
// PSWF manager over a tree of the workload's size replays batches of the
// workload's measured mean batch size, with keys from the workload's key
// distribution, timing each public call the flattener makes —
// prepare_batch, multi_inserted, set (with the writer's release) and the
// retired version's destructor, which is the precise collect.

struct ReplayTotals {
  u64 ops = 0, batches = 0;
  u64 prepare_ns = 0, insert_ns = 0, set_ns = 0, collect_ns = 0;
  long long copied = 0, freed = 0;
};

template <class Aug, class KeyGen>
ReplayTotals replay_pass(const std::vector<Entry>& data, std::size_t batch_ops,
                         int batches, u64 seed, KeyGen&& next_key) {
  using Map = ftree::FMap<u64, u64, Aug>;
  ReplayTotals t;
  vm::PswfVersionManager<Map> mgr(1, alloc::create<Map>(Map::from_entries(data)));
  Xoshiro256 rng(seed);
  std::vector<Entry> batch;
  batch.reserve(batch_ops);
  for (int b = 0; b < batches; ++b) {
    batch.clear();
    for (std::size_t j = 0; j < batch_ops; ++j) {
      const u64 k = next_key(rng);
      batch.emplace_back(k, rng());
    }
    Map* cur = mgr.acquire(0);
    const u64 t0 = now_ns();
    ftree::prepare_batch(batch);
    const u64 t1 = now_ns();
    const long long n1 = ftree::live_nodes();
    Map next = cur->multi_inserted(std::span<const Entry>(batch));
    const u64 t2 = now_ns();
    const long long n2 = ftree::live_nodes();
    std::vector<Map*> dead = mgr.set(0, alloc::create<Map>(std::move(next)));
    for (Map* m : mgr.release(0)) dead.push_back(m);
    const u64 t3 = now_ns();
    const long long n3 = ftree::live_nodes();
    for (Map* m : dead) alloc::destroy(m);
    const u64 t4 = now_ns();
    const long long n4 = ftree::live_nodes();
    t.prepare_ns += t1 - t0;
    t.insert_ns += t2 - t1;
    t.set_ns += t3 - t2;
    t.collect_ns += t4 - t3;
    t.copied += n2 - n1;
    t.freed += n3 - n4;
    t.ops += batch_ops;
    ++t.batches;
  }
  for (Map* m : mgr.shutdown_drain()) alloc::destroy(m);
  return t;
}

// Runs the replay twice with identical inputs. The node counts are a pure
// function of the inputs (Thm 4.2: the freed set is exact), so a mismatch
// between the passes is a failed check.
template <class Aug, class KeyGen>
void stage_replay(Outcome& out, const std::vector<Entry>& data, u64 seed,
                  KeyGen&& next_key) {
  constexpr int kBatches = 32;
  const std::size_t batch_ops = static_cast<std::size_t>(
      std::clamp(std::llround(out.avg_batch_ops), 1LL, 1LL << 16));
  const ReplayTotals a = replay_pass<Aug>(data, batch_ops, kBatches, seed, next_key);
  const ReplayTotals b = replay_pass<Aug>(data, batch_ops, kBatches, seed, next_key);
  if (a.copied != b.copied || a.freed != b.freed) ++out.failed;
  const double ops = static_cast<double>(a.ops + b.ops);
  const double n = static_cast<double>(a.batches + b.batches);
  Report& r = out.report;
  r.add("ftree.prepare_ns_per_op",
        static_cast<double>(a.prepare_ns + b.prepare_ns) / ops, "ns");
  r.add("ftree.multi_insert_ns_per_op",
        static_cast<double>(a.insert_ns + b.insert_ns) / ops, "ns");
  r.add("vm.set_ns", static_cast<double>(a.set_ns + b.set_ns) / n, "ns");
  r.add("ftree.collect_ns_per_batch",
        static_cast<double>(a.collect_ns + b.collect_ns) / n, "ns");
  r.add("ftree.nodes_copied_per_op",
        static_cast<double>(a.copied) / static_cast<double>(a.ops), "count");
  r.add("ftree.nodes_freed_per_batch",
        static_cast<double>(a.freed) / static_cast<double>(a.batches),
        "count");
}

void replay_for(const Args& a, Outcome& out) {
  const u64 seed = a.seed * 31 + 5;
  if (a.workload == "snapshot-read") {
    stage_replay<SumAug>(out, dataset(kSnapKeys, a.seed), seed,
                         [](Xoshiro256& g) { return g.next_below(kSnapKeys); });
  } else if (a.workload == "write-stream") {
    stage_replay<PlainAug>(
        out, dataset(kStreamKeys, a.seed), seed,
        [](Xoshiro256& g) { return g.next_below(kStreamKeys); });
  } else {
    const auto streams = ycsb_streams(a.seed);
    stage_replay<PlainAug>(out, dataset(kYcsbKeys, a.seed), seed,
                           [&streams](Xoshiro256& g) {
                             const auto& s =
                                 streams[g.next_below(kYcsbProducers)];
                             return s[g.next_below(s.size())].key;
                           });
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  check_environment(a);
  Outcome out;
  if (a.workload == "snapshot-read") {
    out = snapshot_read(a);
  } else if (a.workload == "write-stream") {
    out = write_stream(a);
  } else if (a.workload == "ycsb-a-sharded") {
    out = ycsb_sharded(a);
  } else {
    die("unknown --workload");
  }
  if (a.traced) replay_for(a, out);
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"traced\": %s, \"window_s\": %.6f, \"trace_window_ns\": [%" PRIu64
      ", %" PRIu64 "], \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"config\": %s, \"metrics\": %s}\n",
      a.workload.c_str(), a.seed, a.traced ? "true" : "false",
      out.window.seconds, out.window.t0_trace, out.window.t1_trace,
      out.attempted, out.failed, config_json().c_str(),
      out.report.json().c_str());
  return 0;
}
