// Shared glue for the experiment binaries:
//   * table formatting (Table, print_row, fmt) for the human-readable output;
//   * the environment knobs every bench reads (MVCC_SECONDS,
//     MVCC_WARMUP_SECONDS, MVCC_THREADS, MVCC_READERS, MVCC_SHARDS), each
//     behind one helper that applies its floor/clamp;
//   * SteadyState, the one duration-based steady-state driver the Figure 7
//     and Appendix F cells run through;
//   * ObsSession, which prints the bench's obs registry as the last JSON
//     block on stdout. Every cell records its numbers there (throughput as
//     `.../ops_per_s` gauges, latency as `..._ns` histograms), and
//     bench/merge_json.py merges those blocks into bench-smoke.json; the
//     tables are printed from the same values, for humans only.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mvcc/alloc/pool.h"
#include "mvcc/common/env.h"
#include "mvcc/common/timing.h"
#include "mvcc/ftree/ops.h"
#include "mvcc/obs/obs.h"
#include "mvcc/txn/batching.h"
#include "mvcc/vm/base.h"

namespace mvcc::bench {

inline void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

// Prints one row of left-aligned cells. `width` is a minimum: a cell wider
// than it gets its own width plus a separating space, so long values never
// jam into the next column (they may still stagger against other rows —
// use Table when the whole table is known up front).
inline void print_row(const std::vector<std::string>& cells, int width = 12) {
  for (const auto& c : cells) {
    const int w = std::max(width, static_cast<int>(c.size()) + 1);
    std::printf("%-*s", w, c.c_str());
  }
  std::printf("\n");
}

// Collects a header plus rows and prints them with every column as wide as
// its widest cell — the alignment print_row cannot guarantee row by row.
class Table {
 public:
  explicit Table(std::vector<std::string> header, int min_width = 12)
      : min_width_(min_width) {
    rows_.push_back(std::move(header));
  }

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<int> widths;
    for (const auto& row : rows_) {
      if (widths.size() < row.size()) widths.resize(row.size(), min_width_);
      for (std::size_t i = 0; i < row.size(); ++i) {
        widths[i] =
            std::max(widths[i], static_cast<int>(row[i].size()) + 2);
      }
    }
    for (const auto& row : rows_) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        std::printf("%-*s", widths[i], row[i].c_str());
      }
      std::printf("\n");
    }
  }

 private:
  int min_width_;
  std::vector<std::vector<std::string>> rows_;
};

// Fixed-precision double formatting with no truncation: the buffer is
// sized by a measuring pass, so any magnitude round-trips intact.
inline std::string fmt(double v, int precision = 3) {
  const int n = std::snprintf(nullptr, 0, "%.*f", precision, v);
  std::string s(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::snprintf(s.data(), s.size() + 1, "%.*f", precision, v);
  return s;
}

inline std::string fmt_int(long long v) { return std::to_string(v); }

// Measured window per bench cell, seconds (MVCC_SECONDS); a non-positive
// one would report zeros as data, so it means the default.
inline double cell_seconds() {
  const double v = env_double("MVCC_SECONDS", 0.4);
  return v > 0 ? v : 0.4;
}

// Warm-up run before each measured cell of a duration-based steady-state
// bench (ScaleStore-driver style): threads run the full workload, nothing
// is recorded until the warm-up elapses. MVCC_WARMUP_SECONDS, floored at 0.
inline double warmup_seconds() {
  return std::max(env_double("MVCC_WARMUP_SECONDS", 0.1), 0.0);
}

// A thread-count knob: `def` when unset or malformed, otherwise clamped to
// [1, kMaxThreadKnob] (common/env.h).
inline int thread_knob(const char* name, int def) {
  return static_cast<int>(std::clamp(env_long(name, def), 1L, kMaxThreadKnob));
}

// Worker/producer threads per steady-state cell (MVCC_THREADS); each bench
// passes its own default.
inline int worker_threads(int def) { return thread_knob("MVCC_THREADS", def); }

// Reader thread count for the Table 2 / Figure 6 harness (paper: 140).
inline int reader_threads() { return thread_knob("MVCC_READERS", 3); }

// Shard counts of a sharded sweep: 1/2/4 when MVCC_SHARDS is unset, so one
// run prints the whole scaling table; otherwise the single count
// config().shards holds, clamped to [1, 256] by env.h (CI runs one process
// per count for crash isolation).
inline std::vector<int> shard_sweep() {
  if (env_string("MVCC_SHARDS").empty()) return {1, 2, 4};
  return {config().shards};
}

// --- Steady-state driver ----------------------------------------------------

// A monotone count read at both edges of the measured window, e.g. a map's
// ops_committed().
using Source = std::function<std::uint64_t()>;

// What one steady-state window measured.
struct Window {
  double seconds = 0;
  std::uint64_t ops = 0;               // ops the workers issued in the window
  std::vector<std::uint64_t> sources;  // growth of each Source, in order

  // `n` events over the window as an integer rate per second.
  std::int64_t per_s(std::uint64_t n) const {
    return seconds > 0 ? std::llround(static_cast<double>(n) / seconds) : 0;
  }
};

// One duration-based steady-state cell (ScaleStore-driver style). Construct
// it before anything whose threads the cell's hardware counters should
// cover, such as a map's flattener: it opens the obs::PerfCell for `label`,
// and perf inherit only reaches threads created after the counters open.
// The counters are reported under perf/<label>/ when the cell is destroyed.
class SteadyState {
 public:
  explicit SteadyState(std::string label) : perf_(std::move(label)) {}

  // Spawns `threads` workers, lets them run for `warmup` seconds, then
  // measures a `seconds`-long window and stops and joins them before
  // returning. Worker t calls make_worker(t) once on its own thread to build
  // its op loop body, then calls body(i, measuring) for i = 0, 1, ... until
  // stopped; `measuring` is false during the warm-up and true in the window,
  // and the body's return value is folded into a sink so reads stay live.
  template <class MakeWorker>
  Window run(int threads, double warmup, double seconds,
             MakeWorker make_worker, std::vector<Source> sources = {}) {
    std::atomic<bool> stop{false};
    std::atomic<bool> measuring{false};
    std::atomic<std::uint64_t> sink{0};
    std::vector<PaddedCount> counts(static_cast<std::size_t>(threads));
    std::vector<std::thread> workers;
    // Stops and joins on every exit path, a throwing spawn included.
    struct Joiner {
      std::atomic<bool>& stop;
      std::vector<std::thread>& workers;
      ~Joiner() {
        stop.store(true, std::memory_order_release);
        for (auto& w : workers) w.join();
      }
    };
    Window w;
    {
      Joiner joiner{stop, workers};
      for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          auto body = make_worker(t);
          auto& count = counts[static_cast<std::size_t>(t)].v;
          std::uint64_t local = 0;
          std::uint64_t i = 0;
          while (!stop.load(std::memory_order_acquire)) {
            local += body(i, measuring.load(std::memory_order_relaxed));
            count.store(++i, std::memory_order_relaxed);
          }
          sink.fetch_add(local, std::memory_order_relaxed);
        });
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
      measuring.store(true, std::memory_order_relaxed);
      obs::Delta issued([&counts] {
        std::uint64_t s = 0;
        for (const auto& c : counts) s += c.v.load(std::memory_order_relaxed);
        return s;
      });
      std::vector<obs::Delta<Source>> deltas;
      for (auto& src : sources) deltas.emplace_back(std::move(src));
      Timer timer;
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
      w.ops = issued.delta();
      for (const auto& d : deltas) w.sources.push_back(d.delta());
      w.seconds = timer.seconds();
    }
    return w;
  }

 private:
  struct alignas(64) PaddedCount {
    std::atomic<std::uint64_t> v{0};
  };

  obs::PerfCell perf_;
};

// A histogram quantile for a human table, in ns: "-" when the histogram
// never recorded, just as the JSON dump omits it.
inline std::string fmt_ns(const obs::LatencyHistogram& h, double q) {
  return h.count() == 0 ? "-" : fmt(h.quantile(q), 0);
}

// Per-process observability session for the experiment binaries: construct
// one in main() around the measured work, naming the bench's metric prefix
// (fig7, batching, table3, collect). Under MVCC_STATS=1 it registers every
// subsystem's footprint probes and, when MVCC_SAMPLE_MS > 0, starts the
// background sampler; on destruction it stops the sampler, writes the
// footprint CSV (MVCC_SAMPLE_OUT, default footprint.csv), and dumps the
// event trace to MVCC_TRACE when tracing is active. Stats on or off, the
// destructor then prints registry().dump_json("<prefix>/") as the last block
// on stdout -- the block bench/merge_json.py reads.
class ObsSession {
 public:
  explicit ObsSession(std::string prefix) : prefix_(std::move(prefix) + "/") {
    if (!obs::enabled()) return;
    alloc::register_alloc_probes();
    ftree::register_footprint_probes();
    vm::register_vm_probes();
    txn::register_txn_probes();
    const long period_ms = env_long("MVCC_SAMPLE_MS", 0);
    if (period_ms > 0) {
      sampling_ = obs::Sampler::instance().start(period_ms);
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  ~ObsSession() {
    if (sampling_) {
      auto& sampler = obs::Sampler::instance();
      sampler.stop();
      const std::string out = env_string("MVCC_SAMPLE_OUT", "footprint.csv");
      if (sampler.dump_csv_to_file(out)) {
        std::fprintf(stderr, "[obs] footprint samples (%zu rows) -> %s\n",
                     sampler.rows().size(), out.c_str());
      }
    }
    if (obs::trace_on()) {
      auto& tracer = obs::Tracer::instance();
      if (tracer.dump_json_to_file(obs::trace_path())) {
        std::fprintf(stderr, "[obs] trace (%llu events) -> %s\n",
                     static_cast<unsigned long long>(tracer.events_emitted()),
                     obs::trace_path().c_str());
      }
    }
    print_header("metrics (obs registry, JSON)");
    std::printf("%s\n", obs::registry().dump_json(prefix_).c_str());
  }

 private:
  std::string prefix_;
  bool sampling_ = false;
};

}  // namespace mvcc::bench
