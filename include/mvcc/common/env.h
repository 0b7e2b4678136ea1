// Environment-variable knobs shared by every experiment binary.
//
// The paper's harnesses are parameterised by machine scale; rather than a
// flag library we use a tiny set of env knobs so the same binary runs on a
// laptop (defaults) and on the paper's 72-core machine (MVCC_* overrides):
//
//   MVCC_SCALE    multiplier applied to structure sizes        (default 1.0)
//   MVCC_SECONDS  wall-clock budget per measured cell, seconds (default 0.4)
//   MVCC_READERS  reader-thread count for the Table 2 harness  (default 3)
//   MVCC_THREADS  worker-thread count for batch/bulk ops       (default hw)
//   MVCC_WARMUP_SECONDS  steady-state warm-up before each measured
//                 duration-based bench cell                    (default 0.1)
//   MVCC_STATS    1 enables the obs/ metrics layer (see obs/obs.h);
//                 unset/0 keeps instrumentation disabled       (default 0)
//   MVCC_SAMPLE_MS  footprint sampler period, ms; 0 disables the sampler
//                 thread entirely (see obs/sampler.h)          (default 0)
//   MVCC_SAMPLE_OUT path the benches write the footprint CSV to
//                 when the sampler ran             (default footprint.csv)
//   MVCC_TRACE    output path for the Chrome-trace event dump; unset
//                 disables tracing (see obs/trace.h)        (default off)
//   MVCC_PERF     1 opens perf_event hardware counters per bench cell
//                 (see obs/perf.h; silent no-op where the syscall is
//                 unavailable)                                 (default 0)
//   MVCC_GRAIN    fork-join grain for the bulk tree ops: a recursive
//                 subproblem below this many nodes stays sequential
//                 (see ftree/ops.h bulk_grain); four grains of work is
//                 also where a commit's frees move off the commit path
//                 (see alloc/reclaim.h)                     (default 2048)
//   MVCC_ALLOC    node/tuple allocation policy: "slab" routes fixed-size
//                 blocks through the alloc/ magazine pool, "malloc" keeps
//                 plain operator new/delete for A/B comparison
//                 (see alloc/pool.h)                      (default "slab")
//   MVCC_SLAB_BYTES  bytes per slab the alloc/ pool carves blocks from,
//                 clamped to [4096, 16MiB]                 (default 65536)
//   MVCC_SHARDS   shard count for the sharded multi-writer front-end
//                 (txn/sharded.h): the key space is hash-partitioned
//                 across this many independent BatchingMap shards, each
//                 with its own flattener and version manager. Clamped to
//                 [1, 256]; latched at the first ShardedMap construction
//                 (like MVCC_ALLOC's route latch) so a reload_config()
//                 mid-process cannot leave two maps disagreeing about the
//                 shard topology the sharded/* metrics are keyed by
//                                                              (default 1)
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

namespace mvcc {

// Reads a long from the environment; returns `def` when unset or malformed.
inline long env_long(const char* name, long def) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return def;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  return (end == nullptr || *end != '\0') ? def : v;
}

// Reads a double from the environment; returns `def` when unset or malformed.
inline double env_double(const char* name, double def) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return def;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  return (end == nullptr || *end != '\0') ? def : v;
}

// Reads a string from the environment; returns `def` when unset.
inline std::string env_string(const char* name, const char* def = "") {
  const char* s = std::getenv(name);
  return std::string(s != nullptr ? s : def);
}

// Smallest fork-join grain the bulk tree ops accept: below this, the spawn
// cost per subproblem exceeds the node-visit work by orders of magnitude
// and fork-join degrades into per-node task spam.
inline constexpr long kGrainFloor = 64;

namespace detail {

inline double parse_scale() { return env_double("MVCC_SCALE", 1.0); }

// MVCC_GRAIN with the guard rails: non-positive or malformed values fall
// back to the default (a grain of 0 would fork single-node subproblems),
// and positive-but-absurd values clamp to kGrainFloor — silently accepting
// e.g. MVCC_GRAIN=1 used to turn every bulk op into spawn-bound sludge.
// The clamp logs once per process under MVCC_STATS=1 so a grain sweep
// that walked off the edge is visible rather than mysteriously flat.
inline long parse_grain() {
  const long v = env_long("MVCC_GRAIN", 2048);
  if (v <= 0) return 2048;
  if (v < kGrainFloor) {
    static std::atomic<bool> warned{false};
    if (env_long("MVCC_STATS", 0) != 0 &&
        !warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "[mvcc] MVCC_GRAIN=%ld would fork near-single-node "
                   "subproblems; clamped to %ld\n",
                   v, kGrainFloor);
    }
    return kGrainFloor;
  }
  return v;
}

inline int parse_threads() {
  const long hw = static_cast<long>(std::thread::hardware_concurrency());
  const long v = env_long("MVCC_THREADS", hw > 0 ? hw : 1);
  return static_cast<int>(v > 0 ? v : 1);
}

// MVCC_ALLOC: any value other than "malloc" selects the slab pool, so a
// typo fails toward the default policy instead of silently changing it.
inline bool parse_alloc_pooled() {
  return env_string("MVCC_ALLOC", "slab") != "malloc";
}

inline std::size_t parse_slab_bytes() {
  const long v = env_long("MVCC_SLAB_BYTES", 1L << 16);
  const long lo = 1L << 12;
  const long hi = 1L << 24;
  return static_cast<std::size_t>(v < lo ? lo : (v > hi ? hi : v));
}

// MVCC_SHARDS clamped to [1, 256]: a shard is a whole flattener thread plus
// a version manager, so counts beyond a few hundred are a misconfiguration,
// not a scale-up.
inline int parse_shards() {
  const long v = env_long("MVCC_SHARDS", 1);
  return static_cast<int>(v < 1 ? 1 : (v > 256 ? 256 : v));
}

}  // namespace detail

// --- Consolidated runtime configuration ------------------------------------
//
// Every tuning knob used to be its own free function re-reading the
// environment; each new knob added another global. Config gathers the
// process-wide ones into one struct, seeded from the environment on first
// use of config() and test-overridable: either mutate config() fields
// directly, or setenv + reload_config(). Library code reads config() (one
// cached struct, no getenv on hot paths).
struct Config {
  double scale = 1.0;              // MVCC_SCALE
  int threads = 1;                 // MVCC_THREADS (floored at 1)
  long grain = 2048;               // MVCC_GRAIN (clamped to kGrainFloor)
  bool alloc_pooled = true;        // MVCC_ALLOC ("slab" | "malloc")
  std::size_t slab_bytes = 65536;  // MVCC_SLAB_BYTES
  int shards = 1;                  // MVCC_SHARDS (clamped to [1, 256])

  // Scales a base structure size by `scale`; never returns less than 1 for
  // a positive base, so the result is always a usable element count.
  long scaled(long base) const {
    const long v = static_cast<long>(static_cast<double>(base) * scale);
    return (base > 0 && v < 1) ? 1 : v;
  }

  static Config from_env() {
    Config c;
    c.scale = detail::parse_scale();
    c.threads = detail::parse_threads();
    c.grain = detail::parse_grain();
    c.alloc_pooled = detail::parse_alloc_pooled();
    c.slab_bytes = detail::parse_slab_bytes();
    c.shards = detail::parse_shards();
    return c;
  }
};

// The process-wide configuration, seeded from the environment on first
// call. Set overriding env vars before the first library use (or call
// reload_config()); note that some consumers resolve their policy once —
// e.g. the allocation route (alloc/pool.h) and bulk_grain (ftree/ops.h)
// latch at first use so a mid-run flip cannot mismatch allocate/free pairs.
inline Config& config() {
  static Config c = Config::from_env();
  return c;
}

// Re-seeds config() from the current environment (for tests that setenv).
inline void reload_config() { config() = Config::from_env(); }

}  // namespace mvcc
