// The process-wide tuning knobs, gathered into mvcc::Config below.
//
// The paper's harnesses are parameterised by machine scale; rather than a
// flag library we use a tiny set of env knobs so the same binary runs on a
// laptop (defaults) and on the paper's 72-core machine (MVCC_* overrides):
//
//   MVCC_SCALE    multiplier applied to structure sizes; non-positive or
//                 non-finite values mean the default          (default 1.0)
//   MVCC_THREADS  worker-thread count for batch/bulk ops, clamped to
//                 [1, kMaxThreadKnob]                          (default hw)
//   MVCC_GRAIN    fork-join grain of the bulk tree ops (ftree/ops.h); two
//                 grains of work move a commit's frees off the commit
//                 path (alloc/reclaim.h)                    (default 2048)
//   MVCC_SHARDS   when set, the one shard count the benches' sharded
//                 cells run (bench/bench_util.h's shard_sweep; unset, they
//                 sweep 1/2/4), clamped to [1, 256]            (default 1)
//
// The obs knobs (MVCC_STATS, MVCC_TRACE, MVCC_SAMPLE_MS, MVCC_SAMPLE_OUT)
// are listed in obs/obs.h; the bench-only ones (MVCC_SECONDS,
// MVCC_WARMUP_SECONDS, MVCC_READERS) in bench/bench_util.h.
#pragma once

#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

namespace mvcc {

// Parses all of `s` as a long; returns `def` when null, empty or malformed.
inline long parse_long(const char* s, long def) {
  if (s == nullptr || *s == '\0') return def;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  return (end == nullptr || *end != '\0') ? def : v;
}

// Reads a long from the environment; returns `def` when unset or malformed.
inline long env_long(const char* name, long def) {
  return parse_long(std::getenv(name), def);
}

// Reads a double from the environment; returns `def` when unset, malformed
// or not finite (nan, inf).
inline double env_double(const char* name, double def) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return def;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  return (end == nullptr || *end != '\0' || !std::isfinite(v)) ? def : v;
}

// Reads a string from the environment; returns `def` when unset.
inline std::string env_string(const char* name, const char* def = "") {
  const char* s = std::getenv(name);
  return std::string(s != nullptr ? s : def);
}

// Ceiling on any thread count read from the environment. A count is sized
// into vectors and narrowed to int, so an absurd or overflowing value must
// not reach vector::reserve, wrap, or ask exec/ for that many workers.
inline constexpr long kMaxThreadKnob = 1024;

// Smallest fork-join grain the bulk tree ops accept: below this, the spawn
// cost per subproblem exceeds the node-visit work by orders of magnitude
// and fork-join degrades into per-node task spam.
inline constexpr long kGrainFloor = 64;

namespace detail {

// A non-positive scale would size every structure to one element.
inline double parse_scale() {
  const double v = env_double("MVCC_SCALE", 1.0);
  return v > 0 ? v : 1.0;
}

// MVCC_GRAIN with the guard rails: non-positive or malformed values fall
// back to the default (a grain of 0 would fork single-node subproblems),
// and positive-but-absurd values clamp to kGrainFloor — silently accepting
// e.g. MVCC_GRAIN=1 used to turn every bulk op into spawn-bound sludge.
// The clamp logs once per process so a grain sweep that walked off the
// edge is visible rather than mysteriously flat.
inline long parse_grain() {
  const long v = env_long("MVCC_GRAIN", 2048);
  if (v <= 0) return 2048;
  if (v < kGrainFloor) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
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
  return static_cast<int>(std::clamp(v, 1L, kMaxThreadKnob));
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
  double scale = 1.0;  // MVCC_SCALE
  int threads = 1;     // MVCC_THREADS (clamped to [1, kMaxThreadKnob])
  long grain = 2048;   // MVCC_GRAIN (clamped to kGrainFloor)
  int shards = 1;      // MVCC_SHARDS (clamped to [1, 256])
  // Bytes per slab the alloc/ pool carves blocks from. Not a knob.
  static constexpr std::size_t slab_bytes = std::size_t{1} << 16;

  // Scales a base structure size by `scale`; never returns less than 1 for
  // a positive base, so the result is always a usable element count, and
  // saturates at LONG_MAX rather than casting an out-of-range double.
  long scaled(long base) const {
    const double d = static_cast<double>(base) * scale;
    // LONG_MAX rounds up to 2^63 as a double, the first value out of range.
    if (!(d < static_cast<double>(LONG_MAX))) return LONG_MAX;
    const long v = static_cast<long>(d);
    return (base > 0 && v < 1) ? 1 : v;
  }

  static Config from_env() {
    Config c;
    c.scale = detail::parse_scale();
    c.threads = detail::parse_threads();
    c.grain = detail::parse_grain();
    c.shards = detail::parse_shards();
    return c;
  }
};

// The process-wide configuration, seeded from the environment on first
// call. Set overriding env vars before the first library use (or call
// reload_config()); note that some consumers resolve their policy once —
// e.g. bulk_grain (ftree/ops.h) latches at first use.
inline Config& config() {
  static Config c = Config::from_env();
  return c;
}

// Re-seeds config() from the current environment (for tests that setenv).
inline void reload_config() { config() = Config::from_env(); }

}  // namespace mvcc
