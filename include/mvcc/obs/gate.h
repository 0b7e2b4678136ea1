// The one on/off switch of the obs/ layer, shared by obs.h (metrics) and
// trace.h (event tracer).
//
// detail::gate_env() reads MVCC_STATS and MVCC_TRACE once per process into
// one word of bits: kStats when MVCC_STATS is a non-zero integer (metrics,
// probes, sampler), plus kTrace when MVCC_TRACE also names an output file
// (the event tracer). Unset means off. enabled() and trace_on() are one
// relaxed load of a constant-initialized atomic and one bit test, so a
// disabled instrumentation site costs a predicted-untaken branch.
// set_enabled() and set_trace_enabled() flip one bit each, for tests that
// must turn collection on without re-exec'ing under a new environment.
#pragma once

#include <atomic>
#include <cstdlib>
#include <string>

#include "mvcc/common/env.h"

namespace mvcc::obs {

namespace detail {

inline constexpr int kStats = 1;
inline constexpr int kTrace = 2;

// The gate bits for raw MVCC_STATS / MVCC_TRACE values (nullptr = unset).
inline int gate_bits(const char* stats, const char* trace) {
  if (parse_long(stats, 0) == 0) return 0;
  return (trace != nullptr && *trace != '\0') ? kStats | kTrace : kStats;
}

struct GateEnv {
  int bits;
  std::string trace_path;
};

// The only reader of MVCC_STATS and MVCC_TRACE.
inline const GateEnv& gate_env() {
  static const GateEnv env = [] {
    const char* trace = std::getenv("MVCC_TRACE");
    return GateEnv{gate_bits(std::getenv("MVCC_STATS"), trace),
                   trace != nullptr ? trace : ""};
  }();
  return env;
}

// The resolved bits; -1 (every bit set) until the first resolve(), so any
// bit test sends the first call down the resolving path.
inline constinit std::atomic<int> g_gate{-1};

// Out of line and cold, so the instrumentation sites inline only the test.
[[gnu::cold, gnu::noinline]] inline int resolve() {
  const int v = gate_env().bits;
  g_gate.store(v, std::memory_order_relaxed);
  return v;
}

inline bool gate_bit(int bit) {
  const int v = g_gate.load(std::memory_order_relaxed);
  if ((v & bit) == 0) return false;
  return v >= 0 || (resolve() & bit) != 0;
}

// Resolves first, so a later first read cannot undo the flip. Tests only.
inline void set_gate_bit(int bit, bool on) {
  int v = g_gate.load(std::memory_order_relaxed);
  if (v < 0) v = resolve();
  g_gate.store(on ? v | bit : v & ~bit, std::memory_order_relaxed);
}

}  // namespace detail

inline bool enabled() { return detail::gate_bit(detail::kStats); }
inline bool trace_on() { return detail::gate_bit(detail::kTrace); }
inline void set_enabled(bool on) { detail::set_gate_bit(detail::kStats, on); }
inline void set_trace_enabled(bool on) {
  detail::set_gate_bit(detail::kTrace, on);
}

// The MVCC_TRACE environment value (output path; empty = tracing off).
inline const std::string& trace_path() { return detail::gate_env().trace_path; }

}  // namespace mvcc::obs
