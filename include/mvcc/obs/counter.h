// Lock-free striped counter for hot-path event counting.
//
// Increments land in one of kCells cache-line-padded cells selected by a
// per-thread slot, so concurrent writers from different threads touch
// different cache lines and an increment is a single relaxed fetch_add —
// no CAS loop, no sharing. Reads sum the cells; under concurrent writers
// the sum is a linearizable-enough snapshot for telemetry (every increment
// that happened-before the read is included), and at quiescence it is
// exact — the property the Obs tests assert under TSan.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace mvcc::obs {

// Process-wide dense thread slot: the first call from each thread claims
// the next index. Used to stripe counters (and nothing else), so wraparound
// of the modulo into a shared cell is a performance detail, not a bug.
inline std::size_t thread_slot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) {
    cells_[thread_slot() & (kCells - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  static constexpr std::size_t kCells = 32;
  static_assert((kCells & (kCells - 1)) == 0, "kCells must be a power of 2");

  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };

  Cell cells_[kCells];
};

// Snapshot/delta helper for steady-state measurement windows: captures a
// monotone source's value at construction, delta() re-reads it. The source
// is any callable returning uint64 — a BatchingMap accessor, a sum over
// per-thread op counts — so benches stop hand-rolling "value at measure
// start" subtractions.
template <class F>
class Delta {
 public:
  explicit Delta(F f) : f_(std::move(f)), base_(f_()) {}

  // Growth of the source since construction.
  std::uint64_t delta() const { return f_() - base_; }

 private:
  F f_;
  std::uint64_t base_;
};

template <class F>
Delta(F) -> Delta<F>;

}  // namespace mvcc::obs
