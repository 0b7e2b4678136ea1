// Wall-clock timing for the experiment harnesses.
#pragma once

#include <chrono>
#include <cstdint>

namespace mvcc {

// Steady-clock stopwatch: starts at construction, `seconds()` /
// `nanos()` read the elapsed time without stopping, `reset()` restarts it.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  // Integer nanoseconds, for latency sampling into atomic accumulators.
  std::uint64_t nanos() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

  void reset() { start_ = Clock::now(); }

  // Nanoseconds since construction or the previous lap, restarting the
  // clock there: consecutive laps tile the elapsed time without gaps.
  std::uint64_t lap() {
    const Clock::time_point now = Clock::now();
    const auto d = now - start_;
    start_ = now;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mvcc
