// The one way txn/ and exec/ block on a condition: spin, then sleep on a
// 32-bit wake word, which libstdc++ 12 waits on with a futex at the word's
// own address, so a wake reaches only its sleepers. wake() follows every
// store that can make a waiter's done() true, and a sleeper reads the word
// before it evaluates done(), so no wake is lost.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "mvcc/common/timing.h"

namespace mvcc::exec {

class Parker {
 public:
  // Covers a small commit, so only longer waits pay the futex round trip
  // (28-36 us at p50 on a 4-vCPU x86-64 VM); 200 us measured no faster.
  static constexpr std::uint64_t kSpinWindowNs = 50'000;

  static void pause() { std::this_thread::yield(); }

  // Returns once done() holds: yields for spin_ns, re-checking done(), then
  // sleeps until a wake() makes it true. done() may do work (a pool worker
  // runs a task in it). Returns whether the wait outlasted the spin.
  template <class Done>
  bool wait(Done&& done, std::uint64_t spin_ns = kSpinWindowNs) const {
    if (done()) return false;  // before the clock: the common case
    for (Timer spin; spin.nanos() < spin_ns;) {
      pause();
      if (done()) return false;
    }
    for (;;) {
      const std::uint32_t seen = word_.load(std::memory_order_seq_cst);
      if (done()) return true;
      word_.wait(seen, std::memory_order_seq_cst);
    }
  }

  void wake() {
    word_.fetch_add(1, std::memory_order_seq_cst);
    word_.notify_all();
  }

 private:
  std::atomic<std::uint32_t> word_{0};
};

}  // namespace mvcc::exec
