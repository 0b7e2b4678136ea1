// exec/pool.h: fork-join correctness (nested forks, forks run by workers,
// exceptions), the exec/steals count, the background defer/quiesce lane,
// parked workers waking for new work, and clean shutdown with queued work.
// The fork-join ftree integration (bit-identical parallel bulk ops) is
// covered by test_ftree; this file exercises the pool itself.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mvcc/exec/pool.h"

namespace {

using namespace mvcc;

// Recursive fork-join sum of [lo, hi): every level forks, so a run over a
// wide range exercises nested forks, joiners running the newest fork, and
// workers taking the oldest.
std::uint64_t par_sum(exec::Pool& pool, std::uint64_t lo, std::uint64_t hi) {
  if (hi - lo <= 512) {
    std::uint64_t s = 0;
    for (std::uint64_t i = lo; i < hi; ++i) s += i;
    return s;
  }
  const std::uint64_t mid = lo + (hi - lo) / 2;
  auto [a, b] = pool.invoke2([&] { return par_sum(pool, lo, mid); },
                             [&] { return par_sum(pool, mid, hi); });
  return a + b;
}

constexpr std::uint64_t sum_formula(std::uint64_t n) {
  return n * (n - 1) / 2;
}

constexpr std::uint64_t kWindowUs = exec::Parker::kSpinWindowNs / 1000;

// Yields until `flag` is set or 30 s pass, and returns the flag. An fa that
// waits with it does not help, so only a worker can run its fork.
bool await_flag(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!flag.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  return flag.load(std::memory_order_acquire);
}

TEST(Exec, Invoke2ReturnsBothResultsInArgumentOrder) {
  exec::Pool pool(2);
  auto [a, b] = pool.invoke2([] { return 1; }, [] { return 2; });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Exec, NestedForksComputeTheSequentialAnswer) {
  exec::Pool pool(3);
  EXPECT_EQ(par_sum(pool, 0, 1 << 17), sum_formula(1 << 17));
}

TEST(Exec, WorkerStealsAnInjectedFork) {
  // fa deliberately does NOT help (it only watches the flag), so the fork
  // can complete only if the pool's worker takes it from the fork deque —
  // a deterministic cross-thread-execution check. The worker runs a
  // deferred task first, so it has started, and is then let park well past
  // the spin window, so the fork must wake it.
  exec::Pool pool(1);
  std::atomic<bool> started{false};
  pool.defer([&] { started.store(true, std::memory_order_release); });
  ASSERT_TRUE(await_flag(started));
  std::this_thread::sleep_for(std::chrono::microseconds(20 * kWindowUs));
  std::atomic<bool> fb_ran{false};
  auto [a, b] = pool.invoke2([&] { return await_flag(fb_ran) ? 1 : 0; },
                             [&] {
                               fb_ran.store(true, std::memory_order_release);
                               return 2;
                             });
  EXPECT_EQ(a, 1) << "the worker never ran the fork";
  EXPECT_EQ(b, 2);
}

// exec/steals, which perfbench's exec.steals_per_batch reads, counts the
// forks a thread other than their joiner ran.
TEST(Exec, StealsCountOnlyForksAnotherThreadRan) {
  obs::set_enabled(true);
  exec::Pool pool(1);
  const auto steals = [] { return exec::exec_steals().value(); };

  // The worker runs the fork while fa waits for it.
  std::uint64_t before = steals();
  std::atomic<bool> fb_ran{false};
  auto [a, b] = pool.invoke2([&] { return await_flag(fb_ran) ? 1 : 0; },
                             [&] {
                               fb_ran.store(true, std::memory_order_release);
                               return 2;
                             });
  EXPECT_EQ(a + b, 3);
  EXPECT_EQ(steals() - before, 1u);

  // The worker is held in a deferred task, so the joiner runs its own fork.
  std::atomic<bool> busy{false};
  std::atomic<bool> release{false};
  pool.defer([&] {
    busy.store(true, std::memory_order_release);
    await_flag(release);
  });
  ASSERT_TRUE(await_flag(busy));
  before = steals();
  auto [c, d] = pool.invoke2([] { return 3; }, [] { return 4; });
  EXPECT_EQ(c + d, 7);
  EXPECT_EQ(steals() - before, 0u);
  release.store(true, std::memory_order_release);
  pool.quiesce();
  obs::set_enabled(false);
}

TEST(ExecStress, ForkJoinFromManyExternalThreadsUnderContention) {
  exec::Pool pool(2);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kSpan = 1 << 15;
  std::vector<std::uint64_t> sums(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &sums, t] {
      const std::uint64_t lo = static_cast<std::uint64_t>(t) * kSpan;
      sums[static_cast<std::size_t>(t)] = par_sum(pool, lo, lo + kSpan);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    const std::uint64_t lo = static_cast<std::uint64_t>(t) * kSpan;
    EXPECT_EQ(sums[static_cast<std::size_t>(t)],
              sum_formula(lo + kSpan) - sum_formula(lo));
  }
}

TEST(Exec, ExceptionFromForkedSidePropagates) {
  exec::Pool pool(2);
  EXPECT_THROW(pool.invoke2([] { return 1; },
                            []() -> int { throw std::runtime_error("fb"); }),
               std::runtime_error);
}

TEST(Exec, ExceptionFromInlineSidePropagatesAfterForkCompletes) {
  exec::Pool pool(2);
  std::atomic<bool> fb_ran{false};
  EXPECT_THROW(pool.invoke2(
                   [&]() -> int { throw std::runtime_error("fa"); },
                   [&] {
                     fb_ran.store(true);
                     return 2;
                   }),
               std::runtime_error);
  // The fork lived on the joiner's stack; the throw path must have joined
  // it before unwinding.
  EXPECT_TRUE(fb_ran.load());
}

TEST(Exec, DeferRunsInBackgroundAndQuiesceDrains) {
  exec::Pool pool(1);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.defer([&ran] { ran.fetch_add(1); });
  }
  pool.quiesce();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(pool.deferred_pending(), 0);
}

TEST(Exec, QuiesceWaitsForTasksDeferredByDeferredTasks) {
  exec::Pool pool(1);
  std::atomic<int> ran{0};
  pool.defer([&pool, &ran] {
    ran.fetch_add(1);
    pool.defer([&ran] { ran.fetch_add(1); });
  });
  pool.quiesce();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(pool.deferred_pending(), 0);
}

TEST(Exec, ForegroundHasPriorityOverDeferredWork) {
  // With the background lane backed up, fork-join work still completes
  // promptly and correctly (workers run foreground first).
  exec::Pool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.defer([&ran] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ran.fetch_add(1);
    });
  }
  EXPECT_EQ(par_sum(pool, 0, 1 << 14), sum_formula(1 << 14));
  pool.quiesce();
  EXPECT_EQ(ran.load(), 64);
}

TEST(Exec, ShutdownDrainsQueuedDeferredTasks) {
  std::atomic<int> ran{0};
  {
    exec::Pool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.defer([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1);
      });
    }
    // No quiesce: ~Pool itself must drain the backed-up lane.
  }
  EXPECT_EQ(ran.load(), 50);
}

// A worker that has outlasted the spin window sleeps with no timeout, so a
// defer that fails to wake it leaves the task queued forever. Each round
// lets the one worker park, defers a task, and waits for it from a thread
// that runs no tasks itself. The park delay sweeps one to three spin
// windows, so some defers land as the worker goes from spinning to
// sleeping. A lost wake-up fails the run at a deadline (the pool and its
// task are leaked, not joined) instead of hanging the suite.
TEST(Exec, ParkedWorkersWakeForDeferredWork) {
  constexpr int kRounds = 1000;
  constexpr auto kDeadline = std::chrono::seconds(10);
  struct Run {
    exec::Pool pool{1};
    std::atomic<bool> ran{false};
  };
  auto* run = new Run;
  for (int i = 0; i < kRounds; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        kWindowUs + static_cast<std::uint64_t>(i) % (2 * kWindowUs)));
    run->ran.store(false, std::memory_order_relaxed);
    run->pool.defer([run] { run->ran.store(true, std::memory_order_release); });
    const auto deadline = std::chrono::steady_clock::now() + kDeadline;
    while (!run->ran.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (!run->ran.load(std::memory_order_acquire)) {
      FAIL() << "round " << i << ": a parked worker never ran its task";
    }
  }
  run->pool.quiesce();
  delete run;
}

TEST(Exec, NonPositiveWorkerCountClampsToOne) {
  exec::Pool pool(0);
  EXPECT_GE(pool.workers(), 1);
  auto [a, b] = pool.invoke2([] { return 3; }, [] { return 4; });
  EXPECT_EQ(a + b, 7);
}

TEST(ExecStress, MixedForkJoinAndDeferAcrossThreads) {
  exec::Pool pool(2);
  std::atomic<std::uint64_t> deferred_ran{0};
  constexpr int kThreads = 3;
  constexpr int kRounds = 8;
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        pool.defer([&deferred_ran] { deferred_ran.fetch_add(1); });
        if (par_sum(pool, 0, 1 << 13) != sum_formula(1 << 13)) {
          ok.store(false);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_TRUE(ok.load());
  pool.quiesce();
  EXPECT_EQ(deferred_ran.load(), kThreads * kRounds);
}

TEST(Exec, GlobalInstanceIsASingleton) {
  exec::Pool& a = exec::Pool::instance();
  exec::Pool& b = exec::Pool::instance();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.workers(), 1);
}

}  // namespace
