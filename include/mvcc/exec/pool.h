// Shared task pool: the execution substrate for the bulk tree operations'
// fork-join parallelism (ftree/ops.h) and for off-critical-path precise
// reclamation (alloc/reclaim.h). One process-wide set of workers (sized by
// MVCC_THREADS) serves two lanes:
//
//   * FOREGROUND (fork-join): invoke2(fa, fb) appends fb, as a
//     stack-allocated task, to the pool's one fork deque, runs fa inline,
//     then JOINS by helping — running forks from the back of the deque
//     (the newest, usually its own) — until fb's done flag is set. Any
//     thread may call invoke2, and the caller is one of the computation's
//     workers, so a pool of W threads gives MVCC_THREADS = W+1 way
//     parallelism; a pool that failed to spawn any thread still completes
//     every invoke2 (the caller self-executes).
//   * BACKGROUND (defer/quiesce): defer(fn) queues work workers run only
//     when no fork is queued; quiesce() helps drain and blocks until every
//     deferred task has COMPLETED. alloc/reclaim.h publishes a large
//     commit's exact freed set here, so the commit returns before its
//     destructors run.
//
// One deque, one mutex for both lanes: the bulk ops halve their worker
// budget at every fork, so one op forks at most MVCC_THREADS - 1 times, and
// every fork is a >= bulk-grain (thousands of node visits) subproblem, so
// neither per-worker deques nor stealing pay for themselves. An idle worker
// takes the front fork (the oldest, and so the biggest), else the oldest
// deferred task.
//
// Waiting (exec::Parker, park.h): idle workers sleep on `work_` with no
// timeout, so an idle pool costs no CPU; new work wakes it. Joiners and
// quiesce help until nothing is left to run, then sleep on `finished_`,
// which a completed fork or the lane's last task wakes.
//
// Lifetime: Pool::instance() is a lazy singleton torn down at static
// destruction; its constructor touches the obs registry/tracer singletons
// first so they are destroyed after the workers are joined. Shutdown
// drains the background lane (workers run every queued deferred task
// before exiting; the destructor self-drains stragglers), so deferred
// reclamation can never leak at process exit. invoke2 must not be in
// flight across ~Pool (joiners self-execute, so this only requires not
// destroying the pool mid-computation).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "mvcc/common/env.h"
#include "mvcc/exec/park.h"
#include "mvcc/obs/obs.h"

namespace mvcc::exec {

// Process-wide executor telemetry (obs registry handles, touched only
// under obs::enabled()):
//
//   exec/tasks    tasks executed by the pool (forks + deferred batches)
//   exec/steals   forks run by a thread other than their joiner
inline obs::Counter& exec_tasks() {
  static obs::Counter& c = obs::registry().counter("exec/tasks");
  return c;
}

inline obs::Counter& exec_steals() {
  static obs::Counter& c = obs::registry().counter("exec/steals");
  return c;
}

class Pool {
 public:
  // Workers for the process-wide pool: MVCC_THREADS minus the caller
  // (invoke2's caller participates in the fork-join, so total concurrency
  // is workers + 1), floored at 1 so the background lane always has a
  // consumer.
  static int default_workers() { return std::max(1, config().threads - 1); }

  explicit Pool(int workers) {
    const int n = std::max(1, workers);
    // Touch the process-lifetime singletons the workers use so static
    // destruction runs them AFTER ~Pool has joined the threads.
    (void)obs::registry();
    (void)obs::Tracer::instance();
    (void)obs::trace_now_ns();
    if (obs::enabled()) {
      (void)exec_tasks();
      (void)exec_steals();
    }
    threads_.reserve(static_cast<std::size_t>(n));
    try {
      for (int i = 0; i < n; ++i) {
        threads_.emplace_back([this] { worker_loop(); });
      }
    } catch (const std::system_error&) {
      // Thread limits: run with however many workers actually started.
      // Even zero works — invoke2 callers and quiesce self-execute.
    }
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  ~Pool() {
    stop_.store(true, std::memory_order_release);
    work_.wake();
    for (std::thread& t : threads_) t.join();
    // Workers drained the lanes before exiting; self-drain anything
    // deferred in the teardown window.
    while (run_one_deferred()) {
    }
  }

  // The process-wide pool, created on first use and sized default_workers().
  static Pool& instance();

  // Worker threads actually running (may be below the requested count
  // under thread exhaustion; the pool still functions).
  int workers() const { return static_cast<int>(threads_.size()); }

  // Fork-join: runs fa() on the calling thread and fb() potentially on
  // another, returning {fa(), fb()}. The caller helps execute queued forks
  // while it waits, so nesting invoke2 to any depth cannot deadlock: every
  // blocked joiner is running tasks. An exception from either side
  // propagates after both completed (fa's wins if both throw); the other
  // side's result is destroyed, which for raw owning pointers means the
  // same leak-on-OOM the std::async path had.
  template <class FA, class FB>
  auto invoke2(FA&& fa, FB&& fb)
      -> std::pair<std::invoke_result_t<FA&>, std::invoke_result_t<FB&>> {
    using RA = std::invoke_result_t<FA&>;
    using RB = std::invoke_result_t<FB&>;
    static_assert(!std::is_void_v<RA> && !std::is_void_v<RB>,
                  "invoke2 requires value-returning callables");
    ForkTaskImpl<std::decay_t<FB>, RB> fork(std::forward<FB>(fb));
    push_fork(&fork);
    std::optional<RA> ra;
    try {
      ra.emplace(fa());
    } catch (...) {
      // The fork frame lives on this stack: it must finish (here or on
      // another thread) before unwinding can destroy it.
      join_fork(fork);
      throw;
    }
    join_fork(fork);
    if (fork.error) std::rethrow_exception(fork.error);
    return {std::move(*ra), std::move(*fork.result)};
  }

  // Background lane: fn() runs on a worker once the foreground is empty.
  // fn must be copyable (the lane holds std::function), must not throw (a
  // throw is swallowed, not propagated) and must not call quiesce (a
  // deferred task waiting on the lane it occupies can self-deadlock);
  // deferring more work from a deferred task is fine.
  template <class F>
  void defer(F&& fn) {
    bg_pending_.fetch_add(1, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(mu_);
      bg_.emplace_back(std::forward<F>(fn));
    }
    work_.wake();
  }

  // Blocks until every task deferred so far has COMPLETED (not merely been
  // dequeued), helping run them from the calling thread. Callable from any
  // thread except a deferred task itself.
  void quiesce() {
    finished_.wait([this] {
      while (run_one_deferred()) {
      }
      return bg_pending_.load(std::memory_order_acquire) == 0;
    });
  }

  // Deferred tasks queued or running. 0 means the background lane is dry.
  std::int64_t deferred_pending() const {
    return bg_pending_.load(std::memory_order_acquire);
  }

 private:
  // A fork, on its joiner's stack, so never deleted through the base.
  struct Task {
    virtual void execute() = 0;
    std::exception_ptr error;
    std::atomic<bool> done{false};
    const std::thread::id joiner = std::this_thread::get_id();  // exec/steals

   protected:
    ~Task() = default;
  };

  template <class FB, class RB>
  struct ForkTaskImpl final : Task {
    explicit ForkTaskImpl(FB f) : fn(std::move(f)) {}
    FB fn;
    std::optional<RB> result;
    void execute() override {
      try {
        result.emplace(fn());
      } catch (...) {
        this->error = std::current_exception();
      }
      this->done.store(true, std::memory_order_release);
    }
  };

  void worker_loop() {
    for (;;) {
      bool ran = false;
      work_.wait([&] {
        ran = run_one();
        return ran || stop_.load(std::memory_order_acquire);
      });
      // Both lanes empty on stop is the exit condition (any fork still
      // queued belongs to a joiner that self-executes).
      if (!ran) return;
    }
  }

  // Runs one task: the oldest fork, else the oldest deferred task. False
  // when both lanes were empty.
  bool run_one() {
    Task* t = take_fork(/*newest=*/false);
    if (t == nullptr) return run_one_deferred();
    run_task(t);
    return true;
  }

  Task* take_fork(bool newest) {
    std::lock_guard<std::mutex> lock(mu_);
    if (forks_.empty()) return nullptr;
    Task* t = newest ? forks_.back() : forks_.front();
    if (newest) {
      forks_.pop_back();
    } else {
      forks_.pop_front();
    }
    return t;
  }

  // Counts before it runs, so a joiner that sees the fork done sees it
  // counted.
  void run_task(Task* t) {
    if (obs::enabled()) {
      exec_tasks().add();
      if (t->joiner != std::this_thread::get_id()) exec_steals().add();
    }
    t->execute();
    // `t` may be a stack frame its joiner is already destroying — done.
    finished_.wake();
  }

  bool run_one_deferred() {
    std::function<void()> t;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (bg_.empty()) return false;
      t = std::move(bg_.front());
      bg_.pop_front();
    }
    try {
      t();
    } catch (...) {
      // Deferred tasks are fire-and-forget; nothing to rethrow into.
    }
    if (obs::enabled()) exec_tasks().add();
    if (bg_pending_.fetch_sub(1, std::memory_order_release) == 1) {
      finished_.wake();
    }
    return true;
  }

  void push_fork(Task* t) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      forks_.push_back(t);
    }
    work_.wake();
  }

  // Joins a fork by helping: runs the newest queued fork (its own, or one
  // a nested or concurrent invoke2 pushed since) until the fork's done flag
  // is set, and parks once nothing is queued while another thread finishes
  // it.
  void join_fork(Task& fork) {
    finished_.wait([&] {
      while (!fork.done.load(std::memory_order_acquire)) {
        Task* t = take_fork(/*newest=*/true);
        if (t == nullptr) return false;
        run_task(t);
      }
      return true;
    });
  }

  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  // Idle workers sleep on work_; joiners and quiesce on finished_ (see the
  // header), so a finished fork does not rouse the idle workers.
  Parker work_;
  Parker finished_;
  std::mutex mu_;  // guards both lanes
  std::deque<Task*> forks_;
  std::deque<std::function<void()>> bg_;
  std::atomic<std::int64_t> bg_pending_{0};
};

inline Pool& Pool::instance() {
  static Pool pool{Pool::default_workers()};
  return pool;
}

// Fork-join on the process-wide pool: {fa(), fb()} with fb potentially on
// a worker. See Pool::invoke2.
template <class FA, class FB>
auto invoke2(FA&& fa, FB&& fb) {
  return Pool::instance().invoke2(std::forward<FA>(fa), std::forward<FB>(fb));
}

}  // namespace mvcc::exec
