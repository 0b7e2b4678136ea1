// Shared work-stealing task pool: the execution substrate for the bulk
// tree operations' fork-join parallelism (ftree/ops.h) and for
// off-critical-path precise reclamation (alloc/reclaim.h). One
// process-wide set of workers (sized by MVCC_THREADS) serves two lanes:
//
//   * FOREGROUND (fork-join): invoke2(fa, fb) forks fb as a stack-allocated
//     task onto the caller's deque, runs fa inline, then JOINS by helping —
//     popping its own deque (LIFO) or stealing — until fb's done flag is
//     set. The caller is always one of the computation's workers, so a pool
//     of W threads gives MVCC_THREADS = W+1 way parallelism, and a pool
//     that failed to spawn any thread still completes every invoke2 (the
//     caller self-executes), centralizing the old per-site fallbacks.
//   * BACKGROUND (defer/quiesce): defer(fn) queues work workers run only
//     when the foreground is empty; quiesce() helps drain and blocks until
//     every deferred task has COMPLETED. alloc/reclaim.h publishes a large
//     commit's exact freed set here, so the commit returns before its
//     destructors run.
//
// Deque design: per-worker mutex-guarded deques — owner pushes and pops at
// the back (LIFO, the fork-join locality order), thieves take HALF from the
// front (FIFO, the oldest and therefore biggest subproblems), parking the
// extras on their own deque. A lock-free Chase–Lev deque does not extend
// soundly to steal-half (the owner's uncontended pop takes non-top elements
// without a CAS, so a thief CASing top across k elements can claim one the
// owner also took); a mutex makes the take-k atomic, and every task is a
// >= bulk-grain (thousands of node visits) subproblem or a whole reclaim
// batch, so the lock is amortized to noise. External threads (the
// flattener, bench drivers) fork through a shared inject queue and join by
// helping from it, so any thread may call invoke2.
//
// Waiting (exec::Parker, park.h): idle workers sleep on `work_` with no
// timeout, so an idle pool costs no CPU; new work wakes it. Joiners and
// quiesce help until nothing is left to steal or run, then sleep on
// `finished_`, which a completed fork or the lane's last task wakes.
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
#include <memory>
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
//   exec/steals   tasks that migrated off the deque they were pushed to
inline obs::Counter& exec_tasks() {
  static obs::Counter& c = obs::registry().counter("exec/tasks");
  return c;
}

inline obs::Counter& exec_steals() {
  static obs::Counter& c = obs::registry().counter("exec/steals");
  return c;
}

class Pool;

namespace detail {
// Worker identity: which pool (if any) owns the current thread, and its
// deque index there. Non-worker threads keep {nullptr, -1} and go through
// the inject queue.
inline thread_local Pool* tl_pool = nullptr;
inline thread_local int tl_id = -1;
}  // namespace detail

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
    deques_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) deques_.push_back(std::make_unique<Deque>());
    threads_.reserve(static_cast<std::size_t>(n));
    try {
      for (int i = 0; i < n; ++i) {
        threads_.emplace_back([this, i] { worker_loop(i); });
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

  // The process-wide pool if instance() has ever run, else nullptr — so
  // quiesce paths need not create a pool just to find nothing to drain.
  static Pool* instance_if_created();

  // Worker threads actually running (may be below the requested count
  // under thread exhaustion; the pool still functions).
  int workers() const { return static_cast<int>(threads_.size()); }

  // Fork-join: runs fa() on the calling thread and fb() potentially on a
  // worker, returning {fa(), fb()}. The caller helps execute queued forks
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
      // The fork frame lives on this stack: it must finish (here or on a
      // thief) before unwinding can destroy it.
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
      std::lock_guard<std::mutex> lock(bg_mu_);
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

  struct Deque {
    std::mutex mu;
    std::deque<Task*> q;
  };

  void worker_loop(int id) {
    detail::tl_pool = this;
    detail::tl_id = id;
    for (;;) {
      bool ran = false;
      work_.wait([&] {
        ran = run_one(id);
        return ran || stop_.load(std::memory_order_acquire);
      });
      // Both lanes empty on stop is the exit condition (any fork still
      // queued belongs to a joiner that self-executes).
      if (!ran) return;
    }
  }

  // Runs one task: a fork if next_fork finds one, else a deferred one.
  // False when both lanes were empty.
  bool run_one(int id) {
    Task* t = next_fork(id);
    if (t == nullptr) return run_one_deferred();
    run_task(t);
    return true;
  }

  // The newest fork on worker id's own deque (the inject queue for an
  // external thread, id -1: most likely its own fork), else a stolen one.
  Task* next_fork(int id) {
    Task* t = pop_back(id >= 0 ? *deques_[static_cast<std::size_t>(id)]
                               : inject_);
    return t != nullptr ? t : try_steal(id);
  }

  void run_task(Task* t) {
    t->execute();
    // `t` may be a stack frame its joiner is already destroying — done.
    finished_.wake();
    if (obs::enabled()) exec_tasks().add();
  }

  bool run_one_deferred() {
    std::function<void()> t;
    {
      std::lock_guard<std::mutex> lock(bg_mu_);
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
    if (detail::tl_pool == this) {
      Deque& d = *deques_[static_cast<std::size_t>(detail::tl_id)];
      std::lock_guard<std::mutex> lock(d.mu);
      d.q.push_back(t);
    } else {
      std::lock_guard<std::mutex> lock(inject_.mu);
      inject_.q.push_back(t);
    }
    work_.wake();
  }

  // Joins a fork by helping: runs own-deque tasks (LIFO — our fork or an
  // ancestor's, both useful) or stolen ones until the fork's done flag is
  // set, and parks once there is nothing left to run while a thief
  // finishes it.
  void join_fork(Task& fork) {
    const int id = detail::tl_pool == this ? detail::tl_id : -1;
    finished_.wait([&] {
      while (!fork.done.load(std::memory_order_acquire)) {
        Task* t = next_fork(id);
        if (t == nullptr) return false;
        run_task(t);
      }
      return true;
    });
  }

  static Task* pop_back(Deque& d) {
    std::lock_guard<std::mutex> lock(d.mu);
    if (d.q.empty()) return nullptr;
    Task* t = d.q.back();
    d.q.pop_back();
    return t;
  }

  // Steals from the front of some victim (worker deques + the inject
  // queue). A worker thief takes half the victim's queue, parking the
  // extras on its own deque (where peers can re-steal them); an external
  // thief has no deque and takes one.
  Task* try_steal(int self) {
    const int n = static_cast<int>(deques_.size());
    const unsigned start = steal_cursor_.fetch_add(1, std::memory_order_relaxed);
    Task* first = nullptr;
    std::vector<Task*> extra;
    for (int i = 0; i <= n && first == nullptr; ++i) {
      const int v = static_cast<int>((start + static_cast<unsigned>(i)) %
                                     static_cast<unsigned>(n + 1));
      if (v == self) continue;
      Deque& d = v == n ? inject_ : *deques_[static_cast<std::size_t>(v)];
      std::lock_guard<std::mutex> lock(d.mu);
      if (d.q.empty()) continue;
      const std::size_t take = self >= 0 ? (d.q.size() + 1) / 2 : 1;
      first = d.q.front();
      d.q.pop_front();
      for (std::size_t k = 1; k < take; ++k) {
        extra.push_back(d.q.front());
        d.q.pop_front();
      }
    }
    if (first != nullptr && !extra.empty()) {
      {
        Deque& own = *deques_[static_cast<std::size_t>(self)];
        std::lock_guard<std::mutex> lock(own.mu);
        for (Task* t : extra) own.q.push_back(t);
      }
      work_.wake();
    }
    if (first != nullptr && obs::enabled()) {
      exec_steals().add(1 + static_cast<std::uint64_t>(extra.size()));
    }
    return first;
  }

  std::vector<std::unique_ptr<Deque>> deques_;
  Deque inject_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<unsigned> steal_cursor_{0};
  // Idle workers sleep on work_; joiners and quiesce on finished_ (see the
  // header), so a finished fork does not rouse the idle workers.
  Parker work_;
  Parker finished_;
  std::mutex bg_mu_;
  std::deque<std::function<void()>> bg_;
  std::atomic<std::int64_t> bg_pending_{0};
};

namespace detail {
inline std::atomic<Pool*> g_pool{nullptr};

// Wraps the singleton so the published pointer is set after construction
// completes and cleared before destruction begins — instance_if_created()
// never observes a half-built or dying pool.
struct GlobalPool {
  Pool pool{Pool::default_workers()};
  GlobalPool() { g_pool.store(&pool, std::memory_order_release); }
  ~GlobalPool() { g_pool.store(nullptr, std::memory_order_release); }
};
}  // namespace detail

inline Pool& Pool::instance() {
  static detail::GlobalPool g;
  return g.pool;
}

inline Pool* Pool::instance_if_created() {
  return detail::g_pool.load(std::memory_order_acquire);
}

// Fork-join on the process-wide pool: {fa(), fb()} with fb potentially on
// a worker. See Pool::invoke2.
template <class FA, class FB>
auto invoke2(FA&& fa, FB&& fb) {
  return Pool::instance().invoke2(std::forward<FA>(fa), std::forward<FB>(fb));
}

// Drains the process-wide pool's background lane if the pool exists;
// trivially quiescent otherwise.
inline void quiesce_deferred() {
  if (Pool* p = Pool::instance_if_created()) p->quiesce();
}

}  // namespace mvcc::exec
