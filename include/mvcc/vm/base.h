// The Version Maintenance (VM) problem, Section 3 of the paper.
//
// A versioned object has one current version and up to P processes that
// read it. The VM interface every algorithm in vm/ implements:
//
//   T* acquire(p)        pin and return the current version for process p.
//   set(p, next)         publish `next` as the current version (single
//                        writer at a time; concurrent set calls must be
//                        serialized externally, acquire/release are fully
//                        concurrent). Returns the payloads this call proved
//                        unreachable — the caller owns them and may free.
//   release(p)           unpin p's version; returns newly unreachable
//                        payloads, exactly like set.
//   shutdown_drain()     at quiescence (no concurrent ops, everything
//                        released): returns every payload the manager still
//                        tracks — superseded-but-unfreed versions plus the
//                        current one — leaving the manager empty.
//
// Payloads are CLIENT-OWNED: a manager never dereferences or deletes a T,
// it only hands back pointers whose versions no process can reach. The
// protocol per process is acquire -> [set]* -> release; set requires the
// caller to have acquired (its own pin is handled like any reader's).
//
// Live-version accounting: `live_versions()` counts versions that have
// been superseded by a set but whose payload has not yet been returned to
// the client; `max_live_versions()` is the high-water mark. This is the
// "number of uncollected versions" the paper bounds (Theorem 3.4) and what
// Figure 6 / Table 2 plot: RCU pins it at 1, HP at 2P, PSWF/PSLF at O(P),
// EP is unbounded under a stalled reader.
//
// This header also provides BaseVersionManager, the no-reclamation
// baseline from Table 2: set parks every superseded version on a leak
// list, so readers need no protection at all (nothing is ever freed before
// shutdown). It is the throughput upper bound the real algorithms are
// measured against.
#pragma once

#include <atomic>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <utility>
#include <vector>

#include "mvcc/obs/obs.h"

namespace mvcc::vm {

// Process-wide vm/ telemetry (obs registry handles, touched only under
// obs::enabled()):
//
//   vm/live_versions_hwm   max superseded-but-unfreed versions any single
//                          manager reached — the Theorem 3.4 bound as a
//                          number
//   vm/versions_retired    versions superseded by a set, across managers
inline obs::Gauge& vm_live_versions_hwm() {
  static obs::Gauge& g = obs::registry().gauge("vm/live_versions_hwm");
  return g;
}

inline obs::Counter& vm_versions_retired() {
  static obs::Counter& c = obs::registry().counter("vm/versions_retired");
  return c;
}

// Current superseded-but-unfreed versions, summed across every live
// manager — the instantaneous value whose maximum the hwm gauge keeps.
// Maintained unconditionally (one relaxed add per version retirement,
// nowhere near a hot path) so the sampler can plot the paper's
// uncollected-version curve over time.
inline std::atomic<std::int64_t> g_live_versions{0};

// Registers the live-version probe with the obs sampler. Idempotent;
// called by the bench glue before the sampler starts.
inline void register_vm_probes() {
  obs::Sampler::instance().register_probe("vm/live_versions", [] {
    return g_live_versions.load(std::memory_order_relaxed);
  });
}

// Where a client frees the payloads a manager returns is the client's
// choice (alloc/reclaim.h); this stays only for perfbench/client.cpp, which
// reports it in its config line.
constexpr bool bg_reclaim_enabled() { return true; }

// --- Cross-manager version vectors ---------------------------------------
//
// A sharded client owns N independent managers — one per shard, each under
// its own single-writer contract — and needs a snapshot that is mutually
// consistent ACROSS them: a version vector no cross-shard commit is torn
// through. A single manager's acquire cannot provide that (each pin is
// individually consistent but the vector is assembled over a window other
// shards keep committing through), so the client publishes a validation
// token — typically a seqlock epoch its cross-shard commits straddle — and
// acquire_version_vector runs the validate-retry pass:
//
//   1. read the token (the callback must not return while a cross-shard
//      commit is in flight, e.g. spin while the epoch is odd),
//   2. pin every shard through its manager's own acquire path,
//   3. re-read the token; a change means a cross-shard commit overlapped
//      the pins — drop them (Snap destructors release) and retry.
//
// The pins themselves use whichever vm/ algorithm the shards run (PSWF's
// bounded-delay acquire keeps each attempt wait-free), so the loop is
// lock-free overall: it only retries while writers make commit progress.
// `max_retries` bounds the pass for callers that want to fall back to
// serializing behind the committers (txn/sharded.h takes its multi-commit
// mutex then); on exhaustion the vector returned is empty. `retries`, when
// non-null, accumulates the failed passes for the caller's telemetry
// (sharded/snapshot_retries).
template <class Snap, class TokenFn, class PinFn>
std::vector<Snap> acquire_version_vector(std::size_t shards, TokenFn&& token,
                                         PinFn&& pin,
                                         std::uint64_t* retries = nullptr,
                                         std::uint64_t max_retries = ~0ULL) {
  std::vector<Snap> vec;
  for (std::uint64_t attempt = 0;; ++attempt) {
    const std::uint64_t t0 = token();
    vec.clear();
    vec.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) vec.push_back(pin(s));
    if (token() == t0) return vec;
    if (retries != nullptr) ++*retries;
    if (attempt >= max_retries) {
      vec.clear();
      return vec;
    }
  }
}

// The compile-time shape of a VM algorithm; benches and the workload
// harness template over any VM satisfying this.
template <class VM, class T>
concept VersionManagerFor =
    std::constructible_from<VM, int, T*> &&
    requires(VM vm, const VM cvm, int p, T* v) {
      { vm.acquire(p) } -> std::same_as<T*>;
      { vm.set(p, v) } -> std::same_as<std::vector<T*>>;
      { vm.release(p) } -> std::same_as<std::vector<T*>>;
      { vm.shutdown_drain() } -> std::same_as<std::vector<T*>>;
      { cvm.live_versions() } -> std::same_as<std::int64_t>;
      { cvm.max_live_versions() } -> std::same_as<std::int64_t>;
      { VM::name() } -> std::convertible_to<const char*>;
    };

// Shared live-version accounting. note_retired() when a set supersedes a
// version, note_freed() when its payload is handed back to the client; the
// counter and high-water mark are what Figure 6 reports.
class VmStats {
 public:
  std::int64_t live_versions() const {
    return live_.load(std::memory_order_relaxed);
  }

  std::int64_t max_live_versions() const {
    return max_.load(std::memory_order_relaxed);
  }

 protected:
  void note_retired() {
    const std::int64_t now = live_.fetch_add(1, std::memory_order_relaxed) + 1;
    g_live_versions.fetch_add(1, std::memory_order_relaxed);
    std::int64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < now && !max_.compare_exchange_weak(
                             prev, now, std::memory_order_relaxed)) {
    }
    if (obs::enabled()) {
      vm_live_versions_hwm().update_max(now);
      vm_versions_retired().add();
    }
    obs::trace_instant("vm/retire");
  }

  void note_freed(std::int64_t n) {
    live_.fetch_sub(n, std::memory_order_relaxed);
    g_live_versions.fetch_sub(n, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> live_{0};
  std::atomic<std::int64_t> max_{0};
};

// The no-reclamation baseline: versions are never freed while running, so
// acquire is a plain load and release is a no-op. Everything superseded
// accumulates on a writer-owned leak list until shutdown_drain. Table 2's
// "Base" column.
template <class T>
class BaseVersionManager : public VmStats {
 public:
  BaseVersionManager(int nprocs, T* initial) : current_(initial) {
    assert(nprocs >= 1);
    (void)nprocs;
  }

  static constexpr const char* name() { return "Base"; }

  T* acquire(int) { return current_.load(std::memory_order_acquire); }

  std::vector<T*> release(int) { return {}; }

  std::vector<T*> set(int, T* next) {
    T* old = current_.load(std::memory_order_relaxed);
    current_.store(next, std::memory_order_release);
    leaked_.push_back(old);
    note_retired();
    return {};
  }

  std::vector<T*> shutdown_drain() {
    std::vector<T*> out = std::move(leaked_);
    leaked_.clear();
    note_freed(static_cast<std::int64_t>(out.size()));
    if (T* cur = current_.exchange(nullptr, std::memory_order_relaxed)) {
      out.push_back(cur);
    }
    return out;
  }

 private:
  std::atomic<T*> current_;
  std::vector<T*> leaked_;  // writer-owned; grows without bound by design
};

}  // namespace mvcc::vm
