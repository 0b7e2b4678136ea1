// Shared machinery of the paper's precise VM solutions (PSWF and PSLF).
//
// Both algorithms protect readers with a per-process announcement array
// A[0..P): a process's announced version cannot be collected. They differ
// only in how acquire installs the announcement (pswf.h: one CAS plus
// writer helping, wait-free; pslf.h: announce-and-validate retry,
// lock-free). Everything else — version records, retirement, the precise
// freed-set computation on release, the writer's sweep, live-version
// accounting, shutdown — lives here.
//
// Version records are pooled and recycled, never deleted while the manager
// lives, so a reader holding a stale record pointer can always safely load
// its state word. Each record packs a reuse sequence number with a state
//
//   word = (seq << 2) | state,  state in {CURRENT, RETIRED, FREE}
//
// and every decision to free compares the full word, so a record recycled
// under a slow reader (seq bumped) can never be confused with the version
// that reader once held.
//
// Precise collection (the property EP/HP/IBR/RCU lack): when the last
// reference to a superseded version disappears, the operation that removed
// it returns that version's payload.
//   * release(p) un-announces, and if its version is retired and no other
//     process announces it, claims it with a CAS on the state word and
//     returns its payload — the freed set is exact, not amortized.
//   * set retires the replaced version and sweeps the retired list: any
//     retired version no longer announced is claimed and returned.
// The claim CAS makes "exactly one collector" a machine-checked fact: a
// release racing the writer's sweep (or another release of the same
// version) frees each version exactly once. That exactly-once claim is
// also why a client's background reclaim lane (alloc/reclaim.h) cannot
// double-free: the client may delete a returned payload later and on
// another thread, but each payload is RETURNED once, by one operation.
//
// Why the scan in release is safe (the argument behind Theorem 3.4's
// precision): a version only becomes claimable after the writer marked it
// RETIRED, which happens after the writer replaced it as current; any
// process validly holding it announced it before that replacement (PSLF
// validates against the current pointer; PSWF announcements are installed
// by the reader before the writer's help pass visits its slot, or by the
// writer itself). Under the seq_cst total order, every claim scan
// therefore observes every valid holder's announcement. A reader stalled
// mid-acquire can leave a phantom announcement of a dead version; that
// only delays the claim to the writer's next sweep — never unsafety, and
// the number of uncollected versions stays O(P).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mvcc/vm/base.h"

namespace mvcc::vm::detail {

// Freed-set telemetry of the precise algorithms (obs registry handles,
// touched only under obs::enabled()):
//
//   vm/release_frees     releases whose exact freed set was non-empty
//                        (a release frees at most its own version)
//   vm/freed_per_sweep   distribution of versions each writer sweep
//                        reclaimed (zeros included: the common case)
inline obs::Counter& vm_release_frees() {
  static obs::Counter& c = obs::registry().counter("vm/release_frees");
  return c;
}

inline obs::LatencyHistogram& vm_freed_per_sweep() {
  static obs::LatencyHistogram& h =
      obs::registry().histogram("vm/freed_per_sweep");
  return h;
}

template <class T>
class PreciseCore : public VmStats {
 public:
  PreciseCore(int nprocs, T* initial) : nprocs_(nprocs), slots_(nprocs) {
    assert(nprocs >= 1);
    current_.store(alloc_rec(initial), std::memory_order_release);
  }

  PreciseCore(const PreciseCore&) = delete;
  PreciseCore& operator=(const PreciseCore&) = delete;

  // Un-announces process p's version and, when this release removed the
  // last reference to a retired version, claims it and returns its payload
  // — the exact freed set of this operation.
  std::vector<T*> release(int p) {
    Rec* r = slots_[p].a.load(std::memory_order_acquire);
    assert(r != nullptr && "release without a matching acquire");
    // While we are announced, r cannot be claimed or recycled, so this
    // word/payload pair is a consistent snapshot of the version we hold.
    const std::uint64_t w0 = r->word.load(std::memory_order_acquire);
    T* payload = r->payload.load(std::memory_order_relaxed);
    slots_[p].a.store(nullptr, std::memory_order_seq_cst);
    // Only a version retired under our sequence number is ours to free; a
    // CURRENT w0 may have been retired in the window since, so re-read.
    const std::uint64_t retired_word = pack(seq_of(w0), kRetired);
    if (r->word.load(std::memory_order_seq_cst) != retired_word) return {};
    for (int q = 0; q < nprocs_; ++q) {
      if (slots_[q].a.load(std::memory_order_seq_cst) == r) {
        return {};  // still announced; the holder or the sweep collects it
      }
    }
    std::uint64_t expected = retired_word;
    if (r->word.compare_exchange_strong(expected, pack(seq_of(w0), kFree),
                                        std::memory_order_seq_cst)) {
      note_freed(1);
      if (obs::enabled()) vm_release_frees().add();
      obs::trace_instant("vm/release_free");
      return {payload};
    }
    return {};  // lost the claim race: someone else freed it
  }

  // Quiescent teardown: returns every payload still tracked (retired but
  // unclaimed versions plus the current one) and empties the manager.
  std::vector<T*> shutdown_drain() {
    std::vector<T*> out;
    for (Rec* r : retired_) {
      const std::uint64_t w = r->word.load(std::memory_order_relaxed);
      if (state_of(w) == kRetired) {
        out.push_back(r->payload.load(std::memory_order_relaxed));
        r->word.store(pack(seq_of(w), kFree), std::memory_order_relaxed);
        note_freed(1);
      }
      freelist_.push_back(r);
    }
    retired_.clear();
    if (Rec* cur = current_.exchange(nullptr, std::memory_order_relaxed)) {
      const std::uint64_t w = cur->word.load(std::memory_order_relaxed);
      out.push_back(cur->payload.load(std::memory_order_relaxed));
      cur->word.store(pack(seq_of(w), kFree), std::memory_order_relaxed);
      freelist_.push_back(cur);
    }
    return out;
  }

 protected:
  static constexpr std::uint64_t kCurrent = 0;
  static constexpr std::uint64_t kRetired = 1;
  static constexpr std::uint64_t kFree = 2;

  struct Rec {
    std::atomic<std::uint64_t> word{kFree};
    std::atomic<T*> payload{nullptr};
  };

  struct alignas(64) Slot {
    std::atomic<Rec*> a{nullptr};
  };

  static constexpr std::uint64_t pack(std::uint64_t seq, std::uint64_t st) {
    return (seq << 2) | st;
  }
  static constexpr std::uint64_t seq_of(std::uint64_t w) { return w >> 2; }
  static constexpr std::uint64_t state_of(std::uint64_t w) { return w & 3; }

  // Writer-only: takes a record from the pool (bumping its reuse sequence
  // number) and makes it the CURRENT holder of `payload`.
  Rec* alloc_rec(T* payload) {
    Rec* r;
    if (!freelist_.empty()) {
      r = freelist_.back();
      freelist_.pop_back();
    } else {
      pool_.push_back(std::make_unique<Rec>());
      r = pool_.back().get();
    }
    const std::uint64_t w = r->word.load(std::memory_order_relaxed);
    assert(state_of(w) == kFree);
    r->payload.store(payload, std::memory_order_relaxed);
    r->word.store(pack(seq_of(w) + 1, kCurrent), std::memory_order_seq_cst);
    return r;
  }

  // Writer-only: publishes `rec` as current and returns the record it
  // replaced, still CURRENT. The caller retires that record with a separate
  // retire(old), after PSWF's help pass: the RETIRED store is what opens the
  // old version to claiming, so it must follow both the current-pointer swap
  // and the help pass (release's safety argument leans on this order).
  Rec* publish(Rec* rec) {
    Rec* old = current_.load(std::memory_order_relaxed);
    current_.store(rec, std::memory_order_seq_cst);
    return old;
  }

  void retire(Rec* old) {
    const std::uint64_t w = old->word.load(std::memory_order_relaxed);
    assert(state_of(w) == kCurrent);
    old->word.store(pack(seq_of(w), kRetired), std::memory_order_seq_cst);
    note_retired();
    retired_.push_back(old);
  }

  // Writer-only: claims every retired version no longer announced,
  // recycles records already claimed by releases, and returns the freed
  // payloads. After a sweep every surviving retired version is announced
  // by some process, so at most P survive — the O(P) uncollected bound.
  std::vector<T*> sweep() {
    obs::TraceSpan span("vm/sweep");
    std::vector<T*> freed;
    std::size_t out = 0;
    for (Rec* r : retired_) {
      std::uint64_t w = r->word.load(std::memory_order_acquire);
      if (state_of(w) == kFree) {  // claimed by a release since last sweep
        freelist_.push_back(r);
        continue;
      }
      if (!announced(r)) {
        T* payload = r->payload.load(std::memory_order_relaxed);
        if (r->word.compare_exchange_strong(w, pack(seq_of(w), kFree),
                                            std::memory_order_seq_cst)) {
          freed.push_back(payload);
          note_freed(1);
          freelist_.push_back(r);
          continue;
        }
        // A release claimed it between our scan and CAS; it is FREE now.
        freelist_.push_back(r);
        continue;
      }
      retired_[out++] = r;
    }
    retired_.resize(out);
    if (obs::enabled()) {
      vm_freed_per_sweep().record(static_cast<std::uint64_t>(freed.size()));
    }
    span.set_arg(freed.size());
    return freed;
  }

  bool announced(const Rec* r) const {
    for (int q = 0; q < nprocs_; ++q) {
      if (slots_[q].a.load(std::memory_order_seq_cst) == r) return true;
    }
    return false;
  }

  const int nprocs_;
  std::atomic<Rec*> current_{nullptr};
  std::vector<Slot> slots_;

  // Writer-owned (mutated only under the external set-serialization, or at
  // quiescence): every record ever allocated, the recyclable ones, and the
  // retired-but-uncollected ones.
  std::vector<std::unique_ptr<Rec>> pool_;
  std::vector<Rec*> freelist_;
  std::vector<Rec*> retired_;
};

}  // namespace mvcc::vm::detail
