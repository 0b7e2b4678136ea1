// PSWF — the paper's Precise Solution, Wait-Free (Section 3, Theorem 3.4).
//
// Acquire is wait-free with BOUNDED DELAY: a reader announces an
// "acquiring" sentinel, reads the current version, and tries ONCE to CAS
// it into its own slot. It never loops — if the CAS fails, the writer's
// help pass already installed the (newer) current version into the slot on
// the reader's behalf, and that is the version acquired. Symmetrically,
// set's help pass bounds how stale any in-flight acquire can be: after the
// writer publishes a new version it CASes it into every slot still showing
// the sentinel, so no reader can complete an acquire with a version older
// than the previous current. This is the helping that bounds both the
// reader's delay (O(1) steps, always) and the number of uncollected
// versions (O(P): every retired version surviving a sweep is announced by
// some process).
//
// The sentinel handshake makes the single attempt safe: if the reader's
// CAS succeeds with version v, it beat the writer's help pass to the slot,
// so the writer's retire-and-sweep (which follows the help pass) observes
// the announcement; if the writer wins, the reader holds the version the
// writer just published, which the writer cannot retire before its next
// set. Either way the announced version is protected before anyone may
// claim it.
//
// Collection is precise: release returns exactly the versions this
// release unreached (see detail/precise_core.h).
#pragma once

#include <cassert>
#include <utility>
#include <vector>

#include "mvcc/vm/detail/precise_core.h"

namespace mvcc::vm {

template <class T>
class PswfVersionManager : public detail::PreciseCore<T> {
  using Core = detail::PreciseCore<T>;
  using Rec = typename Core::Rec;

 public:
  using Core::Core;

  static constexpr const char* name() { return "PSWF"; }

  // Wait-free: one sentinel store, one read, one CAS — no retry.
  T* acquire(int p) {
    auto& slot = this->slots_[p].a;
    assert(slot.load(std::memory_order_relaxed) == nullptr &&
           "acquire while already holding");
    slot.store(acquiring(), std::memory_order_seq_cst);
    Rec* v = this->current_.load(std::memory_order_seq_cst);
    Rec* expected = acquiring();
    if (!slot.compare_exchange_strong(expected, v,
                                      std::memory_order_seq_cst)) {
      v = expected;  // the writer helped us to the version it published
    }
    obs::trace_instant("vm/acquire");
    return v->payload.load(std::memory_order_relaxed);
  }

  // Single writer at a time (externally serialized). Publishes `next`,
  // helps every in-flight acquire, retires the replaced version, and
  // returns the payloads the sweep proved unreachable.
  std::vector<T*> set(int p, T* next) {
    (void)p;
    Rec* rec = this->alloc_rec(next);
    Rec* old = this->publish(rec);
    // Help pass: complete every acquire still showing the sentinel with
    // the version just published. Must precede retire(old): a reader whose
    // own CAS beat us here has its announcement of `old` visible to the
    // sweep below.
    for (int q = 0; q < this->nprocs_; ++q) {
      Rec* expected = acquiring();
      this->slots_[q].a.compare_exchange_strong(expected, rec,
                                                std::memory_order_seq_cst);
    }
    this->retire(old);
    return this->sweep();
  }

 private:
  // The per-manager "acquire in progress" sentinel; never dereferenced.
  Rec* acquiring() { return &acquiring_rec_; }

  Rec acquiring_rec_;
};

}  // namespace mvcc::vm
