// PSLF — the paper's Precise Solution, Lock-Free (Section 4 variant
// without helping).
//
// Acquire is the announce-and-validate retry loop: publish the version you
// read, then check it is still current; a concurrent set invalidates the
// attempt and the reader retries against the newer version. Lock-free, not
// wait-free: a writer committing continuously can starve a reader's
// acquire (the regime bench_vm_sweep's §7.1 rows probe with nu=1), but some
// operation always completes. In exchange, set sheds PSWF's help pass — a
// bare publish-retire-sweep.
//
// The validated announcement gives the same protection as PSWF's helped
// one: validation observing v as current happens before the writer
// replaces v, which happens before v is marked RETIRED, which happens
// before any claim scan — so every claim scan sees the holder's
// announcement. Collection is precise: release returns exactly the
// versions it unreached (see detail/precise_core.h).
#pragma once

#include <cassert>
#include <utility>
#include <vector>

#include "mvcc/vm/detail/precise_core.h"

namespace mvcc::vm {

template <class T>
class PslfVersionManager : public detail::PreciseCore<T> {
  using Core = detail::PreciseCore<T>;
  using Rec = typename Core::Rec;

 public:
  using Core::Core;

  static constexpr const char* name() { return "PSLF"; }

  // Lock-free: retries until the announced version survives validation.
  T* acquire(int p) {
    auto& slot = this->slots_[p].a;
    assert(slot.load(std::memory_order_relaxed) == nullptr &&
           "acquire while already holding");
    Rec* v;
    do {
      v = this->current_.load(std::memory_order_seq_cst);
      slot.store(v, std::memory_order_seq_cst);
    } while (this->current_.load(std::memory_order_seq_cst) != v);
    obs::trace_instant("vm/acquire");
    return v->payload.load(std::memory_order_relaxed);
  }

  // Single writer at a time (externally serialized); no helping.
  std::vector<T*> set(int p, T* next) {
    (void)p;
    Rec* rec = this->alloc_rec(next);
    Rec* old = this->publish(rec);
    this->retire(old);
    return this->sweep();
  }
};

}  // namespace mvcc::vm
