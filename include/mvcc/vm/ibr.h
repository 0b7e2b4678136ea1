// IBR — interval-based reclamation (our extension beyond the paper;
// Section 6 cites interval-based schemes as a further VM solution, and
// bench_vm_sweep plots it as an extra Figure 6 column).
//
// A hybrid of EP's cheap reads and HP's stall-immunity: a global era
// advances on every set; each version records its birth era and, when
// superseded, its retire era, spanning the interval in which it was ever
// current. A reader reserves the interval [entry era, latest era observed
// while reading] — extending the upper bound until the era is stable
// around its read of the current pointer. A retired version may be freed
// once its lifetime interval intersects no reservation.
//
// Unlike EP, a stalled reader blocks only versions whose lifetimes overlap
// its (frozen) reservation — versions born after it are reclaimed freely,
// so there is no stalled-reader explosion. Unlike PSWF/PSLF, collection is
// amortized (HP-style: scan when 2P retirees accumulate), not precise.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "mvcc/vm/base.h"

namespace mvcc::vm {

template <class T>
class IbrVersionManager : public VmStats {
 public:
  IbrVersionManager(int nprocs, T* initial)
      : nprocs_(nprocs), iv_(nprocs), current_(initial) {
    assert(nprocs >= 1);
    birth_of_current_ = era_.load(std::memory_order_relaxed);
  }

  IbrVersionManager(const IbrVersionManager&) = delete;
  IbrVersionManager& operator=(const IbrVersionManager&) = delete;

  static constexpr const char* name() { return "IBR"; }

  T* acquire(int p) {
    const std::uint64_t e = era_.load(std::memory_order_seq_cst);
    // hi before lo: a reservation only reads as active (lo != kIdle) once
    // its upper bound is already published.
    iv_[p].hi.store(e, std::memory_order_seq_cst);
    iv_[p].lo.store(e, std::memory_order_seq_cst);
    T* v;
    std::uint64_t hi = e;
    while (true) {
      v = current_.load(std::memory_order_seq_cst);
      const std::uint64_t now = era_.load(std::memory_order_seq_cst);
      if (now == hi) break;  // era stable around the read: hi covers v
      hi = now;
      iv_[p].hi.store(hi, std::memory_order_seq_cst);
    }
    return v;
  }

  std::vector<T*> release(int p) {
    iv_[p].lo.store(kIdle, std::memory_order_release);
    return {};
  }

  // Single writer at a time (externally serialized).
  std::vector<T*> set(int p, T* next) {
    (void)p;
    T* old = current_.load(std::memory_order_relaxed);
    current_.store(next, std::memory_order_seq_cst);
    const std::uint64_t retire_era =
        era_.fetch_add(1, std::memory_order_seq_cst);
    retired_.push_back({old, birth_of_current_, retire_era});
    // `next` became current while the era was still retire_era (the store
    // above precedes the increment), so that is its birth: a reader that
    // reserved [retire_era, retire_era] in the window may hold it.
    birth_of_current_ = retire_era;
    note_retired();
    if (retired_.size() >= 2 * static_cast<std::size_t>(nprocs_)) {
      return scan();
    }
    return {};
  }

  std::vector<T*> shutdown_drain() {
    std::vector<T*> out;
    for (const Retired& r : retired_) out.push_back(r.payload);
    note_freed(static_cast<std::int64_t>(retired_.size()));
    retired_.clear();
    if (T* cur = current_.exchange(nullptr, std::memory_order_relaxed)) {
      out.push_back(cur);
    }
    return out;
  }

 private:
  static constexpr std::uint64_t kIdle =
      std::numeric_limits<std::uint64_t>::max();

  struct alignas(64) Interval {
    std::atomic<std::uint64_t> lo{kIdle};
    std::atomic<std::uint64_t> hi{0};
  };

  struct Retired {
    T* payload;
    std::uint64_t birth;
    std::uint64_t retire;
  };

  bool conflicts(const Retired& r) const {
    for (int q = 0; q < nprocs_; ++q) {
      const std::uint64_t lo = iv_[q].lo.load(std::memory_order_seq_cst);
      if (lo == kIdle) continue;
      const std::uint64_t hi = iv_[q].hi.load(std::memory_order_seq_cst);
      if (lo <= r.retire && r.birth <= hi) return true;
    }
    return false;
  }

  std::vector<T*> scan() {
    std::vector<T*> freed;
    std::size_t out = 0;
    for (const Retired& r : retired_) {
      if (conflicts(r)) {
        retired_[out++] = r;
      } else {
        freed.push_back(r.payload);
      }
    }
    retired_.resize(out);
    note_freed(static_cast<std::int64_t>(freed.size()));
    return freed;
  }

  const int nprocs_;
  std::vector<Interval> iv_;
  std::atomic<std::uint64_t> era_{0};
  std::atomic<T*> current_;
  std::uint64_t birth_of_current_;  // writer-owned
  std::vector<Retired> retired_;    // writer-owned
};

}  // namespace mvcc::vm
