// The reclamation seam for the exact freed sets a commit retires.
//
// A version manager (vm/) hands its client the exact set of payloads an
// operation proved unreachable. A commit disposes of its set here, through
// alloc::destroy, on one of two lanes: the calling thread, or the exec/
// pool's background defer lane, picked from the commit's size. Reader
// releases and the inverted index call alloc::destroy inline themselves.
//
// The background lane holds at most one batch: a batch handed to it while
// an earlier one is still unfreed is freed inline instead, so a slow
// worker cannot grow the heap without bound.
//
// reclaim_queue_depth() counts payloads published-but-unfreed (the
// sampler's reclaim/queue_depth column), every deferred batch runs under a
// `reclaim/batch_free` trace span, and reclaim_quiesce() blocks until the
// lane is drained.
//
// Registry handles (under obs::enabled()):
//   reclaim/deferred         payloads routed to the background lane
//   reclaim/queue_depth_hwm  max payloads simultaneously awaiting a worker
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "mvcc/alloc/pool.h"
#include "mvcc/common/env.h"
#include "mvcc/exec/pool.h"
#include "mvcc/obs/obs.h"

namespace mvcc::alloc {

// Payloads published to the background lane and not yet freed; nonzero
// means the lane is busy. Maintained unconditionally (two relaxed RMWs per
// deferred BATCH, off every hot path).
inline std::atomic<std::int64_t>& reclaim_queue_depth() {
  static std::atomic<std::int64_t> depth{0};
  return depth;
}

struct ReclaimStats {
  obs::Counter& deferred;
  obs::Gauge& queue_depth_hwm;

  static ReclaimStats& get() {
    static ReclaimStats s{obs::registry().counter("reclaim/deferred"),
                          obs::registry().gauge("reclaim/queue_depth_hwm")};
    return s;
  }
};

// Disposes of the versions a commit retired. `work` estimates the nodes
// the commit copied, which is about what freeing its retired version
// visits. From 2 * config().grain (4096 at the default grain) the set goes
// to the background lane, unless that lane still holds a batch: on the
// repository benchmark that takes write-stream's commits of about 500 ops
// and up (~7k nodes freed per commit on average), which were faster there
// with the per-key node layout and measured no slower with leaf blocks,
// and leaves its snapshot-read commits (~0.7k nodes) inline, which is
// faster for them. Read on every call, so tests can move the threshold
// through config().grain. Takes the vector by value so a caller passes a
// VM return directly.
template <class T>
void reclaim_retired(std::vector<T*> dead, std::uint64_t work) {
  if (dead.empty()) return;
  // Claim the lane only while it is empty, counting the batch in the same
  // step, so concurrent callers still leave at most one batch pending.
  const auto n = static_cast<std::int64_t>(dead.size());
  std::int64_t idle = 0;
  if (work < 2 * static_cast<std::uint64_t>(config().grain) ||
      !reclaim_queue_depth().compare_exchange_strong(
          idle, n, std::memory_order_relaxed)) {
    for (T* p : dead) destroy(p);
    return;
  }
  if (obs::enabled()) {
    ReclaimStats::get().deferred.add(static_cast<std::uint64_t>(n));
    ReclaimStats::get().queue_depth_hwm.update_max(n);
  }
  exec::Pool::instance().defer([batch = std::move(dead)] {
    obs::TraceSpan span("reclaim/batch_free",
                        static_cast<std::uint64_t>(batch.size()));
    for (T* p : batch) destroy(p);
    reclaim_queue_depth().fetch_sub(static_cast<std::int64_t>(batch.size()),
                                    std::memory_order_relaxed);
  });
}

// Blocks until every batch ever routed to the background lane has been
// freed (helping drain from the calling thread). Trivially quiescent when
// the pool was never created or the lane never engaged.
inline void reclaim_quiesce() { exec::quiesce_deferred(); }

}  // namespace mvcc::alloc
