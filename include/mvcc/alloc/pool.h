// Segregated-size slab allocator with per-thread magazine caches — the
// allocation substrate behind every ftree node, PLM tuple, and version
// payload.
//
// Why precision makes pooling pay: the paper's GC hands back EXACT freed
// sets, so retired blocks can be recycled wholesale into thread-local
// caches instead of trickling through the global heap one free() at a
// time (the insight the space-bounded MVGC follow-ups build on). The
// design is Bonwick's magazine layer:
//
//   ThreadCache  per thread, per size class: two magazines (`loaded` and
//                `previous`, each holding up to kMagazineSize free
//                blocks). Allocation pops from `loaded`; free pushes onto
//                it; when one runs dry/full the two swap, so a thread
//                ping-ponging alloc/free near a magazine boundary never
//                touches shared state.
//   Depot        per size class, global: two lock-free stacks of WHOLE
//                magazines (full of blocks / empty). A cache miss
//                exchanges magazines with the depot — one CAS moves
//                kMagazineSize blocks, which is what makes cross-thread
//                free cheap: blocks freed on thread B flow back to
//                allocating thread A a magazine at a time.
//   Slabs        when the depot is dry too, the owning size class carves
//                a fresh magazine's worth of blocks out of a slab
//                (MVCC_SLAB_BYTES, default 64 KiB) obtained from
//                operator new. Slabs are never returned to the OS while
//                the pool lives — blocks recirculate.
//
// The depot stacks are Treiber stacks made ABA-safe by indirection:
// magazines live in a grow-only chunked table and the stack head packs
// {32-bit magazine index, 32-bit tag} into one 64-bit CAS word, the tag
// bumped on every successful push/pop. Push is a release CAS and pop
// reads the head with acquire, which is the happens-before edge that
// publishes a magazine's (plain, non-atomic) count/items to its next
// owner.
//
// Routing: allocate()/deallocate() free functions check pooled() — the
// MVCC_ALLOC knob resolved ONCE per process, so an allocate can never be
// paired with a differently-routed deallocate — and fall back to plain
// operator new/delete for "malloc" mode or blocks larger than
// kMaxBlockBytes. Under AddressSanitizer every pooled block is poisoned
// while it sits free, so a use-after-free into the pool faults exactly
// like a heap use-after-free would.
//
// Telemetry (obs/ registry, touched only under obs::enabled()):
//   alloc/slabs_live       slabs currently backing the pools
//   alloc/cache_hits       allocations served by a thread-local magazine
//   alloc/depot_transfers  whole-magazine moves between caches and depot
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#include "mvcc/common/env.h"
#include "mvcc/obs/obs.h"

#if defined(__SANITIZE_ADDRESS__)
#define MVCC_ALLOC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MVCC_ALLOC_ASAN 1
#endif
#endif

#ifdef MVCC_ALLOC_ASAN
#include <sanitizer/asan_interface.h>
#define MVCC_ALLOC_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define MVCC_ALLOC_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define MVCC_ALLOC_POISON(p, n) ((void)0)
#define MVCC_ALLOC_UNPOISON(p, n) ((void)0)
#endif

namespace mvcc::alloc {

// Size classes are multiples of 16 bytes up to 512; every node/tuple/map
// payload in the system fits (a u64 -> u64 tree Inner is 48 bytes, its
// leaf Block 496). Larger requests take the operator-new fallback in the
// routing layer below.
inline constexpr std::size_t kQuantum = 16;
inline constexpr std::size_t kNumClasses = 32;
inline constexpr std::size_t kMaxBlockBytes = kQuantum * kNumClasses;
inline constexpr std::size_t kMagazineSize = 64;  // blocks per magazine

inline constexpr std::size_t size_class(std::size_t bytes) {
  return (bytes + kQuantum - 1) / kQuantum - 1;
}

inline constexpr std::size_t class_bytes(std::size_t ci) {
  return (ci + 1) * kQuantum;
}

// Registry handles, looked up once. Touched only under obs::enabled().
struct AllocStats {
  obs::Gauge& slabs_live;
  obs::Counter& cache_hits;
  obs::Counter& depot_transfers;

  static AllocStats& get() {
    static AllocStats s{obs::registry().gauge("alloc/slabs_live"),
                        obs::registry().counter("alloc/cache_hits"),
                        obs::registry().counter("alloc/depot_transfers")};
    return s;
  }
};

// Slabs currently live across every Pool, maintained unconditionally (one
// relaxed add per SLAB, nowhere near a hot path) so the footprint sampler
// can plot pooled memory growth without obs on.
inline std::atomic<std::int64_t> g_slabs_live{0};

// Registers the slab-count probe with the obs sampler. Idempotent; called
// by the bench glue before the sampler starts.
inline void register_alloc_probes() {
  obs::Sampler::instance().register_probe("alloc/slabs_live", [] {
    return g_slabs_live.load(std::memory_order_relaxed);
  });
}

class Pool;

namespace detail {

inline constexpr std::uint32_t kNoneIdx = 0xffffffffu;

// A magazine: a fixed-capacity stack of free blocks of one size class.
// count/items are PLAIN fields — a magazine is owned by exactly one thread
// cache or parked in a depot stack at any time, and the depot's
// release-push/acquire-pop is the handoff edge. Only `next` (the depot
// stack link) is atomic: a popping thread reads it speculatively while the
// magazine may still be re-linked by a competing pop's retry.
struct Magazine {
  std::atomic<std::uint32_t> next{kNoneIdx};
  std::uint32_t self = kNoneIdx;  // index in the owning pool's table
  std::uint32_t count = 0;
  void* items[kMagazineSize];
};

// One thread's magazine pair for every size class of one Pool. Nodes are
// heap-allocated, linked into the thread's cache list (below), and flushed
// back to the owner's depot when the thread exits.
struct ThreadCache {
  struct Slot {
    Magazine* loaded = nullptr;
    Magazine* previous = nullptr;
  };

  Pool* owner = nullptr;  // nulled if the pool dies first
  ThreadCache* next = nullptr;
  Slot cls[kNumClasses];
};

// Coordinates thread-exit cache flushes against ~Pool. Immortal (never
// destroyed) so a late-exiting thread can always take it, whatever order
// static destruction picks.
inline std::mutex& registry_mutex() {
  static std::mutex* m = new std::mutex;
  return *m;
}

struct ThreadCacheList {
  ThreadCache* head = nullptr;
  ~ThreadCacheList();  // defined after Pool: flushes into the owners
};

inline ThreadCacheList& tl_caches() {
  thread_local ThreadCacheList list;
  return list;
}

}  // namespace detail

class Pool {
 public:
  struct Stats {
    std::int64_t slabs = 0;
    std::int64_t magazines = 0;
    std::int64_t depot_transfers = 0;
  };

  // 0 = take the MVCC_SLAB_BYTES knob from config(). The floor keeps a
  // slab big enough to carve whole magazines of the largest class.
  explicit Pool(std::size_t slab_bytes = 0)
      : slab_bytes_(
            std::max<std::size_t>(slab_bytes != 0 ? slab_bytes
                                                  : config().slab_bytes,
                                  std::size_t{1} << 12)) {}

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  // Destroying a pool invalidates every block it ever handed out. Caches
  // registered by still-live threads are detached (their flush becomes a
  // no-op) — used by tests; the process-wide instance() is never destroyed.
  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(detail::registry_mutex());
      for (detail::ThreadCache* c : caches_) c->owner = nullptr;
      caches_.clear();
    }
    for (std::atomic<detail::Magazine*>& chunk : chunks_) {
      delete[] chunk.load(std::memory_order_relaxed);
    }
    for (void* slab : slabs_) {
      MVCC_ALLOC_UNPOISON(slab, slab_bytes_);
      ::operator delete(slab);
    }
    g_slabs_live.fetch_sub(static_cast<std::int64_t>(slabs_.size()),
                           std::memory_order_relaxed);
  }

  // The process-wide pool every subsystem allocates from. Immortal (built
  // with new, never destroyed): worker threads and thread caches may
  // outlive any static destruction order, and still-reachable memory is
  // what LeakSanitizer expects at exit.
  static Pool& instance() {
    static Pool* p = new Pool();
    return *p;
  }

  void* allocate(std::size_t bytes) {
    assert(bytes > 0 && bytes <= kMaxBlockBytes);
    const std::size_t ci = size_class(bytes);
    detail::ThreadCache::Slot& slot = local_cache().cls[ci];
    detail::Magazine* m = slot.loaded;
    if (m != nullptr && m->count > 0) {
      if (obs::enabled()) AllocStats::get().cache_hits.add();
      void* p = m->items[--m->count];
      MVCC_ALLOC_UNPOISON(p, class_bytes(ci));
      return p;
    }
    if (slot.previous != nullptr && slot.previous->count > 0) {
      std::swap(slot.loaded, slot.previous);
      if (obs::enabled()) AllocStats::get().cache_hits.add();
      void* p = slot.loaded->items[--slot.loaded->count];
      MVCC_ALLOC_UNPOISON(p, class_bytes(ci));
      return p;
    }
    return allocate_slow(ci, slot);
  }

  void deallocate(void* p, std::size_t bytes) {
    assert(p != nullptr && bytes > 0 && bytes <= kMaxBlockBytes);
    const std::size_t ci = size_class(bytes);
    detail::ThreadCache::Slot& slot = local_cache().cls[ci];
    push_free(ci, slot, p);
  }

  // Frees a whole batch of same-class blocks (an exact freed set), paying
  // the cache lookup once; full magazines stream to the depot in O(1)
  // whole-magazine pushes.
  void deallocate_batch(void* const* blocks, std::size_t n,
                        std::size_t bytes) {
    if (n == 0) return;
    assert(bytes > 0 && bytes <= kMaxBlockBytes);
    const std::size_t ci = size_class(bytes);
    detail::ThreadCache::Slot& slot = local_cache().cls[ci];
    for (std::size_t i = 0; i < n; ++i) push_free(ci, slot, blocks[i]);
  }

  Stats stats() const {
    Stats s;
    s.slabs = slab_count_.load(std::memory_order_relaxed);
    s.magazines = magazine_count_.load(std::memory_order_relaxed);
    s.depot_transfers = transfer_count_.load(std::memory_order_relaxed);
    return s;
  }

  std::size_t slab_bytes() const { return slab_bytes_; }

 private:
  friend struct detail::ThreadCacheList;

  // ABA-safe Treiber stack of magazine INDICES: the head packs
  // {tag, index}, and the tag advances on every successful CAS, so a
  // pop's speculative `next` read can never be installed against a head
  // that was popped and re-pushed in between.
  class TaggedStack {
   public:
    void push(Pool& pool, std::uint32_t idx) {
      detail::Magazine& m = pool.mag(idx);
      std::uint64_t cur = top_.load(std::memory_order_relaxed);
      for (;;) {
        m.next.store(index_of(cur), std::memory_order_relaxed);
        if (top_.compare_exchange_weak(cur, make(tag_of(cur) + 1, idx),
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
          return;
        }
      }
    }

    // kNoneIdx when empty.
    std::uint32_t pop(Pool& pool) {
      std::uint64_t cur = top_.load(std::memory_order_acquire);
      for (;;) {
        const std::uint32_t idx = index_of(cur);
        if (idx == detail::kNoneIdx) return detail::kNoneIdx;
        const std::uint32_t next =
            pool.mag(idx).next.load(std::memory_order_relaxed);
        if (top_.compare_exchange_weak(cur, make(tag_of(cur) + 1, next),
                                       std::memory_order_acquire,
                                       std::memory_order_acquire)) {
          return idx;
        }
      }
    }

   private:
    static constexpr std::uint64_t make(std::uint64_t tag,
                                        std::uint32_t idx) {
      return (tag << 32) | idx;
    }
    static constexpr std::uint32_t index_of(std::uint64_t v) {
      return static_cast<std::uint32_t>(v);
    }
    static constexpr std::uint64_t tag_of(std::uint64_t v) { return v >> 32; }

    std::atomic<std::uint64_t> top_{make(0, detail::kNoneIdx)};
  };

  struct SizeClass {
    TaggedStack full;
    TaggedStack empty;
    std::mutex slab_mu;  // guards cur/end carving
    char* cur = nullptr;
    char* end = nullptr;
  };

  // Grow-only chunked magazine table: chunk pointers are atomic so mag()
  // stays lock-free while create_magazine() (mutex-guarded, rare) installs
  // new chunks. Indices are never reused or invalidated.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kMaxChunks = 1u << 12;

  detail::Magazine& mag(std::uint32_t idx) {
    detail::Magazine* chunk =
        chunks_[idx >> kChunkShift].load(std::memory_order_acquire);
    return chunk[idx & (kChunkSize - 1)];
  }

  std::uint32_t create_magazine() {
    std::lock_guard<std::mutex> lock(table_mu_);
    const std::uint32_t idx = magazine_next_;
    const std::uint32_t chunk = idx >> kChunkShift;
    if (chunk >= kMaxChunks) throw std::bad_alloc();  // ~16 GiB of blocks
    if (chunks_[chunk].load(std::memory_order_relaxed) == nullptr) {
      chunks_[chunk].store(new detail::Magazine[kChunkSize],
                           std::memory_order_release);
    }
    ++magazine_next_;
    magazine_count_.fetch_add(1, std::memory_order_relaxed);
    mag(idx).self = idx;
    return idx;
  }

  detail::ThreadCache& local_cache() {
    // One-entry lookaside: almost every call in a process uses instance().
    // The owner check guards against a dead pool's address being reused by
    // a new Pool (sequential stack-allocated pools in tests): ~Pool nulls
    // each cache's owner, and the cache object itself is owned by the
    // thread's list, so it stays dereferenceable until thread exit.
    thread_local Pool* last_pool = nullptr;
    thread_local detail::ThreadCache* last_cache = nullptr;
    if (last_pool == this && last_cache->owner == this) return *last_cache;
    detail::ThreadCacheList& list = detail::tl_caches();
    detail::ThreadCache* c = list.head;
    while (c != nullptr && c->owner != this) c = c->next;
    if (c == nullptr) {
      c = new detail::ThreadCache;
      c->owner = this;
      {
        std::lock_guard<std::mutex> lock(detail::registry_mutex());
        caches_.push_back(c);
      }
      c->next = list.head;
      list.head = c;
    }
    last_pool = this;
    last_cache = c;
    return *c;
  }

  void* allocate_slow(std::size_t ci, detail::ThreadCache::Slot& slot) {
    SizeClass& sc = classes_[ci];
    // Exchange with the depot: retire the dry loaded magazine, take a full
    // one. One CAS each way moves kMagazineSize blocks.
    const std::uint32_t full = sc.full.pop(*this);
    if (full != detail::kNoneIdx) {
      if (slot.loaded != nullptr) {
        sc.empty.push(*this, slot.loaded->self);
      }
      slot.loaded = &mag(full);
      note_transfer(1);
      void* p = slot.loaded->items[--slot.loaded->count];
      MVCC_ALLOC_UNPOISON(p, class_bytes(ci));
      return p;
    }
    // Depot dry: carve a magazine's worth of fresh blocks from the slab.
    detail::Magazine* m = slot.loaded;
    if (m == nullptr) {
      const std::uint32_t e = sc.empty.pop(*this);
      m = e != detail::kNoneIdx ? &mag(e) : &mag(create_magazine());
      m->count = 0;
      slot.loaded = m;
    }
    carve(ci, sc, *m);
    void* p = m->items[--m->count];
    MVCC_ALLOC_UNPOISON(p, class_bytes(ci));
    return p;
  }

  void carve(std::size_t ci, SizeClass& sc, detail::Magazine& m) {
    const std::size_t bs = class_bytes(ci);
    std::lock_guard<std::mutex> lock(sc.slab_mu);
    while (m.count < kMagazineSize) {
      if (sc.cur == nullptr ||
          static_cast<std::size_t>(sc.end - sc.cur) < bs) {
        char* slab = static_cast<char*>(::operator new(slab_bytes_));
        {
          std::lock_guard<std::mutex> slock(slabs_mu_);
          slabs_.push_back(slab);
        }
        sc.cur = slab;
        sc.end = slab + slab_bytes_;
        slab_count_.fetch_add(1, std::memory_order_relaxed);
        const std::int64_t live =
            g_slabs_live.fetch_add(1, std::memory_order_relaxed) + 1;
        if (obs::enabled()) AllocStats::get().slabs_live.set(live);
      }
      m.items[m.count++] = sc.cur;
      MVCC_ALLOC_POISON(sc.cur, bs);
      sc.cur += bs;
    }
  }

  void push_free(std::size_t ci, detail::ThreadCache::Slot& slot, void* p) {
    MVCC_ALLOC_POISON(p, class_bytes(ci));
    detail::Magazine* m = slot.loaded;
    if (m != nullptr && m->count < kMagazineSize) {
      m->items[m->count++] = p;
      return;
    }
    push_free_slow(ci, slot, p);
  }

  void push_free_slow(std::size_t ci, detail::ThreadCache::Slot& slot,
                      void* p) {
    if (slot.previous != nullptr && slot.previous->count < kMagazineSize) {
      std::swap(slot.loaded, slot.previous);
      slot.loaded->items[slot.loaded->count++] = p;
      return;
    }
    SizeClass& sc = classes_[ci];
    // Both magazines full (or absent): hand the full `previous` to the
    // depot, shift `loaded` down, install an empty magazine on top.
    if (slot.previous != nullptr) {
      sc.full.push(*this, slot.previous->self);
      note_transfer(1);
    }
    slot.previous = slot.loaded;
    const std::uint32_t e = sc.empty.pop(*this);
    detail::Magazine* m =
        e != detail::kNoneIdx ? &mag(e) : &mag(create_magazine());
    m->count = 0;
    slot.loaded = m;
    m->items[m->count++] = p;
  }

  // Thread exit: park the cache's magazines back in the depot so their
  // blocks stay allocatable. Called under registry_mutex().
  void flush_cache(detail::ThreadCache& cache) {
    for (std::size_t ci = 0; ci < kNumClasses; ++ci) {
      for (detail::Magazine* m :
           {cache.cls[ci].loaded, cache.cls[ci].previous}) {
        if (m == nullptr) continue;
        if (m->count > 0) {
          classes_[ci].full.push(*this, m->self);
          note_transfer(1);
        } else {
          classes_[ci].empty.push(*this, m->self);
        }
      }
      cache.cls[ci].loaded = nullptr;
      cache.cls[ci].previous = nullptr;
    }
    for (std::size_t i = 0; i < caches_.size(); ++i) {
      if (caches_[i] == &cache) {
        caches_[i] = caches_.back();
        caches_.pop_back();
        break;
      }
    }
  }

  void note_transfer(std::int64_t n) {
    transfer_count_.fetch_add(n, std::memory_order_relaxed);
    if (obs::enabled()) {
      AllocStats::get().depot_transfers.add(static_cast<std::uint64_t>(n));
    }
  }

  const std::size_t slab_bytes_;
  SizeClass classes_[kNumClasses];
  std::atomic<detail::Magazine*> chunks_[kMaxChunks] = {};
  std::mutex table_mu_;
  std::uint32_t magazine_next_ = 0;
  std::mutex slabs_mu_;
  std::vector<void*> slabs_;
  std::vector<detail::ThreadCache*> caches_;  // under registry_mutex()
  std::atomic<std::int64_t> slab_count_{0};
  std::atomic<std::int64_t> magazine_count_{0};
  std::atomic<std::int64_t> transfer_count_{0};
};

namespace detail {

inline ThreadCacheList::~ThreadCacheList() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  ThreadCache* c = head;
  while (c != nullptr) {
    ThreadCache* next = c->next;
    if (c->owner != nullptr) c->owner->flush_cache(*c);
    delete c;
    c = next;
  }
  head = nullptr;
}

// -1 = unresolved. The MVCC_ALLOC route latches at the first allocation
// and never flips afterwards: a block must be freed by the same policy
// that allocated it.
inline std::atomic<int>& pooled_flag() {
  static std::atomic<int> flag{-1};
  return flag;
}

}  // namespace detail

// Whether fixed-size blocks route through the slab pool (MVCC_ALLOC
// unset/"slab") or plain operator new/delete ("malloc" — the A/B
// fallback). Resolved once per process.
inline bool pooled() {
  int v = detail::pooled_flag().load(std::memory_order_relaxed);
  if (v < 0) [[unlikely]] {
    v = config().alloc_pooled ? 1 : 0;
    detail::pooled_flag().store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

// --- Routing front: the allocation API the subsystems consume --------------

inline void* allocate(std::size_t bytes) {
  if (bytes == 0 || bytes > kMaxBlockBytes || !pooled()) {
    return ::operator new(bytes);
  }
  return Pool::instance().allocate(bytes);
}

inline void deallocate(void* p, std::size_t bytes) {
  if (p == nullptr) return;
  if (bytes == 0 || bytes > kMaxBlockBytes || !pooled()) {
    ::operator delete(p);
    return;
  }
  Pool::instance().deallocate(p, bytes);
}

// Frees the raw storage of a batch of same-size blocks (destructors
// already run) — the O(1)-ish sink for exact freed sets.
inline void deallocate_batch(void* const* blocks, std::size_t n,
                             std::size_t bytes) {
  if (n == 0) return;
  if (bytes == 0 || bytes > kMaxBlockBytes || !pooled()) {
    for (std::size_t i = 0; i < n; ++i) ::operator delete(blocks[i]);
    return;
  }
  Pool::instance().deallocate_batch(blocks, n, bytes);
}

// Typed construct/destroy through the routing front, the drop-in
// replacement for `new T(...)` / `delete p`.
template <class T, class... Args>
T* create(Args&&... args) {
  static_assert(alignof(T) <= kQuantum,
                "pool blocks are 16-byte aligned; over-aligned types must "
                "take the operator-new path");
  void* mem = allocate(sizeof(T));
  try {
    return ::new (mem) T(std::forward<Args>(args)...);
  } catch (...) {
    deallocate(mem, sizeof(T));
    throw;
  }
}

template <class T>
void destroy(T* p) {
  if (p == nullptr) return;
  p->~T();
  deallocate(p, sizeof(T));
}

}  // namespace mvcc::alloc
