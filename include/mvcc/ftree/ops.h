// Raw node layer of the functional (path-copying) balanced tree.
//
// This is the substrate the paper's multiversioning rests on: every update
// produces a new version that shares all untouched subtrees with its
// predecessors, and intrusive reference counts make garbage collection
// precise — `collect` frees exactly the nodes reachable from no surviving
// version, in time proportional to the number freed (the tree analogue of
// Theorem 4.2).
//
// Balancing is a height-balanced (AVL) join tree: `insert`, `join`,
// `split` and `multi_insert` all preserve the AVL invariant, so the
// `join`-based bulk apply composes with point updates.
// `multi_insert` applies a sorted batch PAM-style, by descending the tree
// with it: the version is split only where the batch runs out, not once
// per batch key, and only for hot keys. A key is hot if it is an Inner
// entry or the previous multi_insert wrote it (a per-block stamp and
// written-slot mask record that); a hot key that a slice of the batch runs
// down to is split out and joined back as the slice's root, which keeps
// Zipf-hot keys near the root. Every other key is rewritten inside its
// block, so uniform writes keep blocks whole. The descent reads the old
// version in place (borrowed, see below) and is bound by cache misses, not
// copying: each key's bottom levels are one chain of dependent misses, so
// a small slice of the batch first has all its paths walked together, many
// keys in flight, prefetching what the copy will touch (prefetch_paths).
//
// Leaves are blocks (the PaC-tree layout): a Block is one allocation
// holding a sorted run of up to kLeaf entries, with its own count, weight
// and aug, at height 1; an Inner node holds one entry and two children,
// each an Inner, a Block or null. Every subtree of at most kLeaf entries is
// one Block (make_node packs any smaller result), so a path copy ends in
// one block copy instead of the bottom few levels of nodes. Of the join
// algorithms only make_node and expose know the layout; multi_insert,
// insert and split add a fast path where their work lands in one block,
// and the readers and collect read blocks directly.
//
// Ownership protocol: a Node* is an owned reference. Every function taking
// Node* by value CONSUMES that reference (the functional analogue of move
// semantics); call `share` first to keep using a tree afterwards. Functions
// taking const Node* only read. The path-copying descents of insert and
// multi_insert (detail::insert_rec, multi_insert_rec) instead BORROW their
// input: they read it under the caller's reference, which pins every node
// below it, share only the untouched siblings into the owned tree they
// return, and leave the caller to drop the input once. Reference counts
// are atomic: snapshot holders may share/collect versions from any thread
// concurrently with the (externally serialized) mutator, and the bulk
// operations (`multi_insert`, `build_sorted`) fork their independent
// recursive calls across worker threads (MVCC_THREADS) — each worker
// consumes or borrows a disjoint set of references, so the counts stay
// exact. They fork only where both sides have enough estimated node
// copies (`batch_work`, `fork_work`), so a small commit into a big version
// forks at most once.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mvcc/alloc/pool.h"
#include "mvcc/common/env.h"
#include "mvcc/exec/pool.h"
#include "mvcc/obs/obs.h"

namespace mvcc::ftree {

// Global live-node counter, shared by all instantiations; tests use it to
// prove refcount exactness (it returns to zero once every version dies). A
// block counts as one node.
inline std::atomic<long long> g_live_nodes{0};

inline long long live_nodes() {
  return g_live_nodes.load(std::memory_order_relaxed);
}

// Memory-footprint telemetry (the metric the space-bounded MVGC follow-up
// work tracks alongside throughput): byte-exact live-heap accounting and
// high-water marks, maintained only under obs::enabled() so the default
// hot path keeps its single counter increment.
//
//   ftree/live_nodes_hwm   max nodes simultaneously live (all trees)
//   ftree/live_bytes_hwm   the same high-water mark in node bytes
inline std::atomic<long long> g_live_bytes{0};

inline obs::Gauge& live_nodes_hwm() {
  static obs::Gauge& g = obs::registry().gauge("ftree/live_nodes_hwm");
  return g;
}

inline obs::Gauge& live_bytes_hwm() {
  static obs::Gauge& g = obs::registry().gauge("ftree/live_bytes_hwm");
  return g;
}

inline void note_nodes_alloc(long long nodes_now, std::size_t bytes) {
  const long long bytes_now =
      g_live_bytes.fetch_add(static_cast<long long>(bytes),
                             std::memory_order_relaxed) +
      static_cast<long long>(bytes);
  live_nodes_hwm().update_max(nodes_now);
  live_bytes_hwm().update_max(bytes_now);
}

inline void note_nodes_freed(std::size_t bytes) {
  g_live_bytes.fetch_sub(static_cast<long long>(bytes),
                         std::memory_order_relaxed);
}

// Registers the tree's footprint gauges with the obs sampler, so a
// sampling run records live_nodes/live_bytes CURVES (the space-bounded
// MVGC plots), not just the high-water marks above. Idempotent; called by
// the bench glue before the sampler starts.
inline void register_footprint_probes() {
  obs::Sampler::instance().register_probe("ftree/live_nodes", [] {
    return static_cast<std::int64_t>(
        g_live_nodes.load(std::memory_order_relaxed));
  });
  obs::Sampler::instance().register_probe("ftree/live_bytes", [] {
    return static_cast<std::int64_t>(
        g_live_bytes.load(std::memory_order_relaxed));
  });
}

// Augmentation that carries nothing; the default for plain maps.
template <class K, class V>
struct NoAug {
  struct T {};
  static T zero() { return {}; }
  static T leaf(const K&, const V&) { return {}; }
  static T combine(const T&, const T&, const T&) { return {}; }
};

// Augmentation summing values over subtrees; powers O(log n) range sums.
template <class K, class V>
struct AugSum {
  using T = V;
  static T zero() { return T{}; }
  static T leaf(const K&, const V& v) { return v; }
  static T combine(const T& l, const T& m, const T& r) { return l + m + r; }
};

// Entries per leaf block: a u64 -> u64 block (with or without a sum aug)
// fills the pool's 512-byte size class. At 2^21 keys and 900-key batches
// (BM_TreeCommitStages, 4-vCPU Xeon VM, 3 alternating rounds) 30 entries
// measured 0.98-1.24 us per written key in multi_insert and 0.38-0.54 in
// collect with 0.065 nodes per key, against 1.02-1.06, 0.46-0.47 and 0.133
// for 14 entries (a 256-byte block): half the nodes, for as fast a commit.
inline constexpr std::uint32_t kLeaf = 30;

template <class K, class V, class A>
struct Inner;
template <class K, class V, class A>
struct Block;

// The header both node kinds share, and the type a tree pointer points to:
// the reference count, the subtree aug, and height and weight packed in one
// word (7 bits of height — an AVL tree needs height > 127 only beyond 2^87
// nodes — under 57 bits of weight). An empty augmentation occupies no
// storage via [[no_unique_address]]. Height 1 is exactly a Block: every
// Inner holds more than kLeaf entries, so it has a child and height >= 2.
// `stamp` sits in the padding after `refs`: the multi_insert sequence
// number that wrote a block, and on a root the one that produced the
// version (0: not written by multi_insert). It is set only on nodes the
// writer still holds alone and never changes what a tree holds.
template <class K, class V, class A = NoAug<K, V>>
struct Node {
  static constexpr std::uint32_t kHeightBits = 7;
  static constexpr std::uint64_t kHeightMask = (1u << kHeightBits) - 1;

  std::atomic<std::uint32_t> refs{1};
  std::uint32_t stamp = 0;
  [[no_unique_address]] typename A::T aug;
  std::uint64_t hw;  // weight << kHeightBits | height

  std::uint32_t height() const {
    return static_cast<std::uint32_t>(hw & kHeightMask);
  }
  std::uint64_t weight() const { return hw >> kHeightBits; }
  bool is_block() const { return height() == 1; }

  Inner<K, V, A>* inner() { return static_cast<Inner<K, V, A>*>(this); }
  const Inner<K, V, A>* inner() const {
    return static_cast<const Inner<K, V, A>*>(this);
  }
  Block<K, V, A>* block() { return static_cast<Block<K, V, A>*>(this); }
  const Block<K, V, A>* block() const {
    return static_cast<const Block<K, V, A>*>(this);
  }

 protected:
  Node(const typename A::T& a, std::uint64_t weight, std::uint32_t height)
      : aug(a), hw(weight << kHeightBits | height) {}
};

template <class K, class V, class A>
inline std::uint32_t height_of(const Node<K, V, A>* t) {
  return t != nullptr ? t->height() : 0;
}

template <class K, class V, class A>
inline std::uint64_t weight_of(const Node<K, V, A>* t) {
  return t != nullptr ? t->weight() : 0;
}

template <class K, class V, class A>
inline typename A::T aug_of(const Node<K, V, A>* t) {
  return t != nullptr ? t->aug : A::zero();
}

// One entry over two children. A NoAug<u64, u64> Inner is 48 bytes.
template <class K, class V, class A>
struct Inner : Node<K, V, A> {
  Node<K, V, A>* left;
  Node<K, V, A>* right;
  K key;
  V val;

  Inner(const K& k, const V& v, Node<K, V, A>* l, Node<K, V, A>* r)
      : Node<K, V, A>(A::combine(aug_of(l), A::leaf(k, v), aug_of(r)),
                      1 + weight_of(l) + weight_of(r),
                      1 + std::max(height_of(l), height_of(r))),
        left(l),
        right(r),
        key(k),
        val(v) {}
};

// A sorted run of 1..kLeaf entries, keys and values in separate arrays so
// a search reads only keys. Slots at or past size() hold default values.
// Bit i of `written` says slot i was written by multi_insert `stamp` (see
// detail::is_hot); it fills the tail of the block's pool size class.
template <class K, class V, class A>
struct Block : Node<K, V, A> {
  static_assert(kLeaf <= 32, "Block::written has one bit per slot");

  K keys[kLeaf];
  V vals[kLeaf];
  std::uint32_t written = 0;

  Block() : Node<K, V, A>(A::zero(), 0, 1) {}

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(this->weight());
  }

  // Index of the first key >= k (size() if none); upper: first key > k.
  std::uint32_t lower(const K& k) const {
    return static_cast<std::uint32_t>(std::lower_bound(keys, keys + size(),
                                                       k) - keys);
  }
  std::uint32_t upper(const K& k) const {
    return static_cast<std::uint32_t>(std::upper_bound(keys, keys + size(),
                                                       k) - keys);
  }

  // Aggregate over the entries [from, to); zero for an empty range.
  typename A::T fold(std::uint32_t from, std::uint32_t to) const {
    typename A::T acc = A::zero();
    for (std::uint32_t i = from; i < to; ++i) {
      acc = A::combine(acc, A::leaf(keys[i], vals[i]), A::zero());
    }
    return acc;
  }

  // Publishes the first n slots as the block's entries.
  void seal(std::uint32_t n) {
    this->hw = std::uint64_t{n} << Node<K, V, A>::kHeightBits | 1;
    this->aug = fold(0, n);
  }
};

// The allocation policy every node goes through — the explicit seam
// between the tree algorithms and the alloc/ slab pool. `create`/`destroy`
// are the unit operations (both node kinds fit a pool size class);
// `free_batch` hands an exact freed set's raw storage (destructors already
// run) back to the pool wholesale, which is what makes a precise collect
// O(freed) in the allocator too, not just in the traversal. Both node
// kinds are counted in live_nodes and, under obs, in live bytes.
struct NodeAlloc {
  template <class N, class... Args>
  static N* create(Args&&... args) {
    const long long now =
        g_live_nodes.fetch_add(1, std::memory_order_relaxed) + 1;
    if (obs::enabled()) note_nodes_alloc(now, sizeof(N));
    return alloc::create<N>(std::forward<Args>(args)...);
  }

  template <class N>
  static void destroy(N* n) {
    alloc::destroy(n);
    g_live_nodes.fetch_sub(1, std::memory_order_relaxed);
    if (obs::enabled()) note_nodes_freed(sizeof(N));
  }

  template <class N>
  static void free_batch(std::vector<void*>& mem) {
    alloc::deallocate_batch(mem.data(), mem.size(), sizeof(N));
    mem.clear();
  }
};

// Takes an additional owned reference to `t` (which may be null).
template <class K, class V, class A>
inline Node<K, V, A>* share(Node<K, V, A>* t) {
  if (t != nullptr) t->refs.fetch_add(1, std::memory_order_relaxed);
  return t;
}

// Releases one owned reference to `t` and frees every node that becomes
// unreachable. Iterative, so no tree depth can overflow the stack, and the
// work is O(freed + 1): one visit per freed node plus one decrement per
// edge crossing out of the freed set. Returns the number of nodes freed.
template <class K, class V, class A>
std::size_t collect(Node<K, V, A>* t) {
  if (t == nullptr ||
      t->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return 0;
  }
  // Collect pauses are the timeline event GC papers plot; the span only
  // covers calls that actually free (the early returns above are the hot
  // no-op path). Nested collects through ~V emit nested spans.
  obs::TraceSpan span("ftree/collect");
  // The thread-local stack is reused across calls so steady-state version
  // drops don't reallocate it — but destroying a dead node can reenter
  // collect at this very instantiation when V's destructor drops another
  // tree of the same type (map-of-maps payloads, txn batching vectors, the
  // inverted index). The in-use guard routes such nested calls to plain
  // local stacks, leaving the outer iteration's state intact; only the
  // outermost frame — the steady-state path — touches the shared ones.
  struct Buffers {
    std::vector<Node<K, V, A>*> stack;
    std::vector<void*> inners;  // freed raw storage, one list per kind
    std::vector<void*> blocks;
  };
  thread_local Buffers shared;
  thread_local bool shared_in_use = false;
  Buffers local;
  const bool outermost = !shared_in_use;
  Buffers& s = outermost ? shared : local;
  if (outermost) {
    shared_in_use = true;
    s.stack.clear();
    s.inners.clear();
    s.blocks.clear();
  }
  // Destructors run inline (a payload's ~V may legitimately reenter
  // collect), but the freed RAW STORAGE is batched and returned to the
  // allocator in one deallocate_batch per kind at the end — the whole
  // freed set flows back to the thread cache / depot wholesale instead of
  // one heap free at a time.
  s.stack.push_back(t);
  while (!s.stack.empty()) {
    Node<K, V, A>* dead = s.stack.back();
    s.stack.pop_back();
    if (dead->is_block()) {
      Block<K, V, A>* b = dead->block();
      b->~Block();  // may reenter collect through ~V; see guard above
      s.blocks.push_back(b);
      continue;
    }
    Inner<K, V, A>* in = dead->inner();
    for (Node<K, V, A>* child : {in->left, in->right}) {
      if (child != nullptr &&
          child->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        s.stack.push_back(child);
      }
    }
    in->~Inner();
    s.inners.push_back(in);
  }
  const std::size_t inners = s.inners.size();
  const std::size_t blocks = s.blocks.size();
  NodeAlloc::free_batch<Inner<K, V, A>>(s.inners);
  NodeAlloc::free_batch<Block<K, V, A>>(s.blocks);
  if (outermost) shared_in_use = false;
  const std::size_t freed = inners + blocks;
  g_live_nodes.fetch_sub(static_cast<long long>(freed),
                         std::memory_order_relaxed);
  if (obs::enabled()) {
    note_nodes_freed(inners * sizeof(Inner<K, V, A>) +
                     blocks * sizeof(Block<K, V, A>));
  }
  span.set_arg(freed);
  return freed;
}

// Exact-reachability oracle for the Thm 4.2 checks: the number of distinct
// nodes reachable from `roots`. At a quiescent point it must equal the live
// nodes of those versions, and collecting a retired version must free
// exactly reachable({old} + survivors) - reachable(survivors). Debug-only:
// O(reachable) time and a hash set of that size, for tests.
template <class K, class V, class A>
std::size_t reachable_nodes(const std::vector<const Node<K, V, A>*>& roots) {
  std::unordered_set<const Node<K, V, A>*> seen;
  std::vector<const Node<K, V, A>*> stack(roots.begin(), roots.end());
  while (!stack.empty()) {
    const Node<K, V, A>* t = stack.back();
    stack.pop_back();
    if (t == nullptr || !seen.insert(t).second || t->is_block()) continue;
    stack.push_back(t->inner()->left);
    stack.push_back(t->inner()->right);
  }
  return seen.size();
}

namespace detail {

// Whether the caller's owned reference is the only one. Stable once seen:
// we hold a reference, so it is ours, and no other thread can legitimately
// share or drop a node it doesn't own.
template <class K, class V, class A>
inline bool unique(const Node<K, V, A>* t) {
  return t->refs.load(std::memory_order_acquire) == 1;
}

// Releases an owned reference to block `b`, freeing it if it was the last.
template <class K, class V, class A>
inline void drop(Block<K, V, A>* b) {
  if (unique(b) || b->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    NodeAlloc::destroy(b);
  }
}

// A new block over entries [from, to) of `b` (null when empty); `b` is
// only read.
template <class K, class V, class A>
Node<K, V, A>* slice(const Block<K, V, A>* b, std::uint32_t from,
                     std::uint32_t to) {
  if (from >= to) return nullptr;
  Block<K, V, A>* out = NodeAlloc::create<Block<K, V, A>>();
  std::copy(b->keys + from, b->keys + to, out->keys);
  std::copy(b->vals + from, b->vals + to, out->vals);
  out->seal(to - from);
  return out;
}

// Consumes `b` and returns its first n entries, truncating `b` in place
// when the caller holds the only reference.
template <class K, class V, class A>
Node<K, V, A>* prefix(Block<K, V, A>* b, std::uint32_t n) {
  if (n == b->size()) return b;
  if (n == 0 || !unique(b)) {
    Node<K, V, A>* out = slice(b, 0, n);
    drop(b);
    return out;
  }
  if constexpr (!std::is_trivially_destructible_v<K> ||
                !std::is_trivially_destructible_v<V>) {
    // Vacated slots must not keep payloads (and what they own) alive.
    std::fill(b->keys + n, b->keys + b->size(), K{});
    std::fill(b->vals + n, b->vals + b->size(), V{});
  }
  b->seal(n);
  return b;
}

// A new block over sorted entries (null when empty; at most kLeaf).
template <class K, class V, class A>
Node<K, V, A>* make_block(std::span<const std::pair<K, V>> entries) {
  if (entries.empty()) return nullptr;
  assert(entries.size() <= kLeaf);
  Block<K, V, A>* b = NodeAlloc::create<Block<K, V, A>>();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    b->keys[i] = entries[i].first;
    b->vals[i] = entries[i].second;
  }
  b->seal(static_cast<std::uint32_t>(entries.size()));
  return b;
}

// Packs l < k < r (blocks or null, at most kLeaf entries in all) into one
// block, appending to `l` in place when the caller holds its only
// reference. Consumes l and r.
template <class K, class V, class A>
Node<K, V, A>* pack(Node<K, V, A>* l, const K& k, const V& v,
                    Node<K, V, A>* r) {
  Block<K, V, A>* out;
  std::uint32_t n = 0;
  if (l != nullptr && unique(l)) {
    out = l->block();
    n = out->size();
    out->written &= (std::uint32_t{1} << n) - 1;  // n < kLeaf; see Block
  } else {
    out = NodeAlloc::create<Block<K, V, A>>();
    if (l != nullptr) {
      const Block<K, V, A>* lb = l->block();
      n = lb->size();
      std::copy(lb->keys, lb->keys + n, out->keys);
      std::copy(lb->vals, lb->vals + n, out->vals);
      drop(l->block());
    }
  }
  out->keys[n] = k;
  out->vals[n] = v;
  ++n;
  if (r != nullptr) {
    const Block<K, V, A>* rb = r->block();
    std::copy(rb->keys, rb->keys + rb->size(), out->keys + n);
    std::copy(rb->vals, rb->vals + rb->size(), out->vals + n);
    n += rb->size();
    drop(r->block());
  }
  out->seal(n);
  return out;
}

}  // namespace detail

// The node constructor: one owned reference to a tree over l < k < r,
// owning the references `l` and `r` (no count adjustment: ownership
// transfers in). A result of at most kLeaf entries is packed into one
// block; anything larger is a new Inner over l and r.
template <class K, class V, class A>
Node<K, V, A>* make_node(const K& k, const V& v, Node<K, V, A>* l,
                         Node<K, V, A>* r) {
  if (weight_of(l) + weight_of(r) < kLeaf) return detail::pack(l, k, v, r);
  return NodeAlloc::create<Inner<K, V, A>>(k, v, l, r);
}

// Deconstructs an owned reference to `t` (non-null): copies out an entry,
// hands the caller owned references to the trees on either side of it, and
// releases `t`. An Inner hands back its entry and children; a block its
// middle entry and two half-blocks. When the caller holds the only
// reference the children's counts are stolen rather than bumped (and a
// block's left half reuses it), so hot single-version paths touch each
// count once.
template <class K, class V, class A>
inline void expose(Node<K, V, A>* t, Node<K, V, A>** l, Node<K, V, A>** r,
                   K* k, V* v) {
  assert(t != nullptr);
  if (t->is_block()) {
    Block<K, V, A>* b = t->block();
    const std::uint32_t n = b->size();
    const std::uint32_t mid = n / 2;
    *k = b->keys[mid];
    *v = b->vals[mid];
    *r = detail::slice(b, mid + 1, n);
    *l = detail::prefix(b, mid);
    return;
  }
  Inner<K, V, A>* in = t->inner();
  *k = in->key;
  *v = in->val;
  if (detail::unique(t)) {
    *l = in->left;
    *r = in->right;
    NodeAlloc::destroy(in);
  } else {
    // Shared with other versions: bump the children BEFORE dropping t (we
    // still own t, so its child references pin them), then check whether
    // our drop turned out to be the last — a concurrent collect of another
    // version sharing t may have released its reference between our load
    // above and the fetch_sub below. Ignoring that result would leak t and
    // strand one count on each child.
    *l = share(in->left);
    *r = share(in->right);
    if (t->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // We were the last owner after all. Free t, dropping its child
      // references — which cannot hit zero, because the shares above are
      // ours and still outstanding.
      if (in->left != nullptr) {
        in->left->refs.fetch_sub(1, std::memory_order_acq_rel);
      }
      if (in->right != nullptr) {
        in->right->refs.fetch_sub(1, std::memory_order_acq_rel);
      }
      NodeAlloc::destroy(in);
    }
  }
}

// Builds a node over (l, k/v, r) when their heights differ by at most two,
// restoring the AVL invariant with at most a double rotation. This is the
// rebalancing step shared by insert and join. Consumes l and r.
template <class K, class V, class A>
Node<K, V, A>* balance_node(Node<K, V, A>* l, const K& k, const V& v,
                            Node<K, V, A>* r) {
  const std::uint32_t hl = height_of(l);
  const std::uint32_t hr = height_of(r);
  if (hl > hr + 1) {
    Node<K, V, A>*ll, *lr;
    K lk;
    V lv;
    expose(l, &ll, &lr, &lk, &lv);
    if (height_of(ll) >= height_of(lr)) {
      return make_node(lk, lv, ll, make_node(k, v, lr, r));
    }
    Node<K, V, A>*ml, *mr;
    K mk;
    V mv;
    expose(lr, &ml, &mr, &mk, &mv);
    return make_node(mk, mv, make_node(lk, lv, ll, ml),
                     make_node(k, v, mr, r));
  }
  if (hr > hl + 1) {
    Node<K, V, A>*rl, *rr;
    K rk;
    V rv;
    expose(r, &rl, &rr, &rk, &rv);
    if (height_of(rr) >= height_of(rl)) {
      return make_node(rk, rv, make_node(k, v, l, rl), rr);
    }
    Node<K, V, A>*ml, *mr;
    K mk;
    V mv;
    expose(rl, &ml, &mr, &mk, &mv);
    return make_node(mk, mv, make_node(k, v, l, ml),
                     make_node(rk, rv, mr, rr));
  }
  return make_node(k, v, l, r);
}

// Fork-join granularity for the bulk operations: a recursive step forks
// only when both sides carry a quarter of this many estimated node copies
// (fork_work), so the fork cost is always amortized. Tunable (MVCC_GRAIN via
// config().grain, default 2048, floored at kGrainFloor) for grain sweeps;
// resolved once per process, so set it before the first bulk op.
inline std::uint64_t bulk_grain() {
  static const std::uint64_t g = static_cast<std::uint64_t>(config().grain);
  return g;
}

// Leaf blocks that hold n sorted entries: B blocks and their B - 1
// separators hold up to B * (kLeaf + 1) - 1 entries.
inline std::uint64_t blocks_for(std::uint64_t n) {
  return (n + kLeaf + 1) / (kLeaf + 1);
}

// A key's block copy, in Inner copies. Counted as one node, like the
// copies BM_TreeCommitStages counts, against which batch_work is checked.
inline constexpr std::uint64_t kLeafWork = 1;

// Estimated node copies, in Inner copies, for applying m sorted keys to a
// tree of height h. The m root-to-block paths share their top ~log2(m)
// levels, and h counts the block level and the deepest path, about one
// level below the mean, so each key copies about h - bit_width(m) - 2
// Inners plus its block (BM_TreeCommitStages, per key: 7.5 nodes measured
// against 8 estimated at h = 19, m = 900; 8.5 against 9 at h = 17,
// m = 120). Into an empty tree it is the cost of building the batch, a
// block and a separator per block. Freeing the retired version visits
// about as many nodes, so commit sizing uses it too.
inline std::uint64_t batch_work(std::uint64_t m, std::uint32_t h) {
  if (h == 0) return blocks_for(m) * (kLeafWork + 1);
  const auto skip = static_cast<std::uint64_t>(std::bit_width(m)) + 2;
  return m * ((h > skip ? h - skip : 0) + kLeafWork);
}

// Joins l < k < r into one AVL tree, for arbitrary height difference.
// Consumes l and r. O(|h(l) - h(r)|).
template <class K, class V, class A>
Node<K, V, A>* join(Node<K, V, A>* l, const K& k, const V& v,
                    Node<K, V, A>* r) {
  const std::uint32_t hl = height_of(l);
  const std::uint32_t hr = height_of(r);
  if (hl > hr + 1) {
    Node<K, V, A>*ll, *lr;
    K lk;
    V lv;
    expose(l, &ll, &lr, &lk, &lv);
    return balance_node(ll, lk, lv, join(lr, k, v, r));
  }
  if (hr > hl + 1) {
    Node<K, V, A>*rl, *rr;
    K rk;
    V rv;
    expose(r, &rl, &rr, &rk, &rv);
    return balance_node(join(l, k, v, rl), rk, rv, rr);
  }
  return make_node(k, v, l, r);
}

template <class K, class V, class A>
struct SplitResult {
  Node<K, V, A>* left;
  Node<K, V, A>* right;
  bool found;
  V value;
};

// Splits `t` at `k` into keys < k and keys > k, reporting k's value if
// present. Consumes `t`. O(log n); the block `k` falls in is cut in two.
template <class K, class V, class A>
SplitResult<K, V, A> split(Node<K, V, A>* t, const K& k) {
  if (t == nullptr) return {nullptr, nullptr, false, V{}};
  if (t->is_block()) {
    Block<K, V, A>* b = t->block();
    const std::uint32_t i = b->lower(k);
    const bool found = i < b->size() && !(k < b->keys[i]);
    if (i == 0 && !found) return {nullptr, t, false, V{}};
    SplitResult<K, V, A> s{nullptr, nullptr, found,
                           found ? b->vals[i] : V{}};
    s.right = detail::slice(b, i + (found ? 1 : 0), b->size());
    s.left = detail::prefix(b, i);
    return s;
  }
  Node<K, V, A>*l, *r;
  K tk;
  V tv;
  expose(t, &l, &r, &tk, &tv);
  if (k < tk) {
    SplitResult<K, V, A> s = split(l, k);
    return {s.left, join(s.right, tk, tv, r), s.found, s.value};
  }
  if (tk < k) {
    SplitResult<K, V, A> s = split(r, k);
    return {join(l, tk, tv, s.left), s.right, s.found, s.value};
  }
  return {l, r, true, tv};
}

namespace detail {

// Estimated node copies each side of a step needs before it forks: a
// quarter grain (512 at the default grain), tens of microseconds of work
// against a fork's few. A commit-sized batch (about a hundred keys into a
// big map) thus forks once, at the top. Measured on a 4-vCPU host: with no
// fork, cold-cache commits (uniform keys, a spare CPU) got slower; with
// about three forks per commit, a CPU-bound sharded writer lost a quarter
// of its throughput.
inline std::uint64_t fork_work() { return bulk_grain() / 4; }

// Resolves a caller-supplied worker budget: positive means exactly that
// many workers, zero (the default) means config().threads (MVCC_THREADS).
// Work that can never fork keeps a budget of one and skips the
// worker-count resolution entirely (no getenv/sysconf traffic).
inline int bulk_budget(int threads, std::uint64_t work) {
  if (work < 2 * fork_work()) return 1;
  return threads > 0 ? threads : config().threads;
}

// The one fork test of the bulk ops: a step forks only while budget
// remains and both sides carry at least fork_work() estimated copies.
inline bool should_fork(int budget, std::uint64_t left_work,
                        std::uint64_t right_work) {
  return budget > 1 && std::min(left_work, right_work) >= fork_work();
}

// Recursive core of build_sorted with a fork-join worker budget: spreads
// the entries evenly over `blocks` leaf blocks under a perfectly balanced
// spine, so sibling heights differ by at most one. The two halves of the
// span are disjoint and each builds only its own nodes, so a forked half
// touches no reference of the caller's, and the result is identical for
// every budget.
template <class K, class V, class A>
Node<K, V, A>* build_sorted_rec(std::span<const std::pair<K, V>> entries,
                                std::uint64_t blocks, int budget) {
  if (blocks <= 1) return make_block<K, V, A>(entries);
  const std::uint64_t lblocks = blocks / 2;
  const std::uint64_t rblocks = blocks - lblocks;
  const std::size_t mid =
      static_cast<std::size_t>((entries.size() + 1) * lblocks / blocks - 1);
  const auto le = entries.first(mid);
  const auto re = entries.subspan(mid + 1);
  if (should_fork(budget, batch_work(le.size(), 0),
                  batch_work(re.size(), 0))) {
    const int lb = budget / 2;
    const int rb = budget - lb;
    auto [l, r] = exec::invoke2(
        [le, lblocks, lb] {
          return build_sorted_rec<K, V, A>(le, lblocks, lb);
        },
        [re, rblocks, rb] {
          return build_sorted_rec<K, V, A>(re, rblocks, rb);
        });
    return make_node<K, V, A>(entries[mid].first, entries[mid].second, l, r);
  }
  return make_node<K, V, A>(entries[mid].first, entries[mid].second,
                            build_sorted_rec<K, V, A>(le, lblocks, budget),
                            build_sorted_rec<K, V, A>(re, rblocks, budget));
}

// Merges the sorted entries of block `b` and `batch` in key order, the
// batch winning on equal keys, calling emit(key, value, from_batch) for
// each result.
template <class K, class V, class A, class F>
void merge_entries(const Block<K, V, A>* b,
                   std::span<const std::pair<K, V>> batch, F&& emit) {
  const std::uint32_t n = b->size();
  std::uint32_t i = 0;
  for (const auto& [bk, bv] : batch) {
    while (i < n && b->keys[i] < bk) {
      emit(b->keys[i], b->vals[i], false);
      ++i;
    }
    if (i < n && !(bk < b->keys[i])) ++i;  // overwritten
    emit(bk, bv, true);
  }
  for (; i < n; ++i) emit(b->keys[i], b->vals[i], false);
}

// The block fast path of multi_insert and insert: merges a sorted batch
// into block `b` as one block copy, stamped `seq` with the batch's slots
// marked written, or — when the result overflows a block — builds the
// merged run into a small subtree (two half-blocks under one Inner for a
// slice of a few keys). `b` is borrowed: only read, never released.
template <class K, class V, class A>
Node<K, V, A>* merge_block(const Block<K, V, A>* b,
                           std::span<const std::pair<K, V>> batch,
                           int budget, std::uint32_t seq) {
  std::size_t n = 0;
  merge_entries(b, batch, [&n](const K&, const V&, bool) { ++n; });
  if (n <= kLeaf) {
    Block<K, V, A>* nb = NodeAlloc::create<Block<K, V, A>>();
    std::uint32_t i = 0;
    merge_entries(b, batch, [nb, &i](const K& k, const V& v, bool mine) {
      nb->keys[i] = k;
      nb->vals[i] = v;
      nb->written |= std::uint32_t{mine} << i;
      ++i;
    });
    nb->seal(i);
    nb->stamp = seq;
    return nb;
  }
  std::vector<std::pair<K, V>> merged;
  merged.reserve(n);
  merge_entries(b, batch, [&merged](const K& k, const V& v, bool) {
    merged.emplace_back(k, v);
  });
  return build_sorted_rec<K, V, A>(std::span<const std::pair<K, V>>(merged),
                                   blocks_for(n), budget);
}

// Path-copying insert-or-replace of one key, stamping the block it lands
// in with `seq`: the single-key descent of insert and multi_insert. `t` is
// borrowed (the caller keeps its reference, which pins the whole path):
// the path is read in place and only the untouched sibling at each level
// is shared into the copy.
template <class K, class V, class A>
Node<K, V, A>* insert_rec(Node<K, V, A>* t, const K& k, const V& v,
                          std::uint32_t seq) {
  if (t == nullptr) return make_node<K, V, A>(k, v, nullptr, nullptr);
  if (t->is_block()) {
    const std::pair<K, V> e(k, v);
    return merge_block(t->block(), std::span<const std::pair<K, V>>(&e, 1),
                       1, seq);
  }
  const Inner<K, V, A>* in = t->inner();
  if (k < in->key) {
    return balance_node(insert_rec(in->left, k, v, seq), in->key, in->val,
                        share(in->right));
  }
  if (in->key < k) {
    return balance_node(share(in->left), in->key, in->val,
                        insert_rec(in->right, k, v, seq));
  }
  return make_node(k, v, share(in->left), share(in->right));
}

// Whether `k` is hot in `t` for the multi_insert numbered `seq`: it is an
// Inner entry, or it sits in a block slot that multi_insert seq - 1, the
// one that produced the version being replaced, wrote. A read-only walk
// down k's path.
template <class K, class V, class A>
bool is_hot(const Node<K, V, A>* t, const K& k, std::uint32_t seq) {
  while (t != nullptr) {
    if (t->is_block()) {
      const Block<K, V, A>* b = t->block();
      const std::uint32_t i = b->lower(k);
      return b->stamp != 0 && b->stamp == seq - 1 && i < b->size() &&
             !(k < b->keys[i]) && (b->written >> i & 1) != 0;
    }
    const Inner<K, V, A>* in = t->inner();
    if (k < in->key) {
      t = in->left;
    } else if (in->key < k) {
      t = in->right;
    } else {
      return true;
    }
  }
  return false;
}

// The prefetch pass of multi_insert: a slice of at most kPrefetchSlice keys
// is where the batch's root-to-block paths stop sharing cached upper levels
// and each key's last ~10 levels become one chain of dependent misses.
// Walking the keys one after another pays those chains back to back;
// walking kPrefetchLanes of them round-robin, one level per lane per turn,
// keeps that many misses in flight. At each Inner both children get a
// write-intent prefetch (the descent reads one and shares the other); at a
// block all its lines are prefetched for the merge.
inline constexpr std::size_t kPrefetchSlice = 64;
inline constexpr std::size_t kPrefetchLanes = 16;

// Walks the paths of `batch`'s keys in `t` (non-null) as above, prefetching
// as it goes, and returns the nodes visited: per key, the nodes `find` would
// read. Only reads; the caller's reference to `t` pins every node it
// touches.
template <class K, class V, class A>
std::size_t prefetch_paths(const Node<K, V, A>* t,
                           std::span<const std::pair<K, V>> batch) {
  struct Lane {
    const Node<K, V, A>* at;
    std::size_t key;
  };
  Lane lanes[kPrefetchLanes];
  std::size_t live = 0;
  std::size_t next = 0;
  std::size_t visited = 0;
  while (live < kPrefetchLanes && next < batch.size()) {
    lanes[live++] = {t, next++};
  }
  while (live > 0) {
    for (std::size_t i = 0; i < live;) {
      Lane& lane = lanes[i];
      const Node<K, V, A>* n = lane.at;
      ++visited;
      // The walk has no effect the compiler can see (a prefetch is not
      // one), so without this barrier it may delete the loads that carry
      // the walk, and the pass with them.
      asm volatile("" : : "r"(n) : "memory");
      const Node<K, V, A>* down = nullptr;
      if (n->is_block()) {
        // Pool blocks are only 16-byte aligned: the last byte's line too.
        const char* p = reinterpret_cast<const char*>(n->block());
        for (std::size_t off = 64; off < sizeof(Block<K, V, A>); off += 64) {
          __builtin_prefetch(p + off);
        }
        __builtin_prefetch(p + sizeof(Block<K, V, A>) - 1);
      } else {
        const Inner<K, V, A>* in = n->inner();
        __builtin_prefetch(in->left, 1);
        __builtin_prefetch(in->right, 1);
        const K& k = batch[lane.key].first;
        if (k < in->key) {
          down = in->left;
        } else if (in->key < k) {
          down = in->right;
        }
      }
      if (down != nullptr) {
        lane.at = down;
      } else if (next < batch.size()) {
        lane = {t, next++};
      } else {
        lane = lanes[--live];
        continue;
      }
      ++i;
    }
  }
  return visited;
}

// Recursive core of multi_insert, the one numbered `seq`: descends `t`
// with the sorted batch, handing each child the slice of keys that belongs
// under it, and rebuilds with join. `t` is borrowed, as in insert_rec: the
// descent reads the old version in place, without touching its counts, and
// shares only an untouched sibling into the new tree, so each copied level
// costs one count update instead of expose's three. The first slice of at
// most kPrefetchSlice keys (`warm` is still false) runs prefetch_paths over
// its keys before descending. A slice that reaches a block merges into one
// block copy stamped `seq`. Where a slice runs down to a single key above
// the blocks, the key is lifted only if it is hot (is_hot): it is split out
// of the subtree and joined back as its root, so a key written in two
// consecutive batches ends up at the top of the subtree its slice reached,
// and stays there while it is written. Zipf-hot keys thus stay near the
// root where reads find them fast. Any other single key is rewritten
// inside its block by a plain path copy, which keeps blocks whole under
// uniform writes: lifting every written key would split its block and copy
// about two more nodes. The two children and their slices are key-disjoint
// and the caller's reference pins both, so a fork can hand each side its
// own subtree: each side builds its own nodes and shares only nodes of its
// own subtree, so the counts stay exact and the result does not depend on
// execution order.
template <class K, class V, class A>
Node<K, V, A>* multi_insert_rec(Node<K, V, A>* t,
                                std::span<const std::pair<K, V>> batch,
                                int budget, std::uint32_t seq, bool warm) {
  if (batch.empty()) return share(t);
  if (t == nullptr) {
    return build_sorted_rec<K, V, A>(batch, blocks_for(batch.size()), budget);
  }
  if (t->is_block()) return merge_block(t->block(), batch, budget, seq);
  if (batch.size() == 1) {
    const auto& [bk, bv] = batch.front();
    if (!is_hot(t, bk, seq)) return insert_rec(t, bk, bv, seq);
    SplitResult<K, V, A> s = split(share(t), bk);
    return join(s.left, bk, bv, s.right);
  }
  if (!warm && batch.size() <= kPrefetchSlice) {
    prefetch_paths(t, batch);
    warm = true;
  }
  const Inner<K, V, A>* in = t->inner();
  Node<K, V, A>* l = in->left;
  Node<K, V, A>* r = in->right;
  const K& k = in->key;
  const auto at = std::lower_bound(
      batch.begin(), batch.end(), k,
      [](const std::pair<K, V>& e, const K& key) { return e.first < key; });
  const std::size_t lo = static_cast<std::size_t>(at - batch.begin());
  const bool hit = at != batch.end() && !(k < at->first);
  const V& v = hit ? at->second : in->val;
  const auto lb = batch.first(lo);
  const auto rb = batch.subspan(hit ? lo + 1 : lo);
  if (should_fork(budget, batch_work(lb.size(), height_of(l)),
                  batch_work(rb.size(), height_of(r)))) {
    const int lbud = budget / 2;
    const int rbud = budget - lbud;
    auto [nl, nr] = exec::invoke2(
        [l, lb, lbud, seq, warm] {
          return multi_insert_rec(l, lb, lbud, seq, warm);
        },
        [r, rb, rbud, seq, warm] {
          return multi_insert_rec(r, rb, rbud, seq, warm);
        });
    return join(nl, k, v, nr);
  }
  return join(multi_insert_rec(l, lb, budget, seq, warm), k, v,
              multi_insert_rec(r, rb, budget, seq, warm));
}

}  // namespace detail

// Path-copying insert-or-replace. Consumes `t`; returns the new version's
// root. O(log n) new nodes; everything off the search path is shared.
template <class K, class V, class A>
Node<K, V, A>* insert(Node<K, V, A>* t, const K& k, const V& v) {
  Node<K, V, A>* out = detail::insert_rec(t, k, v, 0);
  collect(t);
  return out;
}

// Builds a balanced tree over strictly increasing entries, packed into as
// few leaf blocks as hold them. O(n) work, forked across `threads` workers
// (0 = config().threads).
template <class K, class V, class A>
Node<K, V, A>* build_sorted(std::span<const std::pair<K, V>> entries,
                            int threads = 0) {
  const int budget =
      detail::bulk_budget(threads, batch_work(entries.size(), 0));
  return detail::build_sorted_rec<K, V, A>(entries,
                                           blocks_for(entries.size()), budget);
}

// Sorts a batch by key and keeps only the last entry per key, the form
// multi_insert expects (later updates win, matching repeated `insert`).
template <class K, class V>
void prepare_batch(std::vector<std::pair<K, V>>& batch) {
  std::stable_sort(
      batch.begin(), batch.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < batch.size();) {
    std::size_t j = i;
    while (j + 1 < batch.size() && !(batch[i].first < batch[j + 1].first)) {
      ++j;
    }
    batch[out++] = std::move(batch[j]);
    i = j + 1;
  }
  batch.resize(out);
}

// Applies a prepared (strictly increasing, see prepare_batch) batch in one
// bulk operation: one descent of `t` with the batch, splitting the version
// only where a slice of the batch runs down to one hot key (see
// multi_insert_rec). It is numbered one past the stamp of `t`'s root, and
// the new root carries that number, so the next multi_insert on it knows
// which keys this one wrote. Consumes `t`: the descent only borrows it, and
// it is dropped once at the end. O(m log(n/m + 1)) work; forks across
// `threads` workers (0 = config().threads) only where batch_work says both
// sides are worth it, so a commit-sized batch into a big version forks at
// most once. The result, stamps included, is bit-identical for every
// worker count.
template <class K, class V, class A>
Node<K, V, A>* multi_insert(Node<K, V, A>* t,
                            std::span<const std::pair<K, V>> batch,
                            int threads = 0) {
  // An unsorted batch would be misrouted silently by the descent.
  assert(std::adjacent_find(batch.begin(), batch.end(),
                            [](const auto& a, const auto& b) {
                              return !(a.first < b.first);
                            }) == batch.end());
  const int budget = detail::bulk_budget(
      threads, batch_work(batch.size(), height_of(t)));
  const std::uint32_t seq = (t != nullptr ? t->stamp : 0) + 1;
  Node<K, V, A>* out =
      detail::multi_insert_rec(t, batch, budget, seq, /*warm=*/false);
  collect(t);
  if (!batch.empty()) {
    assert(detail::unique(out));
    out->stamp = seq;  // a new root, not yet visible to any other thread
  }
  return out;
}

// Read-only point lookup; returns null when absent.
template <class K, class V, class A>
const V* find(const Node<K, V, A>* t, const K& k) {
  while (t != nullptr) {
    if (t->is_block()) {
      const Block<K, V, A>* b = t->block();
      const std::uint32_t i = b->lower(k);
      return i < b->size() && !(k < b->keys[i]) ? &b->vals[i] : nullptr;
    }
    const Inner<K, V, A>* in = t->inner();
    if (k < in->key) {
      t = in->left;
    } else if (in->key < k) {
      t = in->right;
    } else {
      return &in->val;
    }
  }
  return nullptr;
}

// Aggregate over keys >= lo within `t`.
template <class K, class V, class A>
typename A::T aug_ge(const Node<K, V, A>* t, const K& lo) {
  if (t == nullptr) return A::zero();
  if (t->is_block()) return t->block()->fold(t->block()->lower(lo),
                                             t->block()->size());
  const Inner<K, V, A>* in = t->inner();
  if (in->key < lo) return aug_ge(in->right, lo);
  return A::combine(aug_ge(in->left, lo), A::leaf(in->key, in->val),
                    aug_of(in->right));
}

// Aggregate over keys <= hi within `t`.
template <class K, class V, class A>
typename A::T aug_le(const Node<K, V, A>* t, const K& hi) {
  if (t == nullptr) return A::zero();
  if (t->is_block()) return t->block()->fold(0, t->block()->upper(hi));
  const Inner<K, V, A>* in = t->inner();
  if (hi < in->key) return aug_le(in->left, hi);
  return A::combine(aug_of(in->left), A::leaf(in->key, in->val),
                    aug_le(in->right, hi));
}

// Aggregate over keys in [lo, hi]; the empty range yields A::zero(). Reads
// O(log n) nodes by consuming whole-subtree aggregates at the boundary.
template <class K, class V, class A>
typename A::T aug_range(const Node<K, V, A>* t, const K& lo, const K& hi) {
  if (t == nullptr) return A::zero();
  if (t->is_block()) {
    const Block<K, V, A>* b = t->block();
    return b->fold(b->lower(lo), b->upper(hi));
  }
  const Inner<K, V, A>* in = t->inner();
  if (in->key < lo) return aug_range(in->right, lo, hi);
  if (hi < in->key) return aug_range(in->left, lo, hi);
  return A::combine(aug_ge(in->left, lo), A::leaf(in->key, in->val),
                    aug_le(in->right, hi));
}

// In-order traversal: f(key, value) for every entry.
template <class K, class V, class A, class F>
void for_each(const Node<K, V, A>* t, F&& f) {
  if (t == nullptr) return;
  if (t->is_block()) {
    const Block<K, V, A>* b = t->block();
    for (std::uint32_t i = 0; i < b->size(); ++i) f(b->keys[i], b->vals[i]);
    return;
  }
  const Inner<K, V, A>* in = t->inner();
  for_each(in->left, f);
  f(in->key, in->val);
  for_each(in->right, f);
}

// In-order traversal with early exit: f(key, value) returns false to stop.
// Returns whether the traversal ran to completion. Powers bounded scans
// like the inverted index's limit-k intersection.
template <class K, class V, class A, class F>
bool for_each_while(const Node<K, V, A>* t, F&& f) {
  if (t == nullptr) return true;
  if (t->is_block()) {
    const Block<K, V, A>* b = t->block();
    for (std::uint32_t i = 0; i < b->size(); ++i) {
      if (!f(b->keys[i], b->vals[i])) return false;
    }
    return true;
  }
  const Inner<K, V, A>* in = t->inner();
  if (!for_each_while(in->left, f)) return false;
  if (!f(in->key, in->val)) return false;
  return for_each_while(in->right, f);
}

}  // namespace mvcc::ftree
