// Value-semantic facade over the raw functional-tree node layer.
//
// An FMap is one version of an ordered map: copying it is O(1) (shares the
// whole tree, bumping one reference count), every "mutating" operation
// returns a new version, and destruction releases exactly this version's
// private nodes. This is the handle type the vm/ and txn/ layers traffic
// in: a reader pins a version by holding an FMap, and precise GC falls out
// of the destructor.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "mvcc/ftree/ops.h"

namespace mvcc::ftree {

template <class K, class V, class A = NoAug<K, V>>
class FMap {
 public:
  using Entry = std::pair<K, V>;

  FMap() = default;

  FMap(const FMap& other) : root_(ftree::share(other.root_)) {}

  FMap(FMap&& other) noexcept : root_(std::exchange(other.root_, nullptr)) {}

  FMap& operator=(const FMap& other) {
    if (this != &other) {
      Node<K, V, A>* next = ftree::share(other.root_);
      ftree::collect(root_);
      root_ = next;
    }
    return *this;
  }

  FMap& operator=(FMap&& other) noexcept {
    if (this != &other) {
      ftree::collect(root_);
      root_ = std::exchange(other.root_, nullptr);
    }
    return *this;
  }

  ~FMap() { ftree::collect(root_); }

  // Builds a map from arbitrary entries; on duplicate keys the last entry
  // wins, matching repeated inserted(). O(n log n) for the sort, O(n) build.
  static FMap from_entries(std::vector<Entry> entries) {
    prepare_batch(entries);
    return FMap(build_sorted<K, V, A>(std::span<const Entry>(entries)));
  }

  // A new version with k -> v set (insert-or-replace). O(log n).
  FMap inserted(const K& k, const V& v) const {
    return FMap(ftree::insert(ftree::share(root_), k, v));
  }

  // A new version with a prepared (see prepare_batch) batch applied in one
  // descent of this version's tree; the batch's values win on duplicate
  // keys. O(m log(n/m + 1)) work; forks across `threads` workers
  // (0 = config().threads, 1 = sequential) only where both sides have work
  // enough to pay for it, so a commit-sized batch forks at most once. The
  // result is identical for every worker count.
  FMap multi_inserted(std::span<const Entry> batch, int threads = 0) const {
    return FMap(multi_insert(ftree::share(root_), batch, threads));
  }

  // Read-only lookup; the pointer is valid while any version holding the
  // node is alive. O(log n).
  const V* find(const K& k) const { return ftree::find(root_, k); }

  // Aggregate of A over keys in [lo, hi]. O(log n).
  typename A::T aug_range(const K& lo, const K& hi) const {
    return ftree::aug_range(root_, lo, hi);
  }

  std::size_t size() const { return static_cast<std::size_t>(weight_of(root_)); }
  bool empty() const { return root_ == nullptr; }

  // All entries in key order. O(n).
  std::vector<Entry> to_vector() const {
    std::vector<Entry> out;
    out.reserve(size());
    ftree::for_each(root_,
                    [&out](const K& k, const V& v) { out.emplace_back(k, v); });
    return out;
  }

  // In-order traversal: f(key, value) for every entry.
  template <class F>
  void for_each(F&& f) const {
    ftree::for_each(root_, f);
  }

  // In-order traversal with early exit: f returns false to stop. Returns
  // whether the traversal ran to completion.
  template <class F>
  bool for_each_while(F&& f) const {
    return ftree::for_each_while(root_, f);
  }

  // The underlying version root; read-only, for tests and diagnostics.
  const Node<K, V, A>* root() const { return root_; }

 private:
  explicit FMap(Node<K, V, A>* root) : root_(root) {}

  Node<K, V, A>* root_ = nullptr;
};

}  // namespace mvcc::ftree
