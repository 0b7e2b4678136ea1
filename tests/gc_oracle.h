// The exact-reachability GC oracle (Thm 4.2) at a quiescent point of a
// version-managed map: the live tree nodes are exactly those reachable from
// the versions still held, and releasing a retired version frees exactly
// the nodes reachable from it and from no surviving version.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "mvcc/ftree/ops.h"

namespace mvcc::gc_oracle {

// The freed-set oracle for dropping the `retired` roots while `survivors`
// stay held, in any order and from any threads: together the drops free
// exactly the nodes reachable from a retired root and from no survivor.
// Quiescent callers only.
template <class K, class V, class A>
long long freed_by(const std::vector<const ftree::Node<K, V, A>*>& retired,
                   const std::vector<const ftree::Node<K, V, A>*>& survivors) {
  auto all = retired;
  all.insert(all.end(), survivors.begin(), survivors.end());
  return static_cast<long long>(ftree::reachable_nodes(all)) -
         static_cast<long long>(ftree::reachable_nodes(survivors));
}

// `take()` returns a handle that pins the map's current version(s),
// `roots(handle)` the tree roots it holds, and `commit()` publishes at
// least one newer version and returns once the map is quiescent again
// (every retired version freed or pinned). `base_live` is live_nodes()
// before the map existed. Checks reachable == live at both quiescent
// points, then that dropping the older handle frees exactly
// reachable(old + current) - reachable(current).
template <class Take, class Roots, class Commit>
void expect_exact_collect(long long base_live, Take take, Roots roots,
                          Commit commit) {
  auto live = [base_live] { return ftree::live_nodes() - base_live; };
  std::optional old(take());
  const auto old_roots = roots(*old);
  EXPECT_EQ(live(), static_cast<long long>(ftree::reachable_nodes(old_roots)))
      << "live nodes other than the current version's";
  commit();
  const auto cur = take();
  const auto cur_roots = roots(cur);
  auto both_roots = old_roots;
  both_roots.insert(both_roots.end(), cur_roots.begin(), cur_roots.end());
  EXPECT_EQ(live(), static_cast<long long>(ftree::reachable_nodes(both_roots)))
      << "live nodes outside the two held versions";
  const long long freed = freed_by(old_roots, cur_roots);
  EXPECT_GT(freed, 0) << "commit() published no newer version";
  const long long before = ftree::live_nodes();
  old.reset();
  EXPECT_EQ(before - ftree::live_nodes(), freed)
      << "collect did not free exactly the unreachable nodes";
}

}  // namespace mvcc::gc_oracle
