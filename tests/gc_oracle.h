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
  const auto both =
      static_cast<long long>(ftree::reachable_nodes(both_roots));
  const auto survivors =
      static_cast<long long>(ftree::reachable_nodes(cur_roots));
  EXPECT_EQ(live(), both) << "live nodes outside the two held versions";
  EXPECT_GT(both, survivors) << "commit() published no newer version";
  const long long before = ftree::live_nodes();
  old.reset();
  EXPECT_EQ(before - ftree::live_nodes(), both - survivors)
      << "collect did not free exactly the unreachable nodes";
}

}  // namespace mvcc::gc_oracle
