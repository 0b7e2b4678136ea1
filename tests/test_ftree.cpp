// Tests for the raw functional-tree node layer: AVL balance bound, exact
// reference counting (live-node counter returns to zero), precision of
// collect across shared versions, and the fork-join parallel bulk ops
// (bit-identical results and exact refcounts at every worker count).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "mvcc/common/rng.h"
#include "mvcc/exec/pool.h"
#include "mvcc/ftree/fmap.h"
#include "mvcc/ftree/ops.h"
#include "mvcc/obs/obs.h"

namespace {

using namespace mvcc;
using N = ftree::Node<std::uint64_t, std::uint64_t>;

// Recursively validates order, AVL balance, cached height/weight/aug, the
// block layout (a block holds 1..kLeaf sorted entries at height 1, and an
// Inner more than kLeaf entries), and that every reachable node is
// referenced. Returns the height.
template <class A>
int check_invariants(const ftree::Node<std::uint64_t, std::uint64_t, A>* t,
                     const std::uint64_t* lo, const std::uint64_t* hi) {
  if (t == nullptr) return 0;
  EXPECT_GE(t->refs.load(), 1u);
  auto expect_in_range = [lo, hi](std::uint64_t k) {
    if (lo != nullptr) {
      EXPECT_LT(*lo, k);
    }
    if (hi != nullptr) {
      EXPECT_LT(k, *hi);
    }
  };
  if constexpr (!std::is_empty_v<typename A::T>) {
    std::uint64_t sum = 0;
    ftree::for_each(t, [&sum](std::uint64_t, std::uint64_t v) { sum += v; });
    EXPECT_EQ(t->aug, sum);
  }
  if (t->is_block()) {
    const auto* b = t->block();
    EXPECT_GE(b->size(), 1u);
    EXPECT_LE(b->size(), ftree::kLeaf);
    for (std::uint32_t i = 0; i < b->size(); ++i) {
      expect_in_range(b->keys[i]);
      if (i > 0) {
        EXPECT_LT(b->keys[i - 1], b->keys[i]);
      }
    }
    return 1;
  }
  const auto* in = t->inner();
  expect_in_range(in->key);
  EXPECT_GT(t->weight(), ftree::kLeaf) << "Inner small enough to be a block";
  const int hl = check_invariants(in->left, lo, &in->key);
  const int hr = check_invariants(in->right, &in->key, hi);
  EXPECT_LE(std::abs(hl - hr), 1) << "AVL violation at key " << in->key;
  EXPECT_EQ(t->height(), static_cast<std::uint32_t>(1 + std::max(hl, hr)));
  EXPECT_EQ(t->weight(),
            1 + ftree::weight_of(in->left) + ftree::weight_of(in->right));
  return 1 + std::max(hl, hr);
}

template <class A>
void expect_matches(const ftree::Node<std::uint64_t, std::uint64_t, A>* t,
                    const std::map<std::uint64_t, std::uint64_t>& want) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
  ftree::for_each(t, [&got](std::uint64_t k, std::uint64_t v) {
    got.emplace_back(k, v);
  });
  ASSERT_EQ(got.size(), want.size());
  auto it = want.begin();
  for (const auto& [k, v] : got) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

// AVL height bound: h <= 1.4405 log2(n + 2).
template <class A>
void expect_balanced(const ftree::Node<std::uint64_t, std::uint64_t, A>* t) {
  const int h = check_invariants(t, nullptr, nullptr);
  const double n = static_cast<double>(ftree::weight_of(t));
  EXPECT_LE(h, 1.4405 * std::log2(n + 2.0) + 1.0);
}

// Distinct nodes reachable from the given roots (the GC oracle).
std::size_t reachable(const std::vector<const N*>& roots) {
  return ftree::reachable_nodes(roots);
}

TEST(Ftree, InsertFindBasic) {
  const long long base_live = ftree::live_nodes();
  N* t = nullptr;
  for (std::uint64_t i = 0; i < 100; ++i) t = ftree::insert(t, i * 2, i);
  for (std::uint64_t i = 0; i < 100; ++i) {
    const std::uint64_t* v = ftree::find(t, i * 2);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i);
    EXPECT_EQ(ftree::find(t, i * 2 + 1), nullptr);
  }
  const std::size_t nodes = reachable({t});
  EXPECT_EQ(ftree::live_nodes() - base_live, static_cast<long long>(nodes));
  EXPECT_EQ(ftree::collect(t), nodes);
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(Ftree, InsertReplacesExistingKey) {
  const long long base_live = ftree::live_nodes();
  N* t = nullptr;
  t = ftree::insert(t, std::uint64_t{5}, std::uint64_t{1});
  t = ftree::insert(t, std::uint64_t{5}, std::uint64_t{2});
  EXPECT_EQ(ftree::weight_of(t), 1u);
  EXPECT_EQ(*ftree::find(t, std::uint64_t{5}), 2u);
  ftree::collect(t);
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(Ftree, BalancedAfterRandomInserts) {
  const long long base_live = ftree::live_nodes();
  Xoshiro256 rng(42);
  std::map<std::uint64_t, std::uint64_t> want;
  N* t = nullptr;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.next_below(40000);
    const std::uint64_t v = rng();
    t = ftree::insert(t, k, v);
    want[k] = v;
  }
  expect_balanced(t);
  expect_matches(t, want);
  const std::size_t nodes = reachable({t});
  EXPECT_LE(nodes, want.size());
  EXPECT_EQ(ftree::collect(t), nodes);
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(Ftree, BalancedAfterSequentialInserts) {
  const long long base_live = ftree::live_nodes();
  N* t = nullptr;
  for (std::uint64_t i = 0; i < 10000; ++i) t = ftree::insert(t, i, i);
  expect_balanced(t);
  ftree::collect(t);
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(Ftree, RefcountsExactAcrossManyVersions) {
  // Keep ten versions alive simultaneously, then collect them in an
  // arbitrary order; the global live-node counter must return to baseline.
  const long long base_live = ftree::live_nodes();
  Xoshiro256 rng(7);
  std::vector<N*> versions;
  N* t = nullptr;
  for (int v = 0; v < 10; ++v) {
    for (int i = 0; i < 500; ++i) {
      t = ftree::insert(t, rng.next_below(2000), rng());
    }
    versions.push_back(ftree::share(t));
  }
  ftree::collect(t);
  for (std::size_t i : {3u, 0u, 9u, 5u, 1u, 7u, 2u, 8u, 6u, 4u}) {
    ftree::collect(versions[i]);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(Ftree, CollectDerivedVersionPreservesSurvivor) {
  const long long base_live = ftree::live_nodes();
  Xoshiro256 rng(11);
  std::map<std::uint64_t, std::uint64_t> want;
  N* base = nullptr;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t k = rng.next_below(10000);
    const std::uint64_t v = rng();
    base = ftree::insert(base, k, v);
    want[k] = v;
  }
  const std::uint64_t n_base = ftree::weight_of(base);
  for (int round = 0; round < 50; ++round) {
    const long long live_before = ftree::live_nodes();
    N* derived = ftree::insert(ftree::share(base), rng.next_below(10000), rng());
    // The derived version's private footprint is one search path.
    const long long private_nodes = ftree::live_nodes() - live_before;
    EXPECT_LE(private_nodes, static_cast<long long>(base->height()) + 2);
    const std::size_t freed = ftree::collect(derived);
    EXPECT_EQ(static_cast<long long>(freed), private_nodes);
    EXPECT_EQ(ftree::live_nodes(), live_before);
  }
  // Survivor is fully intact after all derived versions died.
  EXPECT_EQ(ftree::weight_of(base), n_base);
  expect_balanced(base);
  expect_matches(base, want);
  ftree::collect(base);
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(Ftree, SplitPartitionsAndReportsValue) {
  const long long base_live = ftree::live_nodes();
  N* t = nullptr;
  for (std::uint64_t i = 0; i < 1000; ++i) t = ftree::insert(t, i * 2, i);
  auto s = ftree::split(t, std::uint64_t{500});
  EXPECT_TRUE(s.found);
  EXPECT_EQ(s.value, 250u);
  EXPECT_EQ(ftree::weight_of(s.left), 250u);   // keys 0..498
  EXPECT_EQ(ftree::weight_of(s.right), 749u);  // keys 502..1998
  check_invariants(s.left, nullptr, nullptr);
  check_invariants(s.right, nullptr, nullptr);
  ftree::collect(s.left);
  ftree::collect(s.right);

  N* u = ftree::insert(static_cast<N*>(nullptr), std::uint64_t{1},
                       std::uint64_t{1});
  auto miss = ftree::split(u, std::uint64_t{2});
  EXPECT_FALSE(miss.found);
  ftree::collect(miss.left);
  ftree::collect(miss.right);
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(Ftree, UnionMergesAndStaysBalanced) {
  const long long base_live = ftree::live_nodes();
  Xoshiro256 rng(13);
  std::map<std::uint64_t, std::uint64_t> want;
  N* a = nullptr;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t k = rng.next_below(6000);
    a = ftree::insert(a, k, std::uint64_t{1});
    want[k] = 1;
  }
  N* b = nullptr;
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t k = rng.next_below(6000);
    b = ftree::insert(b, k, std::uint64_t{2});
    want[k] = 2;  // b wins duplicates
  }
  N* u = ftree::union_(a, b);
  expect_balanced(u);
  expect_matches(u, want);
  ftree::collect(u);
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(Ftree, RepeatedUnionsKeepBalance) {
  const long long base_live = ftree::live_nodes();
  Xoshiro256 rng(17);
  N* acc = nullptr;
  for (int round = 0; round < 30; ++round) {
    N* delta = nullptr;
    for (int i = 0; i < 200; ++i) {
      delta = ftree::insert(delta, rng(), std::uint64_t{1});
    }
    acc = ftree::union_(acc, delta);
    expect_balanced(acc);
  }
  ftree::collect(acc);
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// A tree of n random inserts with keys in [lo, lo + key_space).
N* make_random_tree(Xoshiro256& rng, int n, std::uint64_t key_space,
                    std::uint64_t lo = 0) {
  N* t = nullptr;
  for (int i = 0; i < n; ++i) {
    t = ftree::insert(t, lo + rng.next_below(key_space), rng());
  }
  return t;
}

// Applies `batch` (prepared here) to `t` with multi_insert and checks the
// result against a std::map model: same contents, AVL-balanced, and every
// node freed once the result dies. Consumes `t`.
void expect_multi_insert_matches(
    N* t, std::vector<std::pair<std::uint64_t, std::uint64_t>> batch,
    int threads) {
  const long long live_before =
      ftree::live_nodes() - static_cast<long long>(reachable({t}));
  std::map<std::uint64_t, std::uint64_t> want;
  ftree::for_each(t,
                  [&want](std::uint64_t k, std::uint64_t v) { want[k] = v; });
  ftree::prepare_batch(batch);
  for (const auto& [k, v] : batch) want[k] = v;
  N* u = ftree::multi_insert(
      t, std::span<const std::pair<std::uint64_t, std::uint64_t>>(batch),
      threads);
  expect_balanced(u);
  expect_matches(u, want);
  const std::size_t nodes = reachable({u});
  EXPECT_EQ(ftree::live_nodes() - live_before, static_cast<long long>(nodes));
  EXPECT_EQ(ftree::collect(u), nodes);
  EXPECT_EQ(ftree::live_nodes(), live_before);
}

TEST(Ftree, MultiInsertMatchesLoop) {
  // The descent routes every slice of the batch by key, so the edge cases
  // are the slices that run out early or never split: empty inputs, single
  // keys, batches entirely on one side of the tree, pure updates and pure
  // inserts — each sequentially and with forking allowed.
  const long long base_live = ftree::live_nodes();
  using Batch = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  for (int threads : {1, 4}) {
    Xoshiro256 rng(19);
    // Every case starts from the same 3000 random keys in [1000, 6000).
    auto make_tree = [] {
      Xoshiro256 tree_rng(20);
      return make_random_tree(tree_rng, 3000, 5000, 1000);
    };
    std::vector<std::uint64_t> present;
    std::vector<std::uint64_t> absent;
    N* probe = make_tree();
    for (std::uint64_t k = 1000; k < 6000; ++k) {
      (ftree::find(probe, k) != nullptr ? present : absent).push_back(k);
    }
    ftree::collect(probe);
    auto random_batch = [&rng](int n, std::uint64_t lo, std::uint64_t hi) {
      Batch b;
      for (int i = 0; i < n; ++i) {
        b.emplace_back(lo + rng.next_below(hi - lo), rng());
      }
      return b;
    };
    auto pick = [&rng](const std::vector<std::uint64_t>& from, int n) {
      Batch b;
      for (int i = 0; i < n; ++i) {
        b.emplace_back(from[rng.next_below(from.size())], rng());
      }
      return b;
    };

    // Mixed updates and inserts across the whole range.
    expect_multi_insert_matches(make_tree(), random_batch(300, 0, 7000),
                                threads);
    // Empty tree: the batch alone.
    expect_multi_insert_matches(nullptr, random_batch(300, 0, 7000),
                                threads);
    // Empty batch: the tree unchanged.
    expect_multi_insert_matches(make_tree(), Batch{}, threads);
    // One existing key; one new key.
    expect_multi_insert_matches(make_tree(), pick(present, 1), threads);
    expect_multi_insert_matches(make_tree(), pick(absent, 1), threads);
    // Every key below, then above, the tree's range.
    expect_multi_insert_matches(make_tree(), random_batch(200, 0, 1000),
                                threads);
    expect_multi_insert_matches(make_tree(), random_batch(200, 6000, 9000),
                                threads);
    // Update-only and insert-only.
    expect_multi_insert_matches(make_tree(), pick(present, 300), threads);
    expect_multi_insert_matches(make_tree(), pick(absent, 300), threads);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// Depth of `k` in `t`, counting the root as 1 and a block as one level;
// 0 when absent.
int depth_of(const N* t, std::uint64_t k) {
  for (int d = 1; t != nullptr; ++d) {
    if (t->is_block()) return ftree::find(t, k) != nullptr ? d : 0;
    const auto* in = t->inner();
    if (k < in->key) {
      t = in->left;
    } else if (in->key < k) {
      t = in->right;
    } else {
      return d;
    }
  }
  return 0;
}

TEST(Ftree, MultiInsertPutsWrittenKeysNearTheRoot) {
  // Where a slice of the batch runs down to one hot key — one the previous
  // batch wrote, or an Inner entry — multi_insert splits that key out and
  // joins it back as the subtree's root, so it ends up shallow, close to
  // where a union would leave it. Zipf-hot keys are written almost every
  // batch, and this is what keeps their reads short. The same 64 keys are
  // written in two consecutive batches. Mean depth after the second, a
  // leaf block counting as one level: 9.1 here, 6.0 for a union of a batch
  // tree, 12.0 for a descent that rewrites values in their blocks (what the
  // first batch does to all but the Inner entries); the tree's height
  // is 13.
  const long long base_live = ftree::live_nodes();
  {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
    for (std::uint64_t k = 0; k < 65535; ++k) entries.emplace_back(k, k);
    using Aug = ftree::NoAug<std::uint64_t, std::uint64_t>;
    N* t = ftree::build_sorted<std::uint64_t, std::uint64_t, Aug>(
        std::span<const std::pair<std::uint64_t, std::uint64_t>>(entries), 1);
    Xoshiro256 rng(43);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> batch;
    for (int i = 0; i < 64; ++i) batch.emplace_back(rng.next_below(65535), 0);
    ftree::prepare_batch(batch);
    N* u = ftree::multi_insert(
        t, std::span<const std::pair<std::uint64_t, std::uint64_t>>(batch), 1);
    for (auto& [k, v] : batch) v = 1;
    u = ftree::multi_insert(
        u, std::span<const std::pair<std::uint64_t, std::uint64_t>>(batch), 1);
    double total = 0;
    for (const auto& [k, v] : batch) {
      const int d = depth_of(u, k);
      ASSERT_GT(d, 0);
      total += d;
    }
    const double mean = total / static_cast<double>(batch.size());
    EXPECT_LE(mean, 11.0) << "height " << u->height();
    expect_balanced(u);
    ftree::collect(u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// Whether `k` is stored in a leaf block of `t` (not as an Inner entry).
template <class A>
bool in_block(const ftree::Node<std::uint64_t, std::uint64_t, A>* t,
              std::uint64_t k) {
  while (t != nullptr && !t->is_block()) {
    const auto* in = t->inner();
    if (k == in->key) return false;
    t = k < in->key ? in->left : in->right;
  }
  return t != nullptr && ftree::find(t, k) != nullptr;
}

TEST(Ftree, UniformRewritesKeepBlocksWhole) {
  // Uniform rewrites are cold: a key is lifted out of its block only when
  // it is written in two consecutive batches, so uniform batches rewrite
  // keys inside their blocks and the tree keeps the node count of a fresh
  // build (lifting every written key split its block, 1.6x the nodes here
  // after these batches). 2048 batches of 64 rewrite 2^17 keys once each
  // on average.
  const long long base_live = ftree::live_nodes();
  {
    constexpr std::uint64_t kKeys = std::uint64_t{1} << 17;
    using Entries = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
    using Span = std::span<const std::pair<std::uint64_t, std::uint64_t>>;
    Entries entries;
    for (std::uint64_t k = 0; k < kKeys; ++k) entries.emplace_back(k, k);
    using Aug = ftree::NoAug<std::uint64_t, std::uint64_t>;
    N* t = ftree::build_sorted<std::uint64_t, std::uint64_t, Aug>(
        Span(entries), 1);
    const double fresh = static_cast<double>(reachable({t}));
    Xoshiro256 rng(59);
    auto uniform_batch = [&rng] {
      Entries b;
      for (int i = 0; i < 64; ++i) b.emplace_back(rng.next_below(kKeys), rng());
      ftree::prepare_batch(b);
      return b;
    };
    for (int i = 0; i < 2048; ++i) {
      t = ftree::multi_insert(t, Span(uniform_batch()), 1);
    }
    EXPECT_LE(static_cast<double>(reachable({t})), 1.1 * fresh);
    // Keys written once, into blocks the batch before also wrote, stay in
    // their blocks.
    const Entries before = uniform_batch();
    t = ftree::multi_insert(t, Span(before), 1);
    Entries once;
    for (const auto& [k, v] : before) {
      const std::uint64_t next = k + 1;
      if (next < kKeys && in_block(t, next) &&
          !std::binary_search(before.begin(), before.end(),
                              std::pair<std::uint64_t, std::uint64_t>(next, 0),
                              [](const auto& a, const auto& b) {
                                return a.first < b.first;
                              })) {
        once.emplace_back(next, 7);
      }
    }
    ftree::prepare_batch(once);
    ASSERT_GE(once.size(), 32u);
    t = ftree::multi_insert(t, Span(once), 1);
    for (const auto& [k, v] : once) {
      EXPECT_TRUE(in_block(t, k)) << "key " << k << " left its block";
      EXPECT_EQ(*ftree::find(t, k), 7u);
    }
    expect_balanced(t);
    ftree::collect(t);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(Ftree, MultiInsertForksOnlyAboveTheGrain) {
  // 64 keys into a 2^17-key version is about 384 estimated copies, below
  // the two fork_work() (1024 at the default grain) a first fork needs, so
  // it must not fork; a batch of 2^14 keys is far above and must.
  // exec/tasks counts every fork the pool runs.
  const long long base_live = ftree::live_nodes();
  obs::set_enabled(true);
  {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
    for (std::uint64_t k = 0; k < (std::uint64_t{1} << 17); ++k) {
      entries.emplace_back(2 * k, k);
    }
    using Aug = ftree::NoAug<std::uint64_t, std::uint64_t>;
    N* t = ftree::build_sorted<std::uint64_t, std::uint64_t, Aug>(
        std::span<const std::pair<std::uint64_t, std::uint64_t>>(entries), 1);
    Xoshiro256 rng(47);
    auto tasks_added = [&](int n) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> batch;
      for (int i = 0; i < n; ++i) {
        batch.emplace_back(rng.next_below(std::uint64_t{1} << 18), 1);
      }
      ftree::prepare_batch(batch);
      const std::uint64_t before = exec::exec_tasks().value();
      N* u = ftree::multi_insert(
          ftree::share(t),
          std::span<const std::pair<std::uint64_t, std::uint64_t>>(batch), 4);
      const std::uint64_t added = exec::exec_tasks().value() - before;
      ftree::collect(u);
      return added;
    };
    EXPECT_EQ(tasks_added(64), 0u);
    EXPECT_GE(tasks_added(1 << 14), 1u);
    ftree::collect(t);
  }
  obs::set_enabled(false);
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// Structural (bit-for-bit) equality: same keys, values, shape, cached
// height/weight and multi_insert write stamps in every node. This is the
// contract of the parallel bulk ops — the worker count must not change the
// resulting tree at all, nor which keys the next multi_insert lifts.
template <class A>
void expect_identical(const ftree::Node<std::uint64_t, std::uint64_t, A>* x,
                      const ftree::Node<std::uint64_t, std::uint64_t, A>* y) {
  ASSERT_EQ(x == nullptr, y == nullptr);
  if (x == nullptr) return;
  EXPECT_EQ(x->height(), y->height());
  EXPECT_EQ(x->weight(), y->weight());
  EXPECT_EQ(x->stamp, y->stamp);
  ASSERT_EQ(x->is_block(), y->is_block());
  if (x->is_block()) {
    EXPECT_EQ(x->block()->written, y->block()->written);
    for (std::uint32_t i = 0; i < x->block()->size(); ++i) {
      EXPECT_EQ(x->block()->keys[i], y->block()->keys[i]);
      EXPECT_EQ(x->block()->vals[i], y->block()->vals[i]);
    }
    return;
  }
  EXPECT_EQ(x->inner()->key, y->inner()->key);
  EXPECT_EQ(x->inner()->val, y->inner()->val);
  expect_identical(x->inner()->left, y->inner()->left);
  expect_identical(x->inner()->right, y->inner()->right);
}

TEST(Ftree, ParallelUnionBitIdenticalToSequential) {
  const long long base_live = ftree::live_nodes();
  {
    Xoshiro256 rng(23);
    N* a = make_random_tree(rng, 20000, std::uint64_t{1} << 40);
    N* b = make_random_tree(rng, 6000, std::uint64_t{1} << 40);
    N* seq = ftree::union_(ftree::share(a), ftree::share(b), 1);
    expect_balanced(seq);
    for (int threads : {2, 4, 8}) {
      N* par = ftree::union_(ftree::share(a), ftree::share(b), threads);
      expect_identical(seq, par);
      ftree::collect(par);
    }
    ftree::collect(seq);
    ftree::collect(a);
    ftree::collect(b);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(Ftree, ParallelBuildSortedAndMultiInsertBitIdentical) {
  const long long base_live = ftree::live_nodes();
  {
    Xoshiro256 rng(29);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> batch;
    for (int i = 0; i < 10000; ++i) batch.emplace_back(rng(), rng());
    ftree::prepare_batch(batch);
    const std::span<const std::pair<std::uint64_t, std::uint64_t>> sp(batch);

    using Aug = ftree::NoAug<std::uint64_t, std::uint64_t>;
    N* seq = ftree::build_sorted<std::uint64_t, std::uint64_t, Aug>(sp, 1);
    N* par = ftree::build_sorted<std::uint64_t, std::uint64_t, Aug>(sp, 4);
    expect_identical(seq, par);
    ftree::collect(par);

    N* t = make_random_tree(rng, 30000, std::uint64_t{1} << 40);
    N* mseq = ftree::multi_insert(ftree::share(t), sp, 1);
    N* mpar = ftree::multi_insert(ftree::share(t), sp, 4);
    expect_identical(mseq, mpar);
    expect_balanced(mseq);
    ftree::collect(mseq);
    ftree::collect(mpar);
    ftree::collect(t);
    ftree::collect(seq);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(Ftree, ParallelUnionRefcountsExactWithSharedInputs) {
  // Parallel unions and multi_inserts over inputs shared with live
  // versions: the forked workers consume disjoint owned references, so the
  // counts stay exact — the survivors keep their content and the counter
  // returns to baseline.
  const long long base_live = ftree::live_nodes();
  {
    Xoshiro256 rng(31);
    std::map<std::uint64_t, std::uint64_t> want_a;
    N* a = nullptr;
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t k = rng.next_below(std::uint64_t{1} << 40);
      const std::uint64_t v = rng();
      a = ftree::insert(a, k, v);
      want_a[k] = v;
    }
    N* b = make_random_tree(rng, 8000, std::uint64_t{1} << 40);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> batch;
    ftree::for_each(b, [&batch](std::uint64_t k, std::uint64_t v) {
      batch.emplace_back(k, v);
    });
    const std::span<const std::pair<std::uint64_t, std::uint64_t>> sp(batch);
    for (int round = 0; round < 4; ++round) {
      N* u1 = ftree::union_(ftree::share(a), ftree::share(b), 4);
      N* u2 = ftree::union_(ftree::share(a), ftree::share(b), 4);
      expect_identical(u1, u2);
      ftree::collect(u1);
      ftree::collect(u2);
      N* m1 = ftree::multi_insert(ftree::share(a), sp, 4);
      N* m2 = ftree::multi_insert(ftree::share(a), sp, 4);
      expect_identical(m1, m2);
      ftree::collect(m1);
      ftree::collect(m2);
    }
    expect_matches(a, want_a);  // survivor untouched by the parallel runs
    expect_balanced(a);
    ftree::collect(a);
    ftree::collect(b);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// Exactness canary for the expose/collect interleaving the version layers
// rely on: a writer unions deltas over the current version while OTHER
// threads collect retired versions whose trees share nodes with the one
// being exposed. expose must not ignore the result of its decrement — if a
// concurrent collect releases the second-to-last reference between
// expose's load and its fetch_sub, expose now holds the last one, and
// dropping it blindly would leak the node and strand a count on each
// child. The counter returning to baseline proves no interleaving did.
TEST(Ftree, ExposeExactUnderConcurrentVersionChurn) {
  const long long base_live = ftree::live_nodes();
  {
    Xoshiro256 seed_rng(37);
    N* cur = nullptr;
    for (int i = 0; i < 8000; ++i) {
      cur = ftree::insert(cur, seed_rng.next_below(1 << 14), seed_rng());
    }
    std::mutex mu;
    std::vector<N*> retired;
    bool done = false;
    std::vector<std::thread> collectors;
    for (int c = 0; c < 3; ++c) {
      collectors.emplace_back([&] {
        for (;;) {
          N* v = nullptr;
          {
            std::lock_guard<std::mutex> g(mu);
            if (!retired.empty()) {
              v = retired.back();
              retired.pop_back();
            } else if (done) {
              return;
            }
          }
          if (v != nullptr) ftree::collect(v);
        }
      });
    }
    Xoshiro256 rng(41);
    for (int i = 0; i < 30000; ++i) {
      N* delta = nullptr;
      for (int j = 0; j < 6; ++j) {
        delta = ftree::insert(delta, rng.next_below(1 << 14), rng());
      }
      N* next = ftree::union_(ftree::share(cur), delta, 1);
      {
        std::lock_guard<std::mutex> g(mu);
        retired.push_back(cur);  // the old version dies on a collector
      }
      cur = next;
    }
    {
      std::lock_guard<std::mutex> g(mu);
      done = true;
    }
    for (auto& t : collectors) t.join();
    expect_balanced(cur);
    ftree::collect(cur);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(Ftree, PrepareBatchSortsAndKeepsLastDuplicate) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> batch = {
      {5, 1}, {3, 1}, {5, 2}, {1, 1}, {3, 2}, {5, 3}};
  ftree::prepare_batch(batch);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], (std::pair<std::uint64_t, std::uint64_t>{1, 1}));
  EXPECT_EQ(batch[1], (std::pair<std::uint64_t, std::uint64_t>{3, 2}));
  EXPECT_EQ(batch[2], (std::pair<std::uint64_t, std::uint64_t>{5, 3}));
}

// Property test over duplicate-heavy random batches (the shape the txn
// batching layer produces under a Zipfian workload): after prepare_batch
// the batch is strictly sorted and holds, per key, the LAST value that
// appeared in submission order — exactly what a loop of repeated inserts
// would leave.
TEST(Ftree, PrepareBatchDuplicateHeavyLastWinsProperty) {
  Xoshiro256 rng(0xba7c4);
  for (int trial = 0; trial < 32; ++trial) {
    const std::size_t n = 1 + rng.next_below(600);
    const std::uint64_t key_space = 1 + rng.next_below(24);  // heavy dups
    std::vector<std::pair<std::uint64_t, std::uint64_t>> batch;
    batch.reserve(n);
    std::map<std::uint64_t, std::uint64_t> want;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = rng.next_below(key_space);
      const std::uint64_t v = i;  // unique serial values expose wrong picks
      batch.emplace_back(k, v);
      want[k] = v;
    }
    ftree::prepare_batch(batch);
    ASSERT_EQ(batch.size(), want.size());
    for (std::size_t i = 0; i + 1 < batch.size(); ++i) {
      EXPECT_LT(batch[i].first, batch[i + 1].first);
    }
    for (const auto& [k, v] : batch) {
      ASSERT_TRUE(want.count(k));
      EXPECT_EQ(v, want[k]) << "key " << k << " lost its last submission";
    }
  }
}

using SumAug = ftree::AugSum<std::uint64_t, std::uint64_t>;
using S = ftree::Node<std::uint64_t, std::uint64_t, SumAug>;
using Model = std::map<std::uint64_t, std::uint64_t>;
using Batch = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
using BatchSpan = std::span<const std::pair<std::uint64_t, std::uint64_t>>;

// Checks a summed tree against its model: the block layout, AVL balance,
// every subtree's aug against a brute-force sum, the contents, and
// aug_range over random ranges, whose ends fall inside blocks.
void expect_sum_tree(const S* t, const Model& want, Xoshiro256& rng,
                     std::uint64_t key_space) {
  expect_balanced(t);
  expect_matches(t, want);
  for (int q = 0; q < 20; ++q) {
    const std::uint64_t lo = rng.next_below(key_space);
    const std::uint64_t hi = lo + rng.next_below(key_space / 8);
    std::uint64_t sum = 0;
    for (auto it = want.lower_bound(lo); it != want.end() && it->first <= hi;
         ++it) {
      sum += it->second;
    }
    EXPECT_EQ(ftree::aug_range(t, lo, hi), sum) << "[" << lo << ", " << hi
                                                << "]";
  }
}

TEST(Ftree, BlockedLayoutHoldsUnderEveryUpdate) {
  // Random rounds of every update — multi_insert and union_ at 1 and 4
  // workers, split + join, insert, build_sorted — against a std::map
  // model, then rounds of multi_inserts that rewrite a hot key set in
  // consecutive batches, so hot keys are lifted to subtree roots under
  // forks. Each round keeps the previous version alive across the update,
  // checks both (the old one must be untouched), then drops the old one:
  // the exact-reachability oracle says the live nodes are exactly those
  // reachable from the versions held, and the drop frees exactly the old
  // version's nodes that the new one does not share.
  const long long base_live = ftree::live_nodes();
  // Drops `prev`, which must free exactly its nodes that `t` does not
  // share, leaving live exactly the nodes reachable from `t`.
  auto expect_exact_drop = [base_live](S* prev, const S* t) {
    const std::size_t both =
        ftree::reachable_nodes(std::vector<const S*>{prev, t});
    const std::size_t survivors =
        ftree::reachable_nodes(std::vector<const S*>{t});
    EXPECT_EQ(ftree::live_nodes() - base_live, static_cast<long long>(both));
    EXPECT_EQ(ftree::collect(prev), both - survivors);
    EXPECT_EQ(ftree::live_nodes() - base_live,
              static_cast<long long>(survivors));
  };
  {
    constexpr std::uint64_t kSpace = 6000;
    Xoshiro256 rng(53);
    auto random_batch = [&rng](std::uint64_t n) {
      Batch b;
      for (std::uint64_t i = 0; i < n; ++i) {
        b.emplace_back(rng.next_below(kSpace), rng.next_below(1000));
      }
      ftree::prepare_batch(b);
      return b;
    };
    const Batch init = random_batch(2000);
    S* t = ftree::build_sorted<std::uint64_t, std::uint64_t, SumAug>(
        BatchSpan(init), 1);
    Model want(init.begin(), init.end());
    expect_sum_tree(t, want, rng, kSpace);
    for (int round = 0; round < 80; ++round) {
      S* prev = ftree::share(t);
      const Model prev_want = want;
      const int threads = (round / 5) % 2 != 0 ? 4 : 1;
      switch (round % 5) {
        case 0: {
          const Batch b =
              random_batch(1 + rng.next_below(round % 2 != 0 ? 400 : 24));
          t = ftree::multi_insert(t, BatchSpan(b), threads);
          for (const auto& [k, v] : b) want[k] = v;
          break;
        }
        case 1: {
          const Batch b = random_batch(1 + rng.next_below(300));
          t = ftree::union_(
              t,
              ftree::build_sorted<std::uint64_t, std::uint64_t, SumAug>(
                  BatchSpan(b), 1),
              threads);
          for (const auto& [k, v] : b) want[k] = v;
          break;
        }
        case 2: {
          const std::uint64_t k = rng.next_below(kSpace);
          const std::uint64_t v = rng.next_below(1000);
          auto s = ftree::split(t, k);
          EXPECT_EQ(s.found, want.count(k) == 1);
          if (s.found) {
            EXPECT_EQ(s.value, want[k]);
          }
          check_invariants(s.left, nullptr, &k);
          check_invariants(s.right, &k, nullptr);
          t = ftree::join(s.left, k, v, s.right);
          want[k] = v;
          break;
        }
        case 3:
          for (int i = 0; i < 30; ++i) {
            const std::uint64_t k = rng.next_below(kSpace);
            const std::uint64_t v = rng.next_below(1000);
            t = ftree::insert(t, k, v);
            want[k] = v;
          }
          break;
        default: {
          const Batch all(want.begin(), want.end());
          ftree::collect(t);
          t = ftree::build_sorted<std::uint64_t, std::uint64_t, SumAug>(
              BatchSpan(all), threads);
          break;
        }
      }
      expect_sum_tree(t, want, rng, kSpace);
      expect_sum_tree(prev, prev_want, rng, kSpace);
      expect_exact_drop(prev, t);
    }
    ftree::collect(t);
  }
  {
    // Hot rewrites under forks. Each batch rewrites the same 64 hot keys
    // among 1200 random ones in a 2^16-key tree, enough estimated work to
    // fork at 4 workers while most slices still run down to single keys
    // above the blocks. From the second batch on, a hot key whose slice is
    // a single key is lifted: out of its block, then again as an Inner
    // entry. From the same shared input the 1- and 4-worker results must
    // be identical, stamps included.
    constexpr std::uint64_t kSpace = std::uint64_t{1} << 17;
    Xoshiro256 rng(61);
    Batch init;
    for (std::uint64_t k = 0; k < kSpace; k += 2) init.emplace_back(k, k % 7);
    S* t = ftree::build_sorted<std::uint64_t, std::uint64_t, SumAug>(
        BatchSpan(init), 1);
    Model want(init.begin(), init.end());
    Batch hot;
    for (std::uint64_t k = 0; k < kSpace; k += kSpace / 64) {
      hot.emplace_back(k, 0);
    }
    obs::set_enabled(true);
    std::uint64_t forks = 0;
    for (int round = 0; round < 6; ++round) {
      S* prev = ftree::share(t);
      const Model prev_want = want;
      Batch b;
      for (int i = 0; i < 1200; ++i) {
        b.emplace_back(rng.next_below(kSpace), rng.next_below(1000));
      }
      for (auto& [k, v] : hot) v = rng.next_below(1000);
      b.insert(b.end(), hot.begin(), hot.end());
      ftree::prepare_batch(b);
      S* one = ftree::multi_insert(ftree::share(t), BatchSpan(b), 1);
      const std::uint64_t tasks = exec::exec_tasks().value();
      S* four = ftree::multi_insert(ftree::share(t), BatchSpan(b), 4);
      forks += exec::exec_tasks().value() - tasks;
      expect_identical(one, four);
      ftree::collect(four);
      ftree::collect(t);
      t = one;
      for (const auto& [k, v] : b) want[k] = v;
      expect_sum_tree(t, want, rng, kSpace);
      expect_sum_tree(prev, prev_want, rng, kSpace);
      expect_exact_drop(prev, t);
    }
    obs::set_enabled(false);
    EXPECT_GT(forks, 0u) << "the 4-worker multi_inserts never forked";
    std::size_t lifted = 0;
    for (const auto& [k, v] : hot) lifted += in_block(t, k) ? 0 : 1;
    EXPECT_GE(lifted, hot.size() / 2) << "hot keys left in their blocks";
    ftree::collect(t);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(Ftree, NestedMapPayloadsFreeExactly) {
  // Values that own trees, as the inverted index's posting lists do:
  // dropping an outer version reenters collect through ~V, and the freed
  // set must still be exact across both levels.
  using Inner = ftree::FMap<std::uint64_t, std::uint64_t>;
  using Outer = ftree::FMap<std::uint64_t, Inner>;
  const long long base_live = ftree::live_nodes();
  {
    Xoshiro256 rng(59);
    Inner proto;
    for (std::uint64_t j = 0; j < 64; ++j) proto = proto.inserted(j, j);
    // Nodes reachable from the outer versions, their posting lists and the
    // prototype the lists share.
    auto reachable_all = [&proto](const std::vector<const Outer*>& vs) {
      std::vector<const ftree::Node<std::uint64_t, Inner>*> outer;
      std::vector<const N*> inner{proto.root()};
      for (const Outer* v : vs) {
        outer.push_back(v->root());
        v->for_each([&inner](std::uint64_t, const Inner& m) {
          inner.push_back(m.root());
        });
      }
      return ftree::reachable_nodes(outer) + ftree::reachable_nodes(inner);
    };
    std::vector<Outer> versions(1);
    for (int round = 0; round < 40; ++round) {
      {
        std::vector<std::pair<std::uint64_t, Inner>> batch;
        for (int i = 0; i < 24; ++i) {
          const std::uint64_t k = rng.next_below(300);
          batch.emplace_back(k, proto.inserted(1000 + rng.next_below(64), k));
        }
        ftree::prepare_batch(batch);
        versions.push_back(versions.back().multi_inserted(
            std::span<const std::pair<std::uint64_t, Inner>>(batch),
            round % 2 != 0 ? 4 : 1));
      }
      std::vector<const Outer*> all;
      for (const Outer& v : versions) all.push_back(&v);
      EXPECT_EQ(ftree::live_nodes() - base_live,
                static_cast<long long>(reachable_all(all)));
      if (round % 3 == 2) {
        const std::size_t victim = rng.next_below(versions.size() - 1);
        std::vector<const Outer*> rest = all;
        rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(victim));
        const std::size_t expect = reachable_all(all) - reachable_all(rest);
        const long long before = ftree::live_nodes();
        versions[victim] = Outer();
        EXPECT_EQ(before - ftree::live_nodes(),
                  static_cast<long long>(expect));
        versions.erase(versions.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

}  // namespace
