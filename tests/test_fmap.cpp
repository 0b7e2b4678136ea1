// Tests for the value-semantic FMap facade: version semantics (copies are
// O(1) snapshots), augmented range sums against brute force, and bulk ops
// agreeing with their one-at-a-time equivalents.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "mvcc/common/rng.h"
#include "mvcc/ftree/fmap.h"

namespace {

using namespace mvcc;
using SumMap = ftree::FMap<std::uint64_t, std::uint64_t,
                           ftree::AugSum<std::uint64_t, std::uint64_t>>;
using Entry = std::pair<std::uint64_t, std::uint64_t>;

std::vector<Entry> random_entries(int n, std::uint64_t key_space,
                                  std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Entry> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) out.emplace_back(rng.next_below(key_space), rng());
  return out;
}

TEST(FMap, EmptyMap) {
  SumMap m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_EQ(m.aug_range(0, ~std::uint64_t{0}), 0u);
  EXPECT_TRUE(m.to_vector().empty());
}

TEST(FMap, FromEntriesSortsAndLastDuplicateWins) {
  SumMap m = SumMap::from_entries({{5, 1}, {2, 7}, {5, 9}, {8, 3}});
  EXPECT_EQ(m.size(), 3u);
  const std::vector<Entry> want = {{2, 7}, {5, 9}, {8, 3}};
  EXPECT_EQ(m.to_vector(), want);
  EXPECT_EQ(*m.find(5), 9u);
}

TEST(FMap, InsertedCreatesNewVersion) {
  SumMap v0 = SumMap::from_entries({{1, 10}, {2, 20}});
  SumMap v1 = v0.inserted(3, 30);
  SumMap v2 = v1.inserted(2, 99);
  // Old versions unchanged: that's the multiversioning contract.
  EXPECT_EQ(v0.size(), 2u);
  EXPECT_EQ(v0.find(3), nullptr);
  EXPECT_EQ(*v1.find(2), 20u);
  EXPECT_EQ(*v2.find(2), 99u);
  EXPECT_EQ(v2.size(), 3u);
}

TEST(FMap, CopyIsCheapSnapshot) {
  const long long base_live = ftree::live_nodes();
  {
    SumMap m = SumMap::from_entries(random_entries(1000, 1u << 20, 1));
    const long long after_build = ftree::live_nodes();
    SumMap snapshot = m;  // O(1): shares the whole tree
    EXPECT_EQ(ftree::live_nodes(), after_build);
    m = m.inserted(12345, 1);
    EXPECT_EQ(snapshot.find(12345), nullptr);
    EXPECT_EQ(*m.find(12345), 1u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(FMap, MoveTransfersOwnership) {
  const long long base_live = ftree::live_nodes();
  {
    SumMap m = SumMap::from_entries(random_entries(100, 1u << 20, 2));
    SumMap stolen = std::move(m);
    EXPECT_EQ(stolen.size(), 100u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(FMap, MatchesStdMapUnderRandomInserts) {
  Xoshiro256 rng(3);
  SumMap m;
  std::map<std::uint64_t, std::uint64_t> want;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t k = rng.next_below(8000);
    const std::uint64_t v = rng.next_below(1000);
    m = m.inserted(k, v);
    want[k] = v;
  }
  EXPECT_EQ(m.size(), want.size());
  const auto got = m.to_vector();
  ASSERT_EQ(got.size(), want.size());
  auto it = want.begin();
  for (const auto& [k, v] : got) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
  for (const auto& [k, v] : want) {
    const std::uint64_t* p = m.find(k);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, v);
  }
}

TEST(FMap, AugRangeAgreesWithBruteForce) {
  SumMap m = SumMap::from_entries(random_entries(2000, 1u << 14, 4));
  const auto entries = m.to_vector();
  Xoshiro256 rng(5);
  for (int q = 0; q < 2000; ++q) {
    std::uint64_t lo = rng.next_below(1u << 14);
    std::uint64_t hi = rng.next_below(1u << 14);
    if (q % 7 == 0) std::swap(lo, hi);  // include empty/reversed ranges
    std::uint64_t brute = 0;
    for (const auto& [k, v] : entries) {
      if (lo <= k && k <= hi) brute += v;
    }
    EXPECT_EQ(m.aug_range(lo, hi), brute) << "range [" << lo << ", " << hi << "]";
  }
  // Degenerate and full ranges.
  EXPECT_EQ(m.aug_range(5, 4), 0u);
  std::uint64_t total = 0;
  for (const auto& [k, v] : entries) total += v;
  EXPECT_EQ(m.aug_range(0, ~std::uint64_t{0}), total);
}

TEST(FMap, MultiInsertedAppliesDelta) {
  SumMap corpus = SumMap::from_entries(random_entries(3000, 1u << 12, 6));
  SumMap delta = SumMap::from_entries(random_entries(300, 1u << 12, 7));
  const auto corpus_before = corpus.to_vector();
  const auto delta_before = delta.to_vector();
  SumMap merged = corpus.multi_inserted(std::span<const Entry>(delta_before));
  std::map<std::uint64_t, std::uint64_t> want;
  for (const auto& [k, v] : corpus.to_vector()) want[k] = v;
  for (const auto& [k, v] : delta.to_vector()) want[k] = v;  // delta wins
  EXPECT_EQ(merged.size(), want.size());
  for (const auto& [k, v] : want) {
    const std::uint64_t* p = merged.find(k);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, v);
  }
  // Inputs are untouched versions.
  EXPECT_EQ(corpus.to_vector(), corpus_before);
  EXPECT_EQ(delta.to_vector(), delta_before);
}

TEST(FMap, MultiInsertedMatchesLoopOfInserted) {
  SumMap base = SumMap::from_entries(random_entries(4000, 1u << 13, 8));
  std::vector<Entry> batch = random_entries(500, 1u << 13, 9);
  ftree::prepare_batch(batch);
  SumMap bulk = base.multi_inserted(std::span<const Entry>(batch));
  SumMap loop = base;
  for (const auto& [k, v] : batch) loop = loop.inserted(k, v);
  EXPECT_EQ(bulk.size(), loop.size());
  EXPECT_EQ(bulk.to_vector(), loop.to_vector());
  EXPECT_EQ(bulk.aug_range(0, ~std::uint64_t{0}),
            loop.aug_range(0, ~std::uint64_t{0}));
}

// Map-of-maps payload: the value type owns (possibly the last reference
// to) another FMap of the SAME node instantiation, so destroying an outer
// node reenters ftree::collect at the instantiation currently iterating.
// Regression for the thread_local traversal stack being clear()ed by the
// nested call mid-iteration, which silently leaked the outer tree's
// pending subtrees (caught here by live_nodes, and by ASan leak checking
// in CI).
struct NestedVal {
  std::shared_ptr<ftree::FMap<std::uint64_t, NestedVal>> sub;
};
using NestedMap = ftree::FMap<std::uint64_t, NestedVal>;

TEST(FMap, CollectReentrancyMapOfMaps) {
  const long long base_live = ftree::live_nodes();
  {
    NestedMap outer;
    for (std::uint64_t i = 0; i < 64; ++i) {
      auto inner = std::make_shared<NestedMap>();
      for (std::uint64_t j = 0; j < 16; ++j) {
        NestedVal leaf;
        if (j % 4 == 0) {
          // Third level: some inner values own their own maps, so one
          // outer node delete can reenter collect more than one frame deep.
          auto deep = std::make_shared<NestedMap>();
          for (std::uint64_t d = 0; d < 4; ++d) {
            *deep = deep->inserted(d, NestedVal{});
          }
          leaf.sub = std::move(deep);
        }
        *inner = inner->inserted(j, std::move(leaf));
      }
      outer = outer.inserted(i, NestedVal{std::move(inner)});
    }
    EXPECT_EQ(outer.size(), 64u);
  }  // cascading destruction: every delete of an outer node drops inner maps
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(FMap, CollectReentrancyDeepSharedVersions) {
  const long long base_live = ftree::live_nodes();
  {
    // Inner maps shared across outer versions: dropping one version must
    // free exactly its private nodes, and the nested collects triggered by
    // the final version's death must still free everything.
    auto shared_inner = std::make_shared<NestedMap>();
    for (std::uint64_t j = 0; j < 64; ++j) {
      *shared_inner = shared_inner->inserted(j, NestedVal{});
    }
    std::vector<NestedMap> versions;
    NestedMap m;
    for (std::uint64_t i = 0; i < 32; ++i) {
      m = m.inserted(i, NestedVal{shared_inner});
      versions.push_back(m);
    }
    shared_inner.reset();  // the tree entries now hold the only references
    for (std::size_t i = 0; i + 1 < versions.size(); i += 2) {
      versions[i] = NestedMap();
      EXPECT_GT(versions[i + 1].size(), 0u);
    }
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(FMap, ManyVersionsCollectToZero) {
  const long long base_live = ftree::live_nodes();
  {
    std::vector<SumMap> versions;
    SumMap m;
    Xoshiro256 rng(10);
    for (int v = 0; v < 20; ++v) {
      for (int i = 0; i < 200; ++i) m = m.inserted(rng.next_below(1000), rng());
      versions.push_back(m);
    }
    // Drop versions in interleaved order while spot-checking survivors.
    for (std::size_t i = 0; i + 1 < versions.size(); i += 2) {
      versions[i] = SumMap();
      EXPECT_GT(versions[i + 1].size(), 0u);
    }
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

}  // namespace
