// Tests for the txn/ batched multi-writer front-end and the YCSB workload
// generator: commit semantics (sync tickets, flush drains, last-write-wins
// dedup), snapshot isolation of read transactions, batch-bound accounting,
// multi-producer/multi-reader stress, and zero node leakage after every
// teardown. Every suite name starts with "Txn" so CI's TSan job can select
// this concurrency tier alongside Vm with `ctest -R 'Vm|Txn'`.
#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "mvcc/common/rng.h"
#include "mvcc/ftree/ops.h"
#include "mvcc/txn/batching.h"
#include "mvcc/vm/base.h"
#include "mvcc/vm/pslf.h"
#include "mvcc/vm/pswf.h"
#include "mvcc/workload/ycsb.h"
#include "gc_oracle.h"

namespace {

using namespace mvcc;

using PswfMap = txn::BatchingMap<std::uint64_t, std::uint64_t,
                                 ftree::NoAug<std::uint64_t, std::uint64_t>,
                                 vm::PswfVersionManager>;
using PslfMap = txn::BatchingMap<std::uint64_t, std::uint64_t,
                                 ftree::NoAug<std::uint64_t, std::uint64_t>,
                                 vm::PslfVersionManager>;
using BaseMap = txn::BatchingMap<std::uint64_t, std::uint64_t,
                                 ftree::NoAug<std::uint64_t, std::uint64_t>,
                                 vm::BaseVersionManager>;

// ---------------------------------------------------------------------------
// Batching semantics.

TEST(TxnBatching, UpsertSyncIsVisibleOnReturn) {
  const long long base_live = ftree::live_nodes();
  {
    PswfMap map(1, {});
    for (std::uint64_t i = 0; i < 100; ++i) {
      map.upsert_sync(0, i, i * 10);
      auto v = map.get(0, i);
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, i * 10);
    }
    EXPECT_EQ(map.ops_committed(), 100u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(TxnBatching, FlushAllDrainsEverySubmission) {
  const long long base_live = ftree::live_nodes();
  {
    PswfMap map(2, {}, /*buffer_capacity=*/1 << 10, /*max_batch=*/64);
    for (std::uint64_t i = 0; i < 500; ++i) {
      map.submit(0, txn::BatchOp::kUpsert, i, i);
    }
    for (std::uint64_t i = 400; i < 900; ++i) {
      map.submit(1, txn::BatchOp::kUpsert, i, i + 7);
    }
    map.flush_all();
    auto txn = map.read_txn(0);
    EXPECT_EQ(txn.map().size(), 900u);
    // Keys 400-499 are written by both producers; their winner depends on
    // drain interleaving, so only the disjoint ranges assert values.
    for (std::uint64_t i = 0; i < 400; ++i) {
      ASSERT_NE(txn->find(i), nullptr);
      EXPECT_EQ(*txn->find(i), i);
    }
    for (std::uint64_t i = 500; i < 900; ++i) {
      ASSERT_NE(txn->find(i), nullptr);
      EXPECT_EQ(*txn->find(i), i + 7);
    }
    EXPECT_EQ(map.ops_committed(), 1000u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(TxnBatching, LastWriteWinsWithinProducer) {
  const long long base_live = ftree::live_nodes();
  {
    PswfMap map(1, {}, 1 << 10, /*max_batch=*/1 << 12);
    // All updates to the same key land in one batch: dedup must keep the
    // latest submission, matching a loop of point inserts.
    for (std::uint64_t i = 0; i <= 300; ++i) {
      map.submit(0, txn::BatchOp::kUpsert, 42, i);
    }
    map.flush_all();
    auto v = map.get(0, 42);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 300u);
    EXPECT_EQ(map.ops_committed(), 301u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(TxnBatching, ReadTxnIsAFrozenSnapshot) {
  const long long base_live = ftree::live_nodes();
  {
    PswfMap map(1, PswfMap::Map::from_entries({{1, 1}, {2, 2}}));
    auto before = map.read_txn(0);
    map.upsert_sync(0, 3, 3);
    map.upsert_sync(0, 1, 99);
    // The snapshot still reads the version it pinned...
    EXPECT_EQ(before.map().size(), 2u);
    EXPECT_EQ(*before->find(1), 1u);
    EXPECT_EQ(before->find(3), nullptr);
    // ...while new transactions see the commits.
    auto after = map.read_txn(0);
    EXPECT_EQ(after.map().size(), 3u);
    EXPECT_EQ(*after->find(1), 99u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(TxnBatching, SnapshotOutlivesTheMap) {
  const long long base_live = ftree::live_nodes();
  {
    PswfMap::ReadTxn* held = nullptr;
    {
      PswfMap map(1, PswfMap::Map::from_entries({{7, 70}, {8, 80}}));
      held = new PswfMap::ReadTxn(map.read_txn(0));
    }  // manager destroyed; the snapshot owns its nodes by refcount
    EXPECT_EQ(held->map().size(), 2u);
    EXPECT_EQ(*held->map().find(7), 70u);
    delete held;
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(TxnBatching, RespectsMaxBatchBound) {
  const long long base_live = ftree::live_nodes();
  {
    PswfMap map(1, {}, 1 << 10, /*max_batch=*/8);
    for (std::uint64_t i = 0; i < 256; ++i) {
      map.submit(0, txn::BatchOp::kUpsert, i, i);
    }
    map.flush_all();
    EXPECT_EQ(map.ops_committed(), 256u);
    // No published version may fold in more than max_batch ops.
    EXPECT_GE(map.batches_committed(), 256u / 8);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(TxnBatching, InitialMapIsServedBeforeAnyCommit) {
  const long long base_live = ftree::live_nodes();
  {
    auto dataset = workload::ycsb_dataset(1000);
    PswfMap map(2, PswfMap::Map::from_entries(std::move(dataset)), 1 << 14);
    auto txn = map.read_txn(1);
    EXPECT_EQ(txn.map().size(), 1000u);
    auto v = map.get(0, 999);
    EXPECT_TRUE(v.has_value());
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// The GC-off ablation (Figure 7 "ours" column) runs the same front-end
// over the leak-list Base VM; everything still comes back at teardown.
TEST(TxnBatching, BaseVmVariantCommitsAndDrains) {
  const long long base_live = ftree::live_nodes();
  {
    BaseMap map(1, {}, 1 << 10, 16);
    for (std::uint64_t i = 0; i < 200; ++i) {
      map.submit(0, txn::BatchOp::kUpsert, i % 50, i);
    }
    map.flush_all();
    auto v = map.get(0, 49);
    ASSERT_TRUE(v.has_value());
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// Under stats, every commit records its batch's formation time and one lap
// per commit stage, so the five stage histograms each gain exactly one
// sample per published version.
TEST(TxnBatching, CommitStagesRecordOneSamplePerVersion) {
  const long long base_live = ftree::live_nodes();
  obs::set_enabled(true);
  txn::BatchingStats& st = txn::BatchingStats::get();
  obs::LatencyHistogram* stages[] = {&st.stage_form_ns, &st.stage_prepare_ns,
                                     &st.stage_insert_ns,
                                     &st.stage_publish_ns,
                                     &st.stage_reclaim_ns};
  std::uint64_t before[5];
  for (int i = 0; i < 5; ++i) before[i] = stages[i]->count();
  std::uint64_t batches = 0;
  {
    PswfMap map(2, {}, /*buffer_capacity=*/1 << 10, /*max_batch=*/32);
    for (std::uint64_t i = 0; i < 1000; ++i) {
      map.submit(static_cast<int>(i % 2), txn::BatchOp::kUpsert, i % 300, i);
    }
    map.upsert_sync(0, 1, 1);
    map.flush_all();
    batches = map.batches_committed();
  }
  obs::set_enabled(false);
  EXPECT_GE(batches, 1000u / 32);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(stages[i]->count() - before[i], batches) << "stage " << i;
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// ---------------------------------------------------------------------------
// Concurrency stress (the TSan targets).

TEST(TxnBatching, MultiProducerDisjointKeysAllCommit) {
  const long long base_live = ftree::live_nodes();
  {
    constexpr int kProducers = 4;
    constexpr std::uint64_t kPerProducer = 4000;
    PswfMap map(kProducers, {}, 1 << 12, 256);
    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        for (std::uint64_t i = 0; i < kPerProducer; ++i) {
          // Disjoint key stripes; the final value per key is its last write.
          const std::uint64_t k =
              static_cast<std::uint64_t>(p) + kProducers * (i % 1000);
          if (i % 64 == 63) {
            map.upsert_sync(p, k, i);
          } else {
            map.submit(p, txn::BatchOp::kUpsert, k, i);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    map.flush_all();
    EXPECT_EQ(map.ops_committed(),
              static_cast<std::uint64_t>(kProducers) * kPerProducer);
    auto txn = map.read_txn(0);
    EXPECT_EQ(txn.map().size(), kProducers * 1000u);
    for (int p = 0; p < kProducers; ++p) {
      for (std::uint64_t s = 0; s < 1000; ++s) {
        const std::uint64_t k = static_cast<std::uint64_t>(p) + kProducers * s;
        const std::uint64_t* v = txn->find(k);
        ASSERT_NE(v, nullptr);
        // Last write to stripe s by producer p has i = 3000 + s.
        EXPECT_EQ(*v, 3000 + s);
      }
    }
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

template <class M>
void run_producers_vs_readers_stress() {
  const long long base_live = ftree::live_nodes();
  {
    constexpr int kProducers = 3;
    M map(kProducers, M::Map::from_entries(workload::ycsb_dataset(2000)),
          1 << 12, 128);
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int p = 1; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        Xoshiro256 rng(static_cast<std::uint64_t>(p) * 77 + 1);
        std::uint64_t i = 0;
        while (!stop.load(std::memory_order_acquire)) {
          if (i % 97 == 96) {
            map.upsert_sync(p, rng.next_below(4000), i);
          } else {
            map.submit(p, txn::BatchOp::kUpsert, rng.next_below(4000), i);
          }
          ++i;
        }
      });
    }
    // Reader on slot 0 (no producer uses it concurrently): point reads and
    // snapshot scans must always see a consistent committed version.
    threads.emplace_back([&] {
      Xoshiro256 rng(5);
      for (int i = 0; i < 300; ++i) {
        auto v = map.get(0, rng.next_below(4000));
        (void)v;
        auto txn = map.read_txn(0);
        EXPECT_GE(txn.map().size(), 2000u);
      }
      // On a loaded host the reads can finish before any producer ran.
      while (map.batches_committed() == 0) std::this_thread::yield();
      stop.store(true, std::memory_order_release);
    });
    for (auto& t : threads) t.join();
    map.flush_all();
    EXPECT_GT(map.batches_committed(), 0u);
    // Quiescent: the reachability oracle must account for every live node
    // and for the exact freed set of a retired version.
    alloc::reclaim_quiesce();
    gc_oracle::expect_exact_collect(
        base_live, [&map] { return map.read_txn(0); },
        [](const typename M::ReadTxn& t) {
          return std::vector{t.map().root()};
        },
        [&map] {
          for (std::uint64_t k = 0; k < 4000; k += 7) {
            map.submit(1, txn::BatchOp::kUpsert, k, k);
          }
          map.flush_all();
          alloc::reclaim_quiesce();
        });
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(TxnBatching, ProducersVsReadersStressPswf) {
  run_producers_vs_readers_stress<PswfMap>();
}

TEST(TxnBatching, ProducersVsReadersStressPslf) {
  run_producers_vs_readers_stress<PslfMap>();
}

// Nested-map payloads under the batching front-end: V owns another FMap,
// so precise collect reenters itself on the flattener thread while it
// frees superseded versions — the reentrancy bug's original trigger.
TEST(TxnBatching, NestedMapPayloadsCollectPrecisely) {
  const long long base_live = ftree::live_nodes();
  {
    struct Inner {
      ftree::FMap<std::uint64_t, std::uint64_t> m;
    };
    using NMap = txn::BatchingMap<std::uint64_t, Inner,
                                  ftree::NoAug<std::uint64_t, Inner>,
                                  vm::PswfVersionManager>;
    NMap map(1, {}, 1 << 8, 16);
    ftree::FMap<std::uint64_t, std::uint64_t> proto;
    for (std::uint64_t j = 0; j < 32; ++j) proto = proto.inserted(j, j);
    for (std::uint64_t i = 0; i < 400; ++i) {
      map.submit(0, txn::BatchOp::kUpsert, i % 40,
                 Inner{proto.inserted(i, i)});
    }
    map.flush_all();
    auto txn = map.read_txn(0);
    EXPECT_EQ(txn.map().size(), 40u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// ---------------------------------------------------------------------------
// YCSB generator.

TEST(TxnYcsb, ZipfRanksInRangeAndSkewed) {
  const std::uint64_t n = 1000;
  workload::ZipfGenerator zipf(n, 0.99);
  Xoshiro256 rng(42);
  constexpr int kSamples = 50000;
  std::vector<std::uint64_t> counts(n, 0);
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t r = zipf.sample(rng);
    ASSERT_LT(r, n);
    ++counts[r];
  }
  // Rank 0 is far above the uniform expectation under theta=0.99 skew.
  EXPECT_GT(counts[0], 10u * kSamples / n);
  // And the head dominates: the top 10 ranks carry well over a quarter.
  std::uint64_t head = 0;
  for (int r = 0; r < 10; ++r) head += counts[r];
  EXPECT_GT(head, kSamples / 4u);
}

TEST(TxnYcsb, StreamsAreDeterministicPerSeed) {
  workload::ZipfGenerator zipf(500, 0.99);
  workload::YcsbStream a(workload::kYcsbA, zipf, 7);
  workload::YcsbStream b(workload::kYcsbA, zipf, 7);
  workload::YcsbStream c(workload::kYcsbA, zipf, 8);
  bool any_difference = false;
  for (int i = 0; i < 1000; ++i) {
    const auto oa = a.next();
    const auto ob = b.next();
    const auto oc = c.next();
    EXPECT_EQ(oa.key, ob.key);
    EXPECT_EQ(oa.type, ob.type);
    any_difference |= (oa.key != oc.key || oa.type != oc.type);
  }
  EXPECT_TRUE(any_difference);  // distinct seeds give distinct streams
}

TEST(TxnYcsb, MixesMatchTheirSpecs) {
  workload::ZipfGenerator zipf(1000, 0.99);
  for (const auto& spec :
       {workload::kYcsbA, workload::kYcsbB, workload::kYcsbC}) {
    workload::YcsbStream stream(spec, zipf, 99);
    constexpr int kOps = 20000;
    int reads = 0;
    for (int i = 0; i < kOps; ++i) {
      const auto op = stream.next();
      reads += op.type == workload::YcsbOp::kRead;
      ASSERT_LT(op.key, 1000u);
    }
    const double frac = static_cast<double>(reads) / kOps;
    EXPECT_NEAR(frac, spec.read_fraction, 0.02)
        << "workload " << spec.name << " read mix off";
  }
}

// ---------------------------------------------------------------------------
// Commit reclamation (alloc/reclaim.h reclaim_retired): a commit whose work
// estimate reaches 2 * Config::grain hands its retired versions to the
// background lane unless the lane still holds a batch; smaller commits free
// inline. These tests pin the rule, the precision guarantees (live_nodes
// back to baseline after the destructor's quiesce) and the latency win the
// background lane exists for.

// Distinct keys that make one commit into a non-empty map large: each key
// costs at least its block copy (ftree::kLeafWork), so the commit's work
// estimate reaches the defer threshold.
constexpr std::uint64_t kLargeCommit = 2 * Config::grain;

// Keys the large-commit tests write back to back. The flattener commits a
// partial batch early only after its rings stay empty for kIdlePatience
// polls; a run it cuts even three times still commits one piece of at
// least kLargeCommit keys.
constexpr std::uint64_t kLargeRun = 4 * kLargeCommit;

// Writes v + k to each key k in [0, n) and waits for them to commit.
void fill(PswfMap& map, std::uint64_t n, std::uint64_t v = 0) {
  for (std::uint64_t k = 0; k < n; ++k) {
    map.submit(0, txn::BatchOp::kUpsert, k, v + k);
  }
  map.flush_all();
}

// A map holding keys [0, n), built rather than committed, so no commit has
// used the lane yet.
PswfMap::Map built_map(std::uint64_t n) {
  return PswfMap::Map::from_entries(workload::ycsb_dataset(n));
}

// Nodes reachable from the map's current version (the GC oracle).
std::size_t current_nodes(PswfMap& map) {
  auto txn = map.read_txn(0);
  return ftree::reachable_nodes<std::uint64_t, std::uint64_t,
                                ftree::NoAug<std::uint64_t, std::uint64_t>>(
      {txn.map().root()});
}

// Live nodes outside the map's current version.
long long other_nodes(PswfMap& map) {
  return ftree::live_nodes() - static_cast<long long>(current_nodes(map));
}

// Fills the map, then runs one-key sync commits, each of which must have
// freed its retired path before upsert_sync returns: the live nodes are
// exactly those of the current version. (A written key may split its leaf
// block, so the count itself can move from commit to commit.)
void expect_commits_free_inline(PswfMap& map) {
  fill(map, 512);
  const long long others = other_nodes(map);
  for (std::uint64_t i = 0; i < 20; ++i) {
    map.upsert_sync(0, i, i + 1);
    EXPECT_EQ(other_nodes(map), others);
  }
}

TEST(TxnReclaim, LargeCommitDefersToBackgroundLane) {
  obs::set_enabled(true);
  obs::Counter& deferred = alloc::ReclaimStats::get().deferred;
  const std::uint64_t deferred0 = deferred.value();
  {
    // The lane is idle until the run's first large piece commits.
    PswfMap map(1, built_map(kLargeRun));
    fill(map, kLargeRun, 1);
  }
  obs::set_enabled(false);
  EXPECT_GT(deferred.value(), deferred0);
  EXPECT_EQ(alloc::reclaim_queue_depth().load(), 0);
}

TEST(TxnReclaim, SmallCommitFreesBeforeSyncReturns) {
  // A one-key commit is far below the default threshold.
  obs::set_enabled(true);
  const std::uint64_t deferred0 = alloc::ReclaimStats::get().deferred.value();
  {
    PswfMap map(1, {});
    expect_commits_free_inline(map);
  }
  obs::set_enabled(false);
  EXPECT_EQ(alloc::ReclaimStats::get().deferred.value(), deferred0);
}

// A pool payload whose destructor reports that it started (through
// `entered`, when given), then blocks until `open` is set.
struct FreeBlocker {
  explicit FreeBlocker(std::atomic<bool>* o, std::atomic<bool>* e = nullptr)
      : open(o), entered(e) {}
  ~FreeBlocker() {
    if (entered != nullptr) entered->store(true, std::memory_order_release);
    while (!open->load(std::memory_order_acquire)) std::this_thread::yield();
  }
  std::atomic<bool>* open;
  std::atomic<bool>* entered;
};

TEST(TxnReclaim, BusyLaneSendsLargeCommitInline) {
  // Occupy the lane with one batch that cannot finish until `open` is set.
  std::atomic<bool> open{false};
  alloc::reclaim_retired(
      std::vector<FreeBlocker*>{alloc::create<FreeBlocker>(&open)},
      /*work=*/~std::uint64_t{0});
  obs::set_enabled(true);
  const std::uint64_t deferred0 = alloc::ReclaimStats::get().deferred.value();
  {
    // Large commits behind the held lane free inline: none is deferred,
    // and once the flush returns the live nodes are exactly those of the
    // current version.
    PswfMap map(1, {});
    fill(map, kLargeRun);
    const long long others = other_nodes(map);
    for (std::uint64_t v = 1; v <= 4; ++v) {
      fill(map, kLargeRun, v);
      EXPECT_EQ(other_nodes(map), others);
    }
    EXPECT_EQ(alloc::ReclaimStats::get().deferred.value(), deferred0);
    EXPECT_EQ(alloc::reclaim_queue_depth().load(), 1);
    open.store(true, std::memory_order_release);
  }
  obs::set_enabled(false);
  EXPECT_EQ(alloc::reclaim_queue_depth().load(), 0);
}

TEST(TxnReclaim, DeferredFreesDrainToBaselineAtTeardown) {
  const long long base_live = ftree::live_nodes();
  {
    // Two producers fill the map, then overwrite it in large commits.
    PswfMap map(2, {});
    for (std::uint64_t i = 0; i < 2 * kLargeRun; ++i) {
      const int p = static_cast<int>(i % 2);
      map.submit(p, txn::BatchOp::kUpsert, i % kLargeRun, i);
      if (i % 97 == 0) (void)map.get(p, i % kLargeRun);
    }
    map.flush_all();
  }
  // ~BatchingMap quiesced the lane: every deferred batch has been freed.
  EXPECT_EQ(ftree::live_nodes(), base_live);
  EXPECT_EQ(alloc::reclaim_queue_depth().load(), 0);
}

TEST(TxnReclaim, ShutdownWithBackedUpLaneDoesNotLeak) {
  const long long base_live = ftree::live_nodes();
  {
    // Back-to-back large commits: each either claims the lane or frees
    // inline behind it, so a batch is usually still pending when the
    // destructor runs (no flush, no explicit quiesce — teardown must drain
    // it; the ASan tier turns any miss into a leak report).
    PswfMap map(1, built_map(kLargeRun));
    for (std::uint64_t i = 0; i < 4 * kLargeRun; ++i) {
      map.submit(0, txn::BatchOp::kUpsert, i % kLargeRun, i);
    }
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
  EXPECT_EQ(alloc::reclaim_queue_depth().load(), 0);
}

TEST(TxnReclaim, ReadsStayCorrectWhileReclaimRunsBehind) {
  const long long base_live = ftree::live_nodes();
  {
    PswfMap map(2, {});
    std::atomic<bool> stop{false};
    std::thread reader([&] {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto v = map.get(1, 7);
        if (v.has_value()) {
          // The writer only ever raises key 7's value; a read below a
          // previously seen one would mean a torn or recycled version.
          EXPECT_GE(*v, last);
          last = *v;
        }
        auto txn = map.read_txn(1);
        EXPECT_LE(txn.map().size(), kLargeRun);
      }
    });
    // Every round after the first overwrites the map in large commits.
    for (std::uint64_t v = 0; v < 8; ++v) fill(map, kLargeRun, v);
    stop.store(true, std::memory_order_release);
    reader.join();
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// ---------------------------------------------------------------------------
// Waiting on a commit: a wait that outlasts the spin window sleeps on the
// committed cursor, and the commit that advances it wakes the sleeper.

using Val = std::shared_ptr<void>;
using ValMap = txn::BatchingMap<std::uint64_t, Val,
                                ftree::NoAug<std::uint64_t, Val>,
                                vm::PswfVersionManager>;

// CPU time the calling thread has used, in seconds.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// The calling thread's CPU time and the wall time `call` took.
struct CallCost {
  double cpu = 0;
  double wall = 0;
};

template <class F>
CallCost cost_of(F&& call) {
  const double cpu0 = thread_cpu_seconds();
  Timer wall;
  call();
  return {thread_cpu_seconds() - cpu0, wall.seconds()};
}

TEST(TxnBatching, BlockedWaitersSleep) {
  constexpr std::uint64_t kHold = 1 << 20;
  constexpr auto kHeld = std::chrono::milliseconds(200);
  std::atomic<bool> open{false};
  std::atomic<bool> entered{false};
  obs::set_enabled(true);
  obs::Counter& sleeps = txn::BatchingStats::get().waiter_sleeps;
  const std::uint64_t sleeps0 = sleeps.value();
  CallCost sync, admit, flush;
  {
    std::vector<std::pair<std::uint64_t, Val>> base;
    base.emplace_back(kHold, std::make_shared<FreeBlocker>(&open, &entered));
    // The tree holds the FreeBlocker's last reference, so overwriting kHold
    // parks the flattener inside that one-key commit's inline free, before
    // it advances any cursor. max_batch 1 and capacity 2 bound each
    // producer to 2 ops in flight.
    ValMap map(3, ValMap::Map::from_entries(std::move(base)),
               /*buffer_capacity=*/2, /*max_batch=*/1);
    map.submit(0, txn::BatchOp::kUpsert, kHold, Val{});
    while (!entered.load(std::memory_order_acquire)) std::this_thread::yield();
    // Producer 2 fills its in-flight bound, so its next submit blocks.
    map.submit(2, txn::BatchOp::kUpsert, 1, Val{});
    map.submit(2, txn::BatchOp::kUpsert, 2, Val{});
    std::thread a(
        [&] { sync = cost_of([&] { map.upsert_sync(1, 3, Val{}); }); });
    std::thread b([&] {
      admit = cost_of([&] { map.submit(2, txn::BatchOp::kUpsert, 4, Val{}); });
    });
    std::thread c([&] { flush = cost_of([&] { map.flush_all(); }); });
    std::this_thread::sleep_for(kHeld);
    open.store(true, std::memory_order_release);
    a.join();
    b.join();
    c.join();
    map.flush_all();
    EXPECT_EQ(map.ops_committed(), 5u);
  }
  const std::uint64_t slept = sleeps.value() - sleeps0;
  obs::set_enabled(false);
  const std::pair<const char*, CallCost> calls[] = {
      {"upsert_sync", sync}, {"submit", admit}, {"flush_all", flush}};
  for (const auto& [name, c] : calls) {
    // Each call waited out most of the hold, and slept through it.
    EXPECT_GT(c.wall, 0.1) << name;
    EXPECT_LT(c.cpu, 0.1 * c.wall) << name << ": " << c.cpu << " s CPU";
  }
  EXPECT_GE(slept, 3u);
}

// Payload whose last release naps: a commit that frees an overwritten one
// outlasts the spin window, so the waits behind it sleep.
struct Nap {
  ~Nap() { std::this_thread::sleep_for(std::chrono::microseconds(150)); }
};

// Four producers each wait for every op they write, one op per commit, and
// most commits free a Nap, so nearly every wait sleeps; a fifth thread
// flushes in a loop. Producer p writes (p + 1) * kOps / 4 ops, so the run
// ends with one producer alone: there no other ring's wake-up can rouse a
// waiter whose own was lost (std::atomic::wait may share one futex between
// the cursors). A lost wake-up leaves a waiter asleep forever, so the run
// has a deadline: a hung run fails (its state is leaked and its threads
// detached) instead of hanging the suite.
TEST(TxnBatching, NoLostWakeUpUnderChurn) {
  constexpr int kProducers = 4;
  constexpr std::uint64_t kOps = 2000;
  constexpr std::uint64_t kTotal = kOps * (1 + 2 + 3 + 4) / kProducers;
  constexpr std::uint64_t kKeys = 64;
  constexpr auto kDeadline = std::chrono::seconds(30);
  struct Churn {
    ValMap map{kProducers, {}, /*buffer_capacity=*/16, /*max_batch=*/1};
    std::atomic<int> producers_done{0};
    std::atomic<bool> flusher_done{false};
    std::atomic<std::uint64_t> stale_reads{0};
  };
  obs::set_enabled(true);
  obs::Counter& sleeps = txn::BatchingStats::get().waiter_sleeps;
  const std::uint64_t sleeps0 = sleeps.value();
  auto* run = new Churn;
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([run, p] {
      const auto share = static_cast<std::uint64_t>(p + 1);
      const std::uint64_t ops = kOps * share / kProducers;
      for (std::uint64_t i = 0; i < ops; ++i) {
        const std::uint64_t k =
            static_cast<std::uint64_t>(p) + kProducers * (i % kKeys);
        const Val mine = std::make_shared<Nap>();
        run->map.upsert_sync(p, k, mine);
        const std::optional<Val> v = run->map.get(p, k);
        if (!v.has_value() || *v != mine) run->stale_reads.fetch_add(1);
      }
      run->producers_done.fetch_add(1, std::memory_order_release);
    });
  }
  threads.emplace_back([run] {
    while (run->producers_done.load(std::memory_order_acquire) < kProducers) {
      run->map.flush_all();
    }
    run->flusher_done.store(true, std::memory_order_release);
  });
  const auto deadline = std::chrono::steady_clock::now() + kDeadline;
  while (!run->flusher_done.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!run->flusher_done.load(std::memory_order_acquire)) {
    for (auto& t : threads) t.detach();
    FAIL() << "a waiter was never woken: " << run->producers_done.load()
           << " of " << kProducers << " producers finished in "
           << kDeadline.count() << " s";
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(run->stale_reads.load(), 0u);
  EXPECT_EQ(run->map.ops_committed(), kTotal);
  delete run;
  const std::uint64_t slept = sleeps.value() - sleeps0;
  obs::set_enabled(false);
  // The premise: most of the producers' waits slept.
  EXPECT_GE(slept, kTotal / 2);
}

// Retired-value payload with a deliberately expensive last-reference
// destructor. shared_ptr copies (ring slots, path-copied tree nodes) cost
// nothing; only the final release — which happens when a retirement sweep
// frees the last tree node holding the value — pays the sleep. That gives
// an inline sweep a scheduler-independent cost floor far above timing
// noise, instead of asking two allocator-bound runs to out-race each other.
struct SlowToFree {
  static constexpr std::chrono::milliseconds kRetireCost{20};
  ~SlowToFree() { std::this_thread::sleep_for(kRetireCost); }
};

// p99 latency of a commit of `keys` distinct keys whose retired version
// holds a SlowToFree's last reference, timed from the release of the
// parked flattener to the commit's ticket. Below the defer threshold the
// commit pays the destructor before its ticket commits; above it the
// commit publishes the retired version to the background lane in O(1).
double p99_sync_commit_us(std::uint64_t keys) {
  constexpr std::uint64_t kRounds = 32;
  // Round r overwrites kHold + r, whose FreeBlocker parks the flattener
  // inside that one-key commit's inline free while the whole batch is
  // queued, then keys [0, keys - 1) and kSlow + r, whose SlowToFree the
  // batch's commit retires.
  constexpr std::uint64_t kSlow = 1 << 20;
  constexpr std::uint64_t kHold = 2 << 20;
  std::atomic<bool> open{false};
  std::atomic<bool> entered{false};
  std::vector<std::pair<std::uint64_t, Val>> base;
  for (std::uint64_t k = 0; k + 1 < keys; ++k) base.emplace_back(k, Val{});
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    base.emplace_back(kSlow + r, std::make_shared<SlowToFree>());
    base.emplace_back(kHold + r,
                      std::make_shared<FreeBlocker>(&open, &entered));
  }
  // Built from the moved vector and written only with empty values, so
  // the tree holds the last reference to every payload.
  ValMap map(1, ValMap::Map::from_entries(std::move(base)),
             /*buffer_capacity=*/2 * keys);
  obs::LatencyHistogram lat;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    // The lane holds one batch at a time and a commit behind a busy lane
    // frees inline by design, so every commit here starts on an idle lane.
    while (alloc::reclaim_queue_depth().load() != 0) std::this_thread::yield();
    open.store(false, std::memory_order_relaxed);
    entered.store(false, std::memory_order_relaxed);
    map.submit(0, txn::BatchOp::kUpsert, kHold + r, Val{});
    while (!entered.load(std::memory_order_acquire)) std::this_thread::yield();
    for (std::uint64_t k = 0; k + 1 < keys; ++k) {
      map.submit(0, txn::BatchOp::kUpsert, k, Val{});
    }
    map.submit(0, txn::BatchOp::kUpsert, kSlow + r, Val{});
    const std::uint64_t ticket = map.submitted_ticket(0);
    Timer t;
    open.store(true, std::memory_order_release);
    map.wait_committed(0, ticket);
    lat.record(t.nanos());
  }
  return lat.quantile(0.99) / 1000.0;
}

TEST(ReclaimLatency, SyncCommitP99DoesNotInheritRetirementFrees) {
  const long long base_live = ftree::live_nodes();
  // A one-key commit is below the threshold; a commit of kLargeCommit
  // keys into the non-empty map is above it.
  const double inline_p99_us = p99_sync_commit_us(1);
  const double bg_p99_us = p99_sync_commit_us(kLargeCommit);
  RecordProperty("inline_p99_us", static_cast<int>(inline_p99_us));
  RecordProperty("bg_p99_us", static_cast<int>(bg_p99_us));
  // Inline p99 has a hard floor of kRetireCost (the destructor sleep on
  // the commit path); deferred p99 is ordinary commit latency, far below.
  EXPECT_GT(inline_p99_us, 1000.0)
      << "workload no longer puts retirement frees on the sync path";
  EXPECT_LT(bg_p99_us, inline_p99_us)
      << "inline p99 " << inline_p99_us << "us vs bg p99 " << bg_p99_us
      << "us";
  // Both lanes stay precise: everything freed once both maps are gone.
  EXPECT_EQ(ftree::live_nodes(), base_live);
  EXPECT_EQ(alloc::reclaim_queue_depth().load(), 0);
}

TEST(TxnYcsb, DatasetIsDeterministicAndCoversKeySpace) {
  const auto d1 = workload::ycsb_dataset(1000);
  const auto d2 = workload::ycsb_dataset(1000);
  ASSERT_EQ(d1.size(), 1000u);
  EXPECT_EQ(d1, d2);
  for (std::uint64_t k = 0; k < d1.size(); ++k) EXPECT_EQ(d1[k].first, k);
  const long long base_live = ftree::live_nodes();
  {
    auto m = PswfMap::Map::from_entries(workload::ycsb_dataset(1000));
    EXPECT_EQ(m.size(), 1000u);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

}  // namespace
