// Tests for the txn/ batched multi-writer front-end and the YCSB workload
// generator: commit semantics (sync tickets, flush drains, last-write-wins
// dedup), snapshot isolation of read transactions, batch-bound accounting,
// multi-producer/multi-reader stress, and zero node leakage after every
// teardown. Every suite name starts with "Txn" so CI's TSan job can select
// this concurrency tier alongside Vm with `ctest -R 'Vm|Txn'`.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
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
// estimate reaches 2 * config().grain hands its retired versions to the
// background lane unless the lane still holds a batch; smaller commits free
// inline. These tests pin the rule, the precision guarantees (live_nodes
// back to baseline after the destructor's quiesce) and the latency win the
// background lane exists for.

// Scoped override of the defer threshold, 2 * config().grain. bulk_grain
// latches the real grain first, so the bulk ops keep their fork grain.
struct GrainGuard {
  explicit GrainGuard(long grain) : saved(config().grain) {
    (void)ftree::bulk_grain();
    config().grain = grain;
  }
  ~GrainGuard() { config().grain = saved; }
  long saved;
};

// Every commit of a non-trivial map is above the threshold.
constexpr long kDeferAll = 1;

// Fills keys [0, n) and commits them.
void fill(PswfMap& map, std::uint64_t n) {
  for (std::uint64_t k = 0; k < n; ++k) {
    map.submit(0, txn::BatchOp::kUpsert, k, k);
  }
  map.flush_all();
}

// Nodes reachable from the map's current version (the GC oracle).
std::size_t current_nodes(PswfMap& map) {
  auto txn = map.read_txn(0);
  return ftree::reachable_nodes<std::uint64_t, std::uint64_t,
                                ftree::NoAug<std::uint64_t, std::uint64_t>>(
      {txn.map().root()});
}

// Fills the map, then runs one-key sync commits, each of which must have
// freed its retired path before upsert_sync returns: the live nodes are
// exactly those of the current version. (A written key may split its leaf
// block, so the count itself can move from commit to commit.)
void expect_commits_free_inline(PswfMap& map) {
  fill(map, 512);
  const long long others =
      ftree::live_nodes() - static_cast<long long>(current_nodes(map));
  for (std::uint64_t i = 0; i < 20; ++i) {
    map.upsert_sync(0, i, i + 1);
    EXPECT_EQ(ftree::live_nodes() - others,
              static_cast<long long>(current_nodes(map)));
  }
}

TEST(TxnReclaim, LargeCommitDefersToBackgroundLane) {
  obs::set_enabled(true);
  obs::Counter& deferred = alloc::ReclaimStats::get().deferred;
  const std::uint64_t deferred0 = deferred.value();
  {
    GrainGuard grain(kDeferAll);
    PswfMap map(1, {});
    fill(map, 512);
    for (std::uint64_t i = 0; i < 20; ++i) map.upsert_sync(0, i, i + 1);
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

// A pool payload whose destructor blocks until `open` is set.
struct LaneBlocker {
  explicit LaneBlocker(std::atomic<bool>* o) : open(o) {}
  ~LaneBlocker() {
    while (!open->load(std::memory_order_acquire)) std::this_thread::yield();
  }
  std::atomic<bool>* open;
};

TEST(TxnReclaim, BusyLaneSendsLargeCommitInline) {
  // Occupy the lane with one batch that cannot finish until `open` is set.
  std::atomic<bool> open{false};
  alloc::reclaim_retired(
      std::vector<LaneBlocker*>{alloc::create<LaneBlocker>(&open)},
      /*work=*/~std::uint64_t{0});
  {
    GrainGuard grain(kDeferAll);
    PswfMap map(1, {});
    expect_commits_free_inline(map);
    EXPECT_EQ(alloc::reclaim_queue_depth().load(), 1);
    open.store(true, std::memory_order_release);
  }
  EXPECT_EQ(alloc::reclaim_queue_depth().load(), 0);
}

TEST(TxnReclaim, DeferredFreesDrainToBaselineAtTeardown) {
  const long long base_live = ftree::live_nodes();
  {
    GrainGuard grain(kDeferAll);
    PswfMap map(2, {}, /*buffer_capacity=*/1 << 10, /*max_batch=*/64);
    for (std::uint64_t i = 0; i < 2000; ++i) {
      map.submit(static_cast<int>(i % 2), txn::BatchOp::kUpsert, i % 512, i);
      if (i % 97 == 0) (void)map.get(static_cast<int>(i % 2), i % 512);
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
    GrainGuard grain(kDeferAll);
    // max_batch=1 maximizes retirements: every commit either claims the
    // lane or frees inline behind it, so a batch is usually still pending
    // when the destructor runs (no flush, no explicit quiesce — teardown
    // must drain it; the ASan tier turns any miss into a leak report).
    PswfMap map(1, {}, /*buffer_capacity=*/1 << 10, /*max_batch=*/1);
    for (std::uint64_t i = 0; i < 1500; ++i) {
      map.submit(0, txn::BatchOp::kUpsert, i % 1024, i);
    }
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
  EXPECT_EQ(alloc::reclaim_queue_depth().load(), 0);
}

TEST(TxnReclaim, ReadsStayCorrectWhileReclaimRunsBehind) {
  const long long base_live = ftree::live_nodes();
  {
    GrainGuard grain(kDeferAll);
    PswfMap map(2, {}, /*buffer_capacity=*/1 << 10, /*max_batch=*/32);
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
        EXPECT_LE(txn.map().size(), 257u);
      }
    });
    for (std::uint64_t i = 1; i <= 1200; ++i) {
      map.upsert_sync(0, 7, i);
      map.submit(0, txn::BatchOp::kUpsert, i % 256 + 100, i);
    }
    stop.store(true, std::memory_order_release);
    reader.join();
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
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

// p99 latency of an upsert_sync whose commit retires a SlowToFree, with the
// defer threshold at `grain`'s. Below the threshold the commit path the
// sync waiter is parked on pays the destructor; above it the commit
// publishes the retired version to the background lane in O(1).
double p99_sync_commit_us(long grain) {
  using Slow = std::shared_ptr<SlowToFree>;
  using NMap = txn::BatchingMap<std::uint64_t, Slow,
                                ftree::NoAug<std::uint64_t, Slow>,
                                vm::PswfVersionManager>;
  constexpr std::uint64_t kRounds = 32;
  GrainGuard guard(grain);
  // The lane holds one batch at a time and a commit behind a busy lane
  // frees inline by design, so every commit here starts on an idle lane.
  const auto idle_lane = [] {
    while (alloc::reclaim_queue_depth().load() != 0) std::this_thread::yield();
  };
  std::vector<std::pair<std::uint64_t, Slow>> base;
  for (std::uint64_t k = 0; k < 512; ++k) base.emplace_back(k, Slow{});
  obs::LatencyHistogram lat;
  // A one-slot ring drops its copy of a value at the next submit, so when
  // a key's SlowToFree is overwritten the retired version holds the last
  // reference.
  NMap map(1, NMap::Map::from_entries(base), /*buffer_capacity=*/1,
           /*max_batch=*/1);
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    const std::uint64_t key = 1000 + r;
    idle_lane();
    map.upsert_sync(0, key, std::make_shared<SlowToFree>());
    idle_lane();
    Timer t;
    map.upsert_sync(0, key, Slow{});
    lat.record(t.nanos());
  }
  return lat.quantile(0.99) / 1000.0;
}

TEST(ReclaimLatency, SyncCommitP99DoesNotInheritRetirementFrees) {
  const long long base_live = ftree::live_nodes();
  // At the default grain every one-key commit here is below the
  // threshold; at kDeferAll every one is above it.
  const double inline_p99_us = p99_sync_commit_us(config().grain);
  const double bg_p99_us = p99_sync_commit_us(kDeferAll);
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
