// Tests for the inverted-index subsystem (the Table 3 application):
// corpus determinism under fixed seeds, index-vs-brute-force oracle on
// small corpora, last-write-wins on replayed batches, snapshot isolation
// of and-queries during concurrent add_documents, and precise GC
// (ftree::live_nodes returns to baseline after churn). Suites are named
// Invidx* so the TSan CI tier (-R 'Vm|Txn|Baselines|Invidx') runs the
// concurrency tests under the race detector.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "mvcc/common/rng.h"
#include "mvcc/ftree/ops.h"
#include "mvcc/invidx/corpus.h"
#include "mvcc/invidx/inverted_index.h"
#include "mvcc/vm/pslf.h"
#include "mvcc/vm/pswf.h"

namespace {

using namespace mvcc;
using invidx::CorpusConfig;
using invidx::DocId;
using invidx::Document;
using invidx::InvertedIndex;
using invidx::Term;

using Index = InvertedIndex<vm::PswfVersionManager>;

// Brute-force reference: term -> set of docs containing it.
using Oracle = std::map<Term, std::set<DocId>>;

void apply_to_oracle(Oracle& oracle, const std::vector<Document>& batch) {
  for (const Document& doc : batch) {
    for (Term t : doc.terms) oracle[t].insert(doc.id);
  }
}

std::vector<DocId> oracle_and_query(const Oracle& oracle, Term a, Term b,
                                    std::size_t limit) {
  std::vector<DocId> out;
  const auto ia = oracle.find(a);
  const auto ib = oracle.find(b);
  if (ia == oracle.end() || ib == oracle.end()) return out;
  std::set_intersection(ia->second.begin(), ia->second.end(),
                        ib->second.begin(), ib->second.end(),
                        std::back_inserter(out));
  if (out.size() > limit) out.resize(limit);
  return out;
}

std::vector<std::vector<Document>> batched(const std::vector<Document>& docs,
                                           std::size_t batch_size) {
  std::vector<std::vector<Document>> out;
  for (std::size_t i = 0; i < docs.size(); i += batch_size) {
    const std::size_t end = std::min(i + batch_size, docs.size());
    out.emplace_back(docs.begin() + static_cast<long>(i),
                     docs.begin() + static_cast<long>(end));
  }
  return out;
}

TEST(Invidx, CorpusDeterministicUnderFixedSeed) {
  CorpusConfig cc;
  cc.num_docs = 200;
  cc.vocabulary = 500;
  cc.terms_per_doc = 16;
  const auto c1 = invidx::make_corpus(cc);
  const auto c2 = invidx::make_corpus(cc);
  ASSERT_EQ(c1.size(), c2.size());
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_EQ(c1[i].id, c2[i].id);
    EXPECT_EQ(c1[i].terms, c2[i].terms);
  }
  EXPECT_EQ(invidx::make_query_terms(cc, 300),
            invidx::make_query_terms(cc, 300));

  CorpusConfig other = cc;
  other.seed ^= 1;
  const auto c3 = invidx::make_corpus(other);
  bool any_diff = false;
  for (std::size_t i = 0; i < c1.size() && !any_diff; ++i) {
    any_diff = c1[i].terms != c3[i].terms;
  }
  EXPECT_TRUE(any_diff) << "different seeds produced identical corpora";
}

TEST(Invidx, CorpusShapeAndQueryPairs) {
  CorpusConfig cc;
  cc.num_docs = 300;
  cc.vocabulary = 400;
  cc.terms_per_doc = 24;
  const auto corpus = invidx::make_corpus(cc);
  ASSERT_EQ(corpus.size(), cc.num_docs);
  std::set<Term> seen_terms;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(corpus[i].id, i);  // dense ascending doc ids
    ASSERT_FALSE(corpus[i].terms.empty());
    EXPECT_LE(corpus[i].terms.size(), cc.terms_per_doc);
    for (std::size_t j = 0; j < corpus[i].terms.size(); ++j) {
      EXPECT_LT(corpus[i].terms[j], cc.vocabulary);
      if (j > 0) {  // strictly sorted = distinct
        EXPECT_LT(corpus[i].terms[j - 1], corpus[i].terms[j]);
      }
      seen_terms.insert(corpus[i].terms[j]);
    }
  }
  // The Zipf head concentrates mass but the tail still shows up: the
  // corpus should use a healthy share of the vocabulary.
  EXPECT_GT(seen_terms.size(), cc.vocabulary / 4);

  const auto queries = invidx::make_query_terms(cc, 500);
  ASSERT_EQ(queries.size(), 500u);
  for (const auto& [a, b] : queries) {
    EXPECT_LT(a, cc.vocabulary);
    EXPECT_LT(b, cc.vocabulary);
    EXPECT_NE(a, b);
  }
}

TEST(Invidx, MatchesBruteForceOracle) {
  const long long base_live = ftree::live_nodes();
  {
    CorpusConfig cc;
    cc.num_docs = 150;
    cc.vocabulary = 60;
    cc.terms_per_doc = 8;
    const auto corpus = invidx::make_corpus(cc);
    const auto batches = batched(corpus, 16);

    Index idx(1);
    Oracle oracle;
    for (const auto& batch : batches) {
      idx.add_documents(0, batch);
      apply_to_oracle(oracle, batch);
    }

    auto snap = idx.snapshot(0);
    EXPECT_EQ(snap.terms(), oracle.size());
    for (const auto& [t, docs] : oracle) {
      EXPECT_EQ(snap.doc_count(t), docs.size()) << "term " << t;
    }
    // Every term pair: the index's and-query equals the brute-force
    // intersection, both unbounded and truncated by the limit.
    for (Term a = 0; a < cc.vocabulary; ++a) {
      for (Term b = a + 1; b < cc.vocabulary; ++b) {
        const auto want = oracle_and_query(oracle, a, b, corpus.size());
        EXPECT_EQ(idx.and_query(0, a, b, corpus.size()), want);
        EXPECT_EQ(snap.and_query(b, a, corpus.size()), want);  // symmetric
        const auto want3 = oracle_and_query(oracle, a, b, 3);
        EXPECT_EQ(idx.and_query(0, a, b, 3), want3);
      }
    }
    // Absent terms and zero limits yield empty results.
    EXPECT_TRUE(idx.and_query(0, cc.vocabulary + 1, 0, 10).empty());
    EXPECT_TRUE(idx.and_query(0, 0, 1, 0).empty());

    // Last-write-wins: replaying already-applied batches (exactly what
    // bench_table3's update-only phase does when it cycles its batch
    // list) must not double-count any posting.
    idx.add_documents(0, batches.front());
    idx.add_documents(0, batches.back());
    idx.add_documents(0, corpus);  // the whole corpus again, in one txn
    auto replayed = idx.snapshot(0);
    EXPECT_EQ(replayed.terms(), oracle.size());
    for (const auto& [t, docs] : oracle) {
      EXPECT_EQ(replayed.doc_count(t), docs.size())
          << "replay double-counted postings for term " << t;
    }
    for (Term a = 0; a < cc.vocabulary; a += 7) {
      for (Term b = a + 3; b < cc.vocabulary; b += 11) {
        EXPECT_EQ(replayed.and_query(a, b, corpus.size()),
                  oracle_and_query(oracle, a, b, corpus.size()));
      }
    }
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(Invidx, WorksThroughPslf) {
  const long long base_live = ftree::live_nodes();
  {
    CorpusConfig cc;
    cc.num_docs = 60;
    cc.vocabulary = 40;
    cc.terms_per_doc = 6;
    const auto corpus = invidx::make_corpus(cc);
    InvertedIndex<vm::PslfVersionManager> idx(2);
    Oracle oracle;
    for (const auto& batch : batched(corpus, 10)) {
      idx.add_documents(1, batch);
      apply_to_oracle(oracle, batch);
    }
    for (Term a = 0; a < cc.vocabulary; a += 3) {
      for (Term b = a + 1; b < cc.vocabulary; b += 5) {
        EXPECT_EQ(idx.and_query(0, a, b, corpus.size()),
                  oracle_and_query(oracle, a, b, corpus.size()));
      }
    }
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(Invidx, SnapshotIsolationAcrossCommits) {
  const long long base_live = ftree::live_nodes();
  {
    CorpusConfig cc;
    cc.num_docs = 80;
    cc.vocabulary = 30;
    cc.terms_per_doc = 6;
    const auto corpus = invidx::make_corpus(cc);
    const auto batches = batched(corpus, 20);
    ASSERT_GE(batches.size(), 2u);

    Index idx(2);
    idx.add_documents(1, batches[0]);
    Oracle at_snap;
    apply_to_oracle(at_snap, batches[0]);

    auto snap = idx.snapshot(0);
    std::vector<std::pair<std::vector<DocId>, std::pair<Term, Term>>> frozen;
    for (Term a = 0; a < cc.vocabulary; a += 2) {
      for (Term b = a + 1; b < cc.vocabulary; b += 3) {
        frozen.push_back({snap.and_query(a, b, corpus.size()), {a, b}});
      }
    }
    // Later commits must not bleed into the pinned snapshot.
    for (std::size_t i = 1; i < batches.size(); ++i) {
      idx.add_documents(1, batches[i]);
    }
    for (const auto& [want, q] : frozen) {
      EXPECT_EQ(snap.and_query(q.first, q.second, corpus.size()), want);
      EXPECT_EQ(oracle_and_query(at_snap, q.first, q.second, corpus.size()),
                want);
    }
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(Invidx, SnapshotOutlivesIndex) {
  const long long base_live = ftree::live_nodes();
  {
    CorpusConfig cc;
    cc.num_docs = 50;
    cc.vocabulary = 25;
    cc.terms_per_doc = 5;
    const auto corpus = invidx::make_corpus(cc);
    Oracle oracle;
    apply_to_oracle(oracle, corpus);

    auto* idx = new Index(1);
    idx->add_documents(0, corpus);
    auto snap = idx->snapshot(0);
    delete idx;  // snapshot owns its nodes; the manager's death is no event

    for (Term a = 0; a < cc.vocabulary; ++a) {
      for (Term b = a + 1; b < cc.vocabulary; b += 2) {
        EXPECT_EQ(snap.and_query(a, b, corpus.size()),
                  oracle_and_query(oracle, a, b, corpus.size()));
      }
    }
    EXPECT_NE(ftree::live_nodes(), base_live);  // snapshot still holds them
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

TEST(Invidx, LiveNodesReturnToBaselineAfterChurn) {
  const long long base_live = ftree::live_nodes();
  {
    CorpusConfig cc;
    cc.num_docs = 200;
    cc.vocabulary = 80;
    cc.terms_per_doc = 10;
    const auto corpus = invidx::make_corpus(cc);
    Index idx(3);
    // Churn: repeated replays and fresh adds with snapshots taken and
    // dropped along the way.
    for (int round = 0; round < 4; ++round) {
      for (const auto& batch : batched(corpus, 32)) {
        idx.add_documents(2, batch);
        auto s = idx.snapshot(round % 2);
        (void)s.doc_count(0);
      }
    }
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// Concurrent writer + query threads: every and-query observes ONE
// consistent version (snapshot isolation), per-reader doc counts are
// monotone (versions only move forward), and the final state matches the
// oracle. Runs under TSan in CI.
TEST(InvidxStress, SnapshotQueriesDuringConcurrentAddDocuments) {
  const long long base_live = ftree::live_nodes();
  {
    constexpr int kReaders = 3;
    CorpusConfig cc;
    cc.num_docs = 600;
    cc.vocabulary = 300;
    cc.terms_per_doc = 12;
    const auto corpus = invidx::make_corpus(cc);
    const auto batches = batched(corpus, 24);
    const auto queries = invidx::make_query_terms(cc, 256);
    Oracle oracle;
    apply_to_oracle(oracle, corpus);

    Index idx(kReaders + 1);
    std::atomic<bool> done{false};
    std::thread writer([&] {
      for (const auto& batch : batches) idx.add_documents(kReaders, batch);
      done.store(true, std::memory_order_release);
    });
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        std::size_t i = static_cast<std::size_t>(t);
        while (!done.load(std::memory_order_acquire)) {
          const auto& [a, b] = queries[i % queries.size()];
          // A snapshot is internally consistent: asking it twice gives
          // the same answer no matter what the writer publishes meanwhile.
          auto snap = idx.snapshot(t);
          const auto r1 = snap.and_query(a, b, 64);
          EXPECT_EQ(snap.and_query(a, b, 64), r1);
          // And no and-query result can exceed the final oracle: the
          // writer only ever adds documents from the corpus.
          const auto want = oracle_and_query(oracle, a, b, cc.num_docs);
          for (DocId d : r1) {
            EXPECT_TRUE(std::binary_search(want.begin(), want.end(), d))
                << "doc " << d << " never indexed for (" << a << "," << b
                << ")";
          }
          i += kReaders;
        }
      });
    }
    writer.join();
    for (auto& t : readers) t.join();

    // Final state equals the oracle.
    auto snap = idx.snapshot(0);
    EXPECT_EQ(snap.terms(), oracle.size());
    for (const auto& [t, docs] : oracle) {
      EXPECT_EQ(snap.doc_count(t), docs.size());
    }
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// Per-reader version monotonicity, checked head-on: successive snapshots
// taken by the same slot never lose postings.
TEST(InvidxStress, ReaderSnapshotsAreMonotone) {
  const long long base_live = ftree::live_nodes();
  {
    CorpusConfig cc;
    cc.num_docs = 400;
    cc.vocabulary = 100;
    cc.terms_per_doc = 10;
    const auto corpus = invidx::make_corpus(cc);
    const auto batches = batched(corpus, 16);

    Index idx(2);
    std::atomic<bool> done{false};
    std::thread writer([&] {
      for (const auto& batch : batches) idx.add_documents(1, batch);
      done.store(true, std::memory_order_release);
    });
    std::size_t last_total = 0;
    while (!done.load(std::memory_order_acquire)) {
      auto snap = idx.snapshot(0);
      std::size_t total = 0;
      for (Term t = 0; t < cc.vocabulary; t += 17) {
        total += snap.doc_count(t);
      }
      EXPECT_GE(total, last_total) << "a later snapshot lost postings";
      last_total = total;
    }
    writer.join();
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

// Batches large enough to cross the fork-join grain: the bulk apply path
// runs parallel build_sorted + multi_insert (MVCC_THREADS workers) while
// reader threads concurrently snapshot and drop versions — the exact
// interleaving the refcount audit must survive. Runs under TSan in CI.
TEST(InvidxStress, ParallelBulkApplyUnderConcurrentSnapshots) {
  const long long base_live = ftree::live_nodes();
  {
    constexpr int kReaders = 2;
    CorpusConfig cc;
    cc.num_docs = 2400;
    cc.vocabulary = 6000;
    cc.terms_per_doc = 10;
    cc.theta = 0.5;  // flatter: touch most of the vocabulary per batch
    const auto corpus = invidx::make_corpus(cc);
    const auto batches = batched(corpus, 800);  // ~5-6k distinct terms each
    Oracle oracle;
    apply_to_oracle(oracle, corpus);

    Index idx(kReaders + 1);
    std::atomic<bool> done{false};
    std::thread writer([&] {
      for (const auto& batch : batches) idx.add_documents(kReaders, batch);
      done.store(true, std::memory_order_release);
    });
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        while (!done.load(std::memory_order_acquire)) {
          auto snap = idx.snapshot(t);
          (void)snap.and_query(1, 2, 8);
          (void)snap.terms();
        }
      });
    }
    writer.join();
    for (auto& t : readers) t.join();

    auto snap = idx.snapshot(0);
    EXPECT_EQ(snap.terms(), oracle.size());
    std::size_t want_postings = 0, got_postings = 0;
    for (const auto& [t, docs] : oracle) {
      want_postings += docs.size();
      got_postings += snap.doc_count(t);
    }
    EXPECT_EQ(got_postings, want_postings);
  }
  EXPECT_EQ(ftree::live_nodes(), base_live);
}

}  // namespace
