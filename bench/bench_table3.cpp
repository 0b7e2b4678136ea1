// Reproduces TABLE 3 of the paper: the inverted-index application in the
// dynamic setting. With p threads generating queries and the writer applying
// document batches (each batch one atomic write transaction applied with
// parallel tree union), run updates and queries simultaneously for a fixed
// wall-clock window (Tu+q); then run the same number of updates alone (Tu)
// and queries alone (Tq). The paper's claim: Tu + Tq ~ Tu+q, i.e., running
// them concurrently costs almost nothing.
//
// Paper corpus: Wikipedia 2016 (8.13M docs, 1.6e9 pairs); here a synthetic
// Zipf corpus of the same shape (see DESIGN.md 3.8). Scale with MVCC_SCALE.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "mvcc/common/timing.h"
#include "mvcc/invidx/corpus.h"
#include "mvcc/invidx/inverted_index.h"
#include "mvcc/vm/pswf.h"

namespace {

using namespace mvcc;
using invidx::Document;
using invidx::InvertedIndex;
using invidx::Term;

struct Workload {
  std::vector<Document> preload;
  std::vector<std::vector<Document>> update_batches;
  std::vector<std::pair<Term, Term>> queries;
};

Workload make_workload() {
  invidx::CorpusConfig cc;
  cc.num_docs = static_cast<std::uint64_t>(config().scaled(4000));
  cc.vocabulary = static_cast<std::uint64_t>(config().scaled(20000));
  auto corpus = invidx::make_corpus(cc);

  Workload w;
  const std::size_t preload_count = corpus.size() / 2;
  w.preload.assign(corpus.begin(),
                   corpus.begin() + static_cast<long>(preload_count));
  const std::size_t batch_size = 16;
  for (std::size_t i = preload_count; i < corpus.size(); i += batch_size) {
    const std::size_t end = std::min(i + batch_size, corpus.size());
    w.update_batches.emplace_back(corpus.begin() + static_cast<long>(i),
                                  corpus.begin() + static_cast<long>(end));
  }
  w.queries = invidx::make_query_terms(
      cc, static_cast<std::uint64_t>(config().scaled(20000)));
  return w;
}

using Index = InvertedIndex<vm::PswfVersionManager>;

struct Run {
  double tu = 0;   // update-only time
  double tq = 0;   // query-only time
  double tuq = 0;  // simultaneous time
};

// Run `nbatches` update batches on the writer slot (cyclically over the
// prepared batch list, mirroring the concurrent phase).
void run_updates(Index& idx, const Workload& w, std::size_t nbatches,
                 int slot) {
  for (std::size_t i = 0; i < nbatches; ++i) {
    idx.add_documents(slot, w.update_batches[i % w.update_batches.size()]);
  }
}

// Run `nqueries` and-queries round-robin over `threads` reader slots.
void run_queries(Index& idx, const Workload& w, std::size_t nqueries,
                 int threads) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= nqueries) return;
        const auto& [a, b] = w.queries[i % w.queries.size()];
        volatile std::size_t sink = idx.and_query(t, a, b, 10).size();
        (void)sink;
      }
    });
  }
  for (auto& t : ts) t.join();
}

Run run_setting(const Workload& w, int query_threads) {
  Run out;
  const int writer_slot = query_threads;

  // Phase 1: simultaneous updates and queries for a fixed window.
  std::size_t updates_done = 0;
  std::size_t queries_done = 0;
  {
    Index idx(query_threads + 1);
    idx.add_documents(writer_slot, w.preload);
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> u{0};
    std::atomic<std::size_t> q{0};
    Timer timer;
    std::thread writer([&] {
      std::size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        idx.add_documents(writer_slot,
                          w.update_batches[i % w.update_batches.size()]);
        ++i;
        u.store(i, std::memory_order_relaxed);
      }
    });
    std::vector<std::thread> readers;
    for (int t = 0; t < query_threads; ++t) {
      readers.emplace_back([&, t] {
        std::size_t i = static_cast<std::size_t>(t);
        while (!stop.load(std::memory_order_acquire)) {
          const auto& [a, b] = w.queries[i % w.queries.size()];
          volatile std::size_t sink = idx.and_query(t, a, b, 10).size();
          (void)sink;
          i += static_cast<std::size_t>(query_threads);
          q.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(bench::cell_seconds() * 2));
    stop.store(true, std::memory_order_release);
    writer.join();
    for (auto& t : readers) t.join();
    out.tuq = timer.seconds();
    updates_done = u.load();
    queries_done = q.load();
  }

  // Phase 2: the same number of updates, alone.
  {
    Index idx(query_threads + 1);
    idx.add_documents(writer_slot, w.preload);
    Timer timer;
    run_updates(idx, w, updates_done, writer_slot);
    out.tu = timer.seconds();
  }

  // Phase 3: the same number of queries, alone (all threads).
  {
    Index idx(query_threads + 1);
    idx.add_documents(writer_slot, w.preload);
    Timer timer;
    run_queries(idx, w, queries_done, query_threads);
    out.tq = timer.seconds();
  }
  return out;
}

}  // namespace

int main() {
  const Workload w = make_workload();
  bench::print_header(
      "Table 3: inverted index -- concurrent updates+queries vs separate");
  std::printf("(synthetic Zipf corpus; paper: Wikipedia, 144 threads, 30s "
              "windows, p in {10,20,40,80})\n");
  bench::print_row({"p", "Tu", "Tq", "Tu+Tq", "Tu+q"});
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  std::vector<int> ps;
  for (int p = 1; p <= static_cast<int>(hw); p *= 2) ps.push_back(p);
  for (int p : ps) {
    std::fprintf(stderr, "table3: p=%d query threads...\n", p);
    Run r = run_setting(w, p);
    bench::print_row({std::to_string(p), bench::fmt(r.tu, 2),
                      bench::fmt(r.tq, 2), bench::fmt(r.tu + r.tq, 2),
                      bench::fmt(r.tuq, 2)});
  }
  std::printf("shape check: Tu + Tq should be close to Tu+q (the paper's "
              "finding that concurrency is nearly free)\n");
  return 0;
}
