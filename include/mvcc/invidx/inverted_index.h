// Versioned inverted index — the Table 3 application (paper Section 6).
//
// The index is a functional map Term -> PostingList where a posting list
// is itself a functional map DocId -> marker, so one version of the WHOLE
// index is a single tree-of-trees root. Versions are published through a
// vm/ Version Maintenance algorithm: each document batch becomes ONE
// atomic write transaction (the writer applies each touched term's doc run
// to its current posting list with `multi_insert`, then every touched term
// to the index in one more, fork-join workers honoring MVCC_THREADS), and
// queries pin a version, take an O(1) snapshot, release, and intersect two
// posting lists without ever blocking the writer. This is exactly the
// architecture behind the paper's Tu + Tq ~ Tu+q result: updates and
// queries share nothing but reference counts.
//
// Duplicate (term, doc) pairs — replayed batches, re-added documents — are
// LAST-WRITE-WINS: the posting-list multi_insert REPLACES the doc entry
// rather than appending, so re-applying a batch leaves every posting list
// (and every doc_count) unchanged instead of double-counting postings.
//
// Concurrency contract (inherited from vm/base.h): add_documents calls
// must be externally serialized (single writer at a time); and_query and
// snapshot are wait-free against the writer and fully concurrent across
// distinct slots. A slot p must not be used from two threads at once.
// Precise GC falls out of the payload ownership: every Map a VM operation
// proves unreachable is returned to the slab pool on the spot, through
// alloc::destroy on the calling thread (its destructor reenters collect
// for the nested posting lists), so ftree::live_nodes() returns to
// baseline once the index and its snapshots are gone.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mvcc/alloc/pool.h"
#include "mvcc/ftree/fmap.h"
#include "mvcc/invidx/corpus.h"
#include "mvcc/vm/base.h"

namespace mvcc::invidx {

template <template <class> class VMImpl>
class InvertedIndex {
 public:
  using PostingList = ftree::FMap<DocId, std::uint32_t>;
  using Map = ftree::FMap<Term, PostingList>;
  using VM = VMImpl<Map>;
  static_assert(vm::VersionManagerFor<VM, Map>);

  // `nprocs` slots: by convention benches use 0..nprocs-2 for query
  // threads and nprocs-1 for the writer, but any disjoint assignment works.
  explicit InvertedIndex(int nprocs) : vm_(nprocs, alloc::create<Map>()) {}

  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;

  // Quiescent teardown; outstanding Snapshots stay valid (they own their
  // nodes by reference count, independent of the manager).
  ~InvertedIndex() {
    for (Map* dead : vm_.shutdown_drain()) alloc::destroy(dead);
  }

  // Documents containing both `a` and `b` in `index`, ascending ids, at
  // most `limit` of them. Probes the larger posting list with entries of
  // the smaller: O(min(|a|,|b|) log max(|a|,|b|)), stopping early at the
  // limit.
  static std::vector<DocId> and_query_in(const Map& index, Term a, Term b,
                                         std::size_t limit) {
    std::vector<DocId> out;
    const PostingList* pa = index.find(a);
    const PostingList* pb = index.find(b);
    if (pa == nullptr || pb == nullptr || limit == 0) return out;
    const bool a_small = pa->size() <= pb->size();
    const PostingList& probe = a_small ? *pa : *pb;
    const PostingList& other = a_small ? *pb : *pa;
    probe.for_each_while([&](const DocId& d, const std::uint32_t&) {
      if (other.find(d) != nullptr) out.push_back(d);
      return out.size() < limit;
    });
    return out;
  }

  // A pinned consistent version of the whole index, independent of the
  // manager (it owns its nodes by reference count, so it may outlive the
  // index and any number of later commits at zero cost to the writer).
  class Snapshot {
   public:
    std::vector<DocId> and_query(Term a, Term b, std::size_t limit) const {
      return and_query_in(index_, a, b, limit);
    }

    // Number of documents whose posting list contains `t`.
    std::size_t doc_count(Term t) const {
      const PostingList* p = index_.find(t);
      return p != nullptr ? p->size() : 0;
    }

    // Distinct terms indexed in this version.
    std::size_t terms() const { return index_.size(); }

    const Map& map() const { return index_; }

   private:
    friend class InvertedIndex;
    explicit Snapshot(Map m) : index_(std::move(m)) {}
    Map index_;
  };

  // Applies one document batch as ONE atomic write transaction on slot p:
  // every (term, doc) pair of the batch becomes visible together, or not
  // at all. Touched posting lists get the batch's docs applied (last write
  // wins on duplicates), untouched terms are shared wholesale.
  void add_documents(int p, const std::vector<Document>& batch) {
    std::vector<std::pair<Term, DocId>> pairs;
    for (const Document& doc : batch) {
      for (Term t : doc.terms) pairs.emplace_back(t, doc.id);
    }
    if (pairs.empty()) return;
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

    // Resolve the worker budget once per batch: the per-term applies below
    // would otherwise re-read MVCC_THREADS for every touched term, right
    // on the timed writer hot path.
    const int workers = config().threads;
    Map* cur = vm_.acquire(p);
    // Per touched term: apply its doc run over the term's current posting
    // list (docs replace — last write wins), or build a new term's list.
    // `pairs` is sorted and unique, so each run is already prepared.
    std::vector<typename Map::Entry> delta;
    for (std::size_t i = 0; i < pairs.size();) {
      const Term t = pairs[i].first;
      std::vector<typename PostingList::Entry> docs;
      for (; i < pairs.size() && pairs[i].first == t; ++i) {
        docs.emplace_back(pairs[i].second, 1u);
      }
      const PostingList* old = cur->find(t);
      delta.emplace_back(
          t, old != nullptr
                 ? old->multi_inserted(
                       std::span<const typename PostingList::Entry>(docs),
                       workers)
                 : PostingList::from_entries(std::move(docs)));
    }
    // `delta` is sorted by term with unique keys — already prepared — so
    // one parallel bulk multi_insert publishes the whole batch.
    Map next = cur->multi_inserted(
        std::span<const typename Map::Entry>(delta), workers);
    free_now(vm_.set(p, alloc::create<Map>(std::move(next))));
    free_now(vm_.release(p));
  }

  // Snapshot the current version via slot p (O(1): one acquire, one
  // refcount bump, one release).
  Snapshot snapshot(int p) {
    Map* cur = vm_.acquire(p);
    Map snap = *cur;
    free_now(vm_.release(p));
    return Snapshot(std::move(snap));
  }

  // One-shot and-query at the current version via slot p. Reads the
  // acquired version in place — the VM pin protects it until release — so
  // the hot query path never touches the shared root's reference count.
  std::vector<DocId> and_query(int p, Term a, Term b, std::size_t limit) {
    Map* cur = vm_.acquire(p);
    std::vector<DocId> out = and_query_in(*cur, a, b, limit);
    free_now(vm_.release(p));
    return out;
  }

  const VM& vm() const { return vm_; }

 private:
  static void free_now(std::vector<Map*> dead) {
    for (Map* m : dead) alloc::destroy(m);
  }

  VM vm_;
};

}  // namespace mvcc::invidx
