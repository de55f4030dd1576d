// Per-query state shared by the query-side algorithms (BstSampler,
// BstReconstructor).
//
// A QueryContext binds a query Bloom filter to a tree once and carries
// everything a descent or traversal needs per node with zero redundant
// work:
//   * the BloomQueryView — sparse word view + memoized set-bit count (t2)
//     + resolved intersection kernel — so every node intersection costs
//     O(nnz words) for sparse queries and never re-popcounts the query;
//   * the EstimateCache — a flat array indexed by node id memoizing
//     t∧ = popcount(node.filter & query), the one quantity every node
//     decision (branch weight, k-shared-bits pruning, thresholded
//     estimate) derives from deterministically. The first touch of a node
//     runs the intersection kernel; every later touch — a later draw, a
//     repeated Reconstruct, the other algorithm — is an O(1) load. The
//     multi-draw amortization story: the k-th draw against a warm context
//     descends in O(depth) with zero kernel invocations;
//   * a leaf-positives cache: each leaf's membership scan against the
//     query runs once, and every path that lands there afterwards picks
//     from the recorded positives;
//   * the exact answer (trees with an h_0 index): the query's occupied
//     members, computed once and stored with the index position it
//     reflects, so a later exact reconstruct tests only the ids inserted
//     since;
//   * reusable scratch buffers for the non-caching leaf-scan path.
//
// Build one per query filter and reuse it across calls — that reuse is
// where the amortization lives. The context snapshots the query's bits:
// mutate the filter and the context is stale — build a new one. The exact
// answer follows tree mutations (ExactMembers); the node estimates and
// leaf positives do not, so after an Insert/Remove the sampler and the
// thresholded traversal still see the old tree. The caches are safe to
// share across query threads: cache entries are pure functions of (node,
// query), so racing fills store identical values (t∧ lives in relaxed
// atomics; leaf scans run under call_once; the exact answer under its own
// mutex). The scratch buffers are NOT thread-safe; they are only touched
// by the serial sampler paths and by the non-caching fallback.
#ifndef BLOOMSAMPLE_CORE_QUERY_CONTEXT_H_
#define BLOOMSAMPLE_CORE_QUERY_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/bloom/bloom_filter.h"
#include "src/core/bloom_sample_tree.h"
#include "src/util/op_counters.h"

namespace bloomsample {

class QueryContext {
 public:
  /// The query filter must share `tree`'s hash family and must outlive the
  /// context (the view keeps a pointer for dense-kernel dispatch).
  /// `cache_estimates` allocates the per-node estimate and leaf caches
  /// (~16 bytes + one empty vector per node); pass false to get the
  /// historical recompute-every-visit behavior — results are identical
  /// either way, only the work performed differs.
  QueryContext(const BloomSampleTree& tree, const BloomFilter& query,
               IntersectKernel kernel = IntersectKernel::kAuto,
               bool cache_estimates = true);

  const BloomSampleTree& tree() const { return *tree_; }
  const BloomFilter& query() const { return view_.filter(); }
  const BloomQueryView& view() const { return view_; }
  /// Cached set-bit count of the query (t2 in the estimator).
  uint64_t query_bits() const { return view_.set_bits(); }
  /// True when this context memoizes node estimates and leaf scans.
  bool caching() const { return t_and_ != nullptr; }

  /// t∧ = popcount(node(id).filter & query), the input to both the branch
  /// weight and the k-shared-bits pruning test. On a caching context the
  /// kernel runs only on the first touch of `id` (counted as a miss plus
  /// the usual kernel intersection); later touches are counted as cache
  /// hits and cost one relaxed load. Safe to call concurrently: racing
  /// first touches compute the same value, and the CAS lets exactly one
  /// of them record the miss — every access counts exactly one hit or
  /// miss, so op totals stay deterministic for every thread count.
  uint64_t AndPopcount(int64_t id, OpCounters* counters) const {
    if (t_and_ == nullptr) {
      CountIntersectionKernel(counters, view_.sparse(), 1,
                              view_.words_touched());
      return tree_->node(id).filter.AndPopcount(view_);
    }
    std::atomic<uint64_t>& slot = t_and_[static_cast<size_t>(id)];
    const uint64_t cached = slot.load(std::memory_order_relaxed);
    if (cached != kUnknown) {
      CountEstimateCacheHit(counters);
      return cached;
    }
    const uint64_t t_and = tree_->node(id).filter.AndPopcount(view_);
    uint64_t expected = kUnknown;
    if (slot.compare_exchange_strong(expected, t_and,
                                     std::memory_order_relaxed)) {
      CountEstimateCacheMiss(counters);
      CountIntersectionKernel(counters, view_.sparse(), 1,
                              view_.words_touched());
    } else {
      // A racing first touch recorded the miss; this access is logically
      // a hit (the duplicate kernel run is a scheduling artifact, not a
      // logical intersection).
      CountEstimateCacheHit(counters);
    }
    return t_and;
  }

  /// True when AndPopcount(id) would be served from the cache — used to
  /// skip the software prefetch of filters that will never be read.
  /// Returns true for kNoNode (nothing to compute).
  bool EstimateCached(int64_t id) const {
    if (id == BloomSampleTree::kNoNode) return true;
    return t_and_ != nullptr &&
           t_and_[static_cast<size_t>(id)].load(std::memory_order_relaxed) !=
               kUnknown;
  }

  /// The query's positives among leaf `id`'s candidates, ascending. On a
  /// caching context the membership scan runs once per leaf (under
  /// call_once, so concurrent callers are safe and the scan's membership
  /// queries are counted exactly once, by the filling thread); later calls
  /// return the recorded vector untouched. On a non-caching context this
  /// scans into the context's scratch buffer — the returned reference is
  /// invalidated by the next call and must not be shared across threads.
  const std::vector<uint64_t>& LeafPositives(int64_t id,
                                             OpCounters* counters) const {
    if (leaves_ == nullptr) {
      positives_.clear();
      tree_->ScanLeafCandidates(id, query(), counters, &positives_);
      return positives_;
    }
    LeafEntry& entry = leaves_[static_cast<size_t>(id)];
    std::call_once(entry.once, [&] {
      tree_->ScanLeafCandidates(id, query(), counters, &entry.positives);
    });
    return entry.positives;
  }

  /// The occupied ids the query contains, ascending — exactly S ∪ S(B)
  /// over the occupied set — through the tree's h_0 index
  /// (tree().HasExactIndex() must hold). A caching context keeps the
  /// answer and the index position it reflects: a repeat call tests only
  /// the ids inserted since (zero membership queries when none were) and
  /// returns a copy; a removal or index rebuild since recomputes it.
  /// Safe to call concurrently; not concurrently with tree mutations.
  std::vector<uint64_t> ExactMembers(OpCounters* counters) const;

 private:
  friend class BstSampler;

  static constexpr uint64_t kUnknown = ~0ULL;  // t∧ <= m < 2^64 - 1

  struct LeafEntry {
    std::once_flag once;
    std::vector<uint64_t> positives;
  };

  struct ExactAnswer {
    std::mutex mu;
    BloomSampleTree::ExactIndexPosition at;
    std::vector<uint64_t> ids;
  };

  const BloomSampleTree* tree_;
  BloomQueryView view_;
  // EstimateCache payload: t∧ per node id (kUnknown = not yet computed) and
  // the leaf-scan results. Mutable because memoization is not logical
  // state: BstReconstructor reads the context through const&.
  mutable std::unique_ptr<std::atomic<uint64_t>[]> t_and_;
  mutable std::unique_ptr<LeafEntry[]> leaves_;
  mutable std::unique_ptr<ExactAnswer> exact_;
  // Sampler scratch: the non-caching leaf scan target, the pick buffer
  // SampleMany's without-replacement leaf draws permute, and the serial
  // descent's backtrack stack. Cleared (not reallocated) per use, so
  // steady-state descents do no per-node allocation.
  mutable std::vector<uint64_t> positives_;
  std::vector<uint64_t> scratch_;
  std::vector<int64_t> alts_;
};

}  // namespace bloomsample

#endif  // BLOOMSAMPLE_CORE_QUERY_CONTEXT_H_
