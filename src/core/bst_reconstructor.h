// Set reconstruction with a BloomSampleTree (Section 6).
//
// Two paths return S ∪ S(B), ascending:
//
// The h_0 index — kExact on trees with BloomSampleTree::HasExactIndex()
// (pruned, ids below 2^32). Every x in S ∪ S(B) has its bit h_0(x) set in
// the query, so testing only the occupied ids bucketed under the query's
// set bits, plus the ids inserted since the index was built, yields
// exactly S ∪ S(B) over the occupied ids. This is the paper's HashInvert
// (Section 4) turned around: it inverts h_0 over the occupied ids rather
// than the namespace, so it works for any hash family. At M = 1e6 with
// 10% occupied, a 1000-id query tests ~5.7K of 100K ids and reads no node
// filter. The index is built by the first exact query; a caching
// QueryContext then keeps its answer and refreshes it across
// Insert/Remove (see QueryContext::ExactMembers).
//
// The traversal — kThresholded (the paper's figures), and kExact on
// complete trees and wider namespaces. At each node intersect the node's
// filter with the query filter; an (estimated-)empty intersection prunes
// the subtree, a leaf with a non-empty intersection is brute-force
// scanned, and internal results are unioned. With the intersection
// threshold at 0 the pruning test is the exact "AND has fewer than k set
// bits", and the output is *guaranteed* to be exactly S ∪ S(B) (every
// true or false positive x has all its k bits set in every ancestor's
// filter, so no pruning step can drop it) — equal to the index path. At
// paper parameters that test almost never prunes, so an exact traversal
// tests nearly every candidate. With a positive threshold the traversal
// is cheaper but inherits the Section 5.6 caveat.
//
// Traversal execution model: node tests run through the query's
// BloomQueryView (sparse AND-popcount for sparse queries) and the
// QueryContext's EstimateCache — the same per-(node, query) t∧ memo
// BstSampler fills, so a context warmed by either algorithm serves the
// other, and a repeated Reconstruct on one context performs zero
// intersection kernels and zero membership queries (cache hits are
// surfaced in OpCounters).
//
// The traversal fans out across TreeConfig::query_threads (0 = hardware
// concurrency, 1 = serial): the top of the tree is expanded serially into
// a frontier of surviving subtree roots; when the frontier is wide enough
// AND the candidate workload below it clears the min_parallel_work gate
// (per amortizing lane; fan-out is declined outright on single-hardware-
// thread hosts, where extra lanes are pure scheduling overhead), the
// disjoint subtrees are traversed in parallel and their outputs
// concatenated in frontier order — which is left-to-right dyadic order, so
// the merged result is ascending and *identical for every thread count and
// gate setting* (node tests depend only on node + query bits, never on
// scheduling).
#ifndef BLOOMSAMPLE_CORE_BST_RECONSTRUCTOR_H_
#define BLOOMSAMPLE_CORE_BST_RECONSTRUCTOR_H_

#include <cstdint>
#include <vector>

#include "src/bloom/bloom_filter.h"
#include "src/core/bloom_sample_tree.h"
#include "src/core/query_context.h"
#include "src/util/op_counters.h"
#include "src/util/thread_pool.h"

namespace bloomsample {

class BstReconstructor {
 public:
  enum class PruningMode {
    /// Guaranteed-exact output (= DictionaryAttack over the candidates):
    /// through the h_0 index where the tree has one, else a traversal
    /// that prunes a subtree only when fewer than k bits are shared with
    /// the query.
    kExact,
    /// Additionally prune sparse nodes whose estimated intersection falls
    /// below the tree's configured threshold (the paper's Section 5.6
    /// heuristic). Faster, but may drop elements whose signal is buried in
    /// estimator noise — the ablation_threshold bench quantifies the loss.
    kThresholded,
  };

  /// The tree must outlive the reconstructor. Reconstruct is safe to call
  /// concurrently on one shared instance (the lazily-created thread pool
  /// is handled by LazyThreadPool; all per-call state is local) —
  /// provided the tree's query-time knobs (set_intersection_threshold,
  /// set_query_threads, set_min_parallel_work) are not being mutated at
  /// the same time.
  explicit BstReconstructor(const BloomSampleTree* tree) : tree_(tree) {
    BSR_CHECK(tree != nullptr, "BstReconstructor needs a tree");
  }

  /// Returns S ∪ S(B), ascending. The query filter must share the tree's
  /// hash family.
  ///
  /// The default is the paper's thresholded traversal: with correctly
  /// sized filters we measure zero lost elements at the default threshold
  /// (see bench/ablation_threshold). Callers that need a hard
  /// completeness guarantee (e.g. forensics) pass kExact. On a pruned
  /// tree it tests only the occupied ids in the query's h_0 buckets
  /// (about n·t2/m of n) after a one-time O(n) index build; on a complete
  /// tree it pays roughly DictionaryAttack cost in membership queries
  /// when the stored set touches most leaves.
  std::vector<uint64_t> Reconstruct(
      const BloomFilter& query, OpCounters* counters = nullptr,
      PruningMode mode = PruningMode::kThresholded) const;

  /// Reusable-context flavor: `ctx` must have been built for this tree.
  /// Reusing one (caching) context across calls — or across this and
  /// BstSampler — is what amortizes the per-node kernels away; on the
  /// index path it keeps the exact answer, so a repeat is a copy.
  std::vector<uint64_t> Reconstruct(
      const QueryContext& ctx, OpCounters* counters = nullptr,
      PruningMode mode = PruningMode::kThresholded) const;

  const BloomSampleTree& tree() const { return *tree_; }

 private:
  /// Tests one node (visit + intersection accounting, through the
  /// context's EstimateCache): true when its subtree survives pruning.
  bool NodePasses(int64_t id, const QueryContext& ctx, PruningMode mode,
                  OpCounters* counters) const;

  /// Traverses below a node that already passed NodePasses: scans it if it
  /// is a leaf, else tests-and-recurses into both children.
  void TraverseSubtree(int64_t id, const QueryContext& ctx, PruningMode mode,
                       OpCounters* counters, std::vector<uint64_t>* out) const;

  /// NodePasses + TraverseSubtree — the classic recursive step.
  void ReconstructNode(int64_t id, const QueryContext& ctx, PruningMode mode,
                       OpCounters* counters, std::vector<uint64_t>* out) const;

  const BloomSampleTree* tree_;
  LazyThreadPool pool_;
};

}  // namespace bloomsample

#endif  // BLOOMSAMPLE_CORE_BST_RECONSTRUCTOR_H_
