// BSTSample (Algorithm 1, Sections 5.3–5.6): sampling from a query Bloom
// filter with a BloomSampleTree.
//
// Descent rules at an internal node:
//   * estimate |left ∩ b| and |right ∩ b| with the Papapetrou estimator,
//     treating estimates below the configured threshold as empty (Sec 5.6);
//   * both empty  → this path was a false-set-overlap, backtrack (NULL at
//     the root);
//   * one side    → follow it;
//   * both        → follow one child with probability proportional to its
//     estimate; if that subtree comes back NULL, backtrack into the other.
// At a leaf the range (occupied ids only, for pruned trees) is scanned with
// membership queries and a uniform pick is made among positives.
//
// Execution model: every descent runs on a QueryContext. The context's
// EstimateCache memoizes t∧ and the node estimate per node and its leaf
// cache records each leaf's positives, so against a warm context a
// descent costs O(depth) loads with zero kernel invocations, zero
// membership queries and no recomputed estimate — the amortized regime
// the multi-draw workloads (figures 3–6, the multisample ablation)
// actually run in. The BloomFilter overloads build a throwaway context;
// callers issuing many operations against one query should build the
// context once and reuse it.
//
// Two multi-draw entry points:
//   * SampleMany — the paper's single-pass multi-sampling (Section 5.3):
//     r paths descend together sharing one RNG, splitting at each node by
//     independent biased coin flips; supports without-replacement
//     semantics. Output depends on r (the paths interleave RNG use).
//   * SampleBatch — the batched multi-draw engine: draw i runs on the
//     counter-based stream Rng::ForStream(seed, i), so the batch is
//     draw-for-draw bit-identical to r serial Sample calls on those
//     streams — for every batch size, every TreeConfig::query_threads
//     value (draws are partitioned across the thread pool in contiguous
//     chunks), and every SIMD tier. The descent is depth-first over one
//     array of pending draws: at each node the draws reaching it occupy
//     one contiguous range, the node's estimates are resolved once for
//     the range (and once per *context* lifetime, via the cache), each
//     draw flips its own coin, and the range is partitioned in place
//     into its left and right parts — no per-node allocation. Paths that
//     die backtrack individually on the cached state.
#ifndef BLOOMSAMPLE_CORE_BST_SAMPLER_H_
#define BLOOMSAMPLE_CORE_BST_SAMPLER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/bloom/bloom_filter.h"
#include "src/core/bloom_sample_tree.h"
#include "src/core/query_context.h"
#include "src/util/op_counters.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace bloomsample {

class BstSampler {
 public:
  /// How to pick a child when both intersections are non-empty. The paper
  /// weights by estimated intersection size (kProportional), which is what
  /// makes the samples near-uniform; kUniformSplit (50/50) exists as an
  /// ablation — it biases toward sparsely populated subtrees.
  enum class BranchPolicy { kProportional, kUniformSplit };

  /// The tree must outlive the sampler.
  explicit BstSampler(const BloomSampleTree* tree,
                      BranchPolicy policy = BranchPolicy::kProportional)
      : tree_(tree), policy_(policy) {
    BSR_CHECK(tree != nullptr, "BstSampler needs a tree");
  }

  /// One (near-)uniform sample from S ∪ S(B), or nullopt when every path
  /// died on false-set-overlaps (or the filter is empty). The query filter
  /// must share the tree's hash family.
  std::optional<uint64_t> Sample(const BloomFilter& query, Rng* rng,
                                 OpCounters* counters = nullptr) const;

  /// Reusable-context flavor: `ctx` must have been built for this tree.
  std::optional<uint64_t> Sample(QueryContext* ctx, Rng* rng,
                                 OpCounters* counters = nullptr) const;

  /// r samples in one descent. With `with_replacement` false (default) the
  /// result has no duplicates and may be shorter than r; with true, each
  /// path draws independently at its leaf.
  std::vector<uint64_t> SampleMany(const BloomFilter& query, size_t r,
                                   Rng* rng, bool with_replacement = false,
                                   OpCounters* counters = nullptr) const;

  /// Reusable-context flavor: `ctx` must have been built for this tree.
  std::vector<uint64_t> SampleMany(QueryContext* ctx, size_t r, Rng* rng,
                                   bool with_replacement = false,
                                   OpCounters* counters = nullptr) const;

  /// r independent draws (with replacement), one per counter-based RNG
  /// stream: entry i equals Sample(ctx, Rng::ForStream(seed, i)) bit for
  /// bit (nullopt = that draw's every path died on false overlaps). The
  /// batch is partitioned across TreeConfig::query_threads when the
  /// workload clears the min_parallel_work gate; output never depends on
  /// the thread count or batch size. Parallel execution requires a caching
  /// context (the caches are the thread-safe shared state); a non-caching
  /// context falls back to a serial — still grouped — descent.
  std::vector<std::optional<uint64_t>> SampleBatch(
      QueryContext* ctx, size_t r, uint64_t seed,
      OpCounters* counters = nullptr) const;

  /// Throwaway-context flavor of SampleBatch.
  std::vector<std::optional<uint64_t>> SampleBatch(
      const BloomFilter& query, size_t r, uint64_t seed,
      OpCounters* counters = nullptr) const;

  /// One pre-routed draw for SampleBatchPrepared: its slot in the caller's
  /// output vector, and its RNG stream positioned exactly where the serial
  /// protocol would have it on arrival at this tree's root (the caller has
  /// already consumed any routing randomness).
  struct PreparedDraw {
    uint32_t index;
    Rng rng;
  };

  /// Batched descent over caller-prepared draws. The forest layer
  /// partitions a batch across shards in a single pass and hands each
  /// shard tree exactly one frontier through this entry point. Serial by
  /// design — the caller owns the parallelism axis (one call per shard),
  /// and each draw writes only (*out)[draw.index], so concurrent calls
  /// with disjoint index sets on distinct contexts are safe. An empty
  /// tree or empty query records nullopt for every draw.
  void SampleBatchPrepared(QueryContext* ctx, std::vector<PreparedDraw> draws,
                           OpCounters* counters,
                           std::vector<std::optional<uint64_t>>* out) const;

  const BloomSampleTree& tree() const { return *tree_; }

  /// Branch weight of `child` against ctx's query: the context's
  /// NodeEstimate with the Section 5.6 threshold (the tree's current
  /// intersection_threshold) and a 0.5 floor applied; 0.0 for kNoNode and
  /// pruned nodes. The forest's virtual super-root weighs its shard roots
  /// with it too.
  static double ChildEstimate(const QueryContext& ctx, int64_t child,
                              OpCounters* counters);

 private:
  /// One pending draw of a batch: its slot in the output, its private RNG
  /// stream, and the untried siblings of every both-viable node on its
  /// path (LIFO — the backtracking order of the serial descent). `alts`
  /// holds at most one sibling per level above the draw's node, so it is
  /// reserved once, at the tree depth, and never grows.
  struct BatchDraw {
    uint32_t index;
    Rng rng;
    std::vector<int64_t> alts;
  };

  /// A draw pending at the root, its backtrack stack reserved.
  BatchDraw NewDraw(uint32_t index, const Rng& rng) const;

  /// The serial descent core: walks from `id` to a sample, consuming `rng`
  /// exactly as Algorithm 1 does (one coin per both-viable node, one pick
  /// per multi-positive leaf) and backtracking through `alts`. Both
  /// Sample and the batch engine's failure path run on this one routine —
  /// that is what makes batched output bit-identical to serial by
  /// construction.
  std::optional<uint64_t> DescendFrom(int64_t id, QueryContext* ctx, Rng* rng,
                                      std::vector<int64_t>* alts,
                                      OpCounters* counters) const;

  /// Batched descent: routes the draws in [begin, end) — all pending at
  /// node `id` — toward their leaves. At a both-viable node each draw
  /// flips its coin and records its alternative, the range is partitioned
  /// in place, the left part recurses and the right part continues in
  /// the loop. Draws whose paths die finish individually via DescendFrom
  /// on the cached state. The order of draws within a range never changes
  /// a draw: each reads only its own stream and the caches.
  void BatchDescend(int64_t id, BatchDraw* begin, BatchDraw* end,
                    QueryContext* ctx, OpCounters* counters,
                    std::vector<std::optional<uint64_t>>* out) const;

  /// Finishes a draw whose current path died: backtracks into its deepest
  /// untried sibling (or records nullopt).
  void FinishFailedDraw(BatchDraw* draw, QueryContext* ctx,
                        OpCounters* counters,
                        std::vector<std::optional<uint64_t>>* out) const;

  void SampleManyNode(int64_t id, size_t r, QueryContext* ctx, Rng* rng,
                      bool with_replacement, OpCounters* counters,
                      std::vector<uint64_t>* out) const;

  /// Scans a leaf (through the context's leaf cache) and appends up to r
  /// uniform picks among positives.
  void SampleLeaf(int64_t id, size_t r, QueryContext* ctx, Rng* rng,
                  bool with_replacement, OpCounters* counters,
                  std::vector<uint64_t>* out) const;

  /// Probability of descending left given both children are viable.
  double LeftProbability(double left_est, double right_est) const {
    return policy_ == BranchPolicy::kProportional
               ? left_est / (left_est + right_est)
               : 0.5;
  }

  const BloomSampleTree* tree_;
  BranchPolicy policy_;
  LazyThreadPool pool_;
};

}  // namespace bloomsample

#endif  // BLOOMSAMPLE_CORE_BST_SAMPLER_H_
