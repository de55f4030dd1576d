#include "src/core/bst_reconstructor.h"

#include "src/bloom/cardinality.h"

namespace bloomsample {

bool BstReconstructor::NodePasses(int64_t id, const QueryContext& ctx,
                                  PruningMode mode,
                                  OpCounters* counters) const {
  CountNodeVisit(counters);

  // Lossless emptiness test (see bst_sampler.cpp): every member of
  // S ∪ S(B) inside this range forces k shared bits, so pruning below k
  // can never drop an element and kExact stays exactly DictionaryAttack.
  // t∧ comes from the context's EstimateCache — one kernel per (node,
  // query) across every Reconstruct/Sample call on this context.
  const BloomSampleTree::Node& node = tree_->node(id);
  const uint64_t t_and = ctx.AndPopcount(id, counters);
  if (t_and < node.filter.k()) return false;
  if (mode == PruningMode::kThresholded) {
    const double threshold = tree_->config().intersection_threshold;
    if (threshold > 0.0) {
      const double estimate = EstimateIntersectionFromBits(
          node.set_bits, ctx.query_bits(), t_and, node.filter.m(),
          node.filter.k());
      if (estimate < threshold) return false;
    }
  }
  return true;
}

void BstReconstructor::TraverseSubtree(int64_t id, const QueryContext& ctx,
                                       PruningMode mode, OpCounters* counters,
                                       std::vector<uint64_t>* out) const {
  if (tree_->IsLeaf(id)) {
    if (ctx.caching()) {
      // Scanned once per context lifetime; repeat traversals append the
      // recorded positives with zero membership queries.
      const std::vector<uint64_t>& positives = ctx.LeafPositives(id, counters);
      out->insert(out->end(), positives.begin(), positives.end());
    } else {
      tree_->ScanLeafCandidates(id, ctx.query(), counters, out);
    }
    return;
  }
  // Left before right keeps the output globally ascending (child ranges
  // are disjoint and ordered). Prefetch both children's filter blocks up
  // front so the right child's words travel while the left subtree runs —
  // skipped when both tests will be served from the cache.
  const BloomSampleTree::Node& node = tree_->node(id);
  if (!ctx.EstimateCached(node.left) || !ctx.EstimateCached(node.right)) {
    tree_->PrefetchChildren(node, ctx.view());
  }
  ReconstructNode(node.left, ctx, mode, counters, out);
  ReconstructNode(node.right, ctx, mode, counters, out);
}

void BstReconstructor::ReconstructNode(int64_t id, const QueryContext& ctx,
                                       PruningMode mode, OpCounters* counters,
                                       std::vector<uint64_t>* out) const {
  if (id == BloomSampleTree::kNoNode) return;
  if (!NodePasses(id, ctx, mode, counters)) return;
  TraverseSubtree(id, ctx, mode, counters, out);
}

std::vector<uint64_t> BstReconstructor::Reconstruct(const QueryContext& ctx,
                                                    OpCounters* counters,
                                                    PruningMode mode) const {
  BSR_CHECK(&ctx.tree() == tree_, "query context built for a different tree");
  std::vector<uint64_t> out;
  if (tree_->root() == BloomSampleTree::kNoNode || ctx.query_bits() == 0) {
    return out;
  }
  if (mode == PruningMode::kExact && tree_->HasExactIndex()) {
    return ctx.ExactMembers(counters);
  }

  const size_t threads = ResolveThreadCount(tree_->config().query_threads);

  // Phase 1 (serial): expand the top of the tree into a frontier of
  // surviving subtree roots, in left-to-right dyadic order. The expansion
  // performs exactly the node tests the recursive traversal would, so op
  // totals and output are identical for every thread count; only the
  // scheduling of the disjoint subtrees below the frontier changes.
  std::vector<int64_t> frontier;
  if (NodePasses(tree_->root(), ctx, mode, counters)) {
    frontier.push_back(tree_->root());
  }
  if (threads > 1) {
    // 4 subtrees per lane smooths imbalance between shallow and deep
    // survivors without flooding the pool with tiny tasks.
    const size_t width_target = 4 * threads;
    while (!frontier.empty() && frontier.size() < width_target) {
      bool any_internal = false;
      for (int64_t id : frontier) {
        if (!tree_->IsLeaf(id)) {
          any_internal = true;
          break;
        }
      }
      if (!any_internal) break;
      std::vector<int64_t> next;
      next.reserve(frontier.size() * 2);
      for (int64_t id : frontier) {
        if (tree_->IsLeaf(id)) {
          next.push_back(id);
          continue;
        }
        const BloomSampleTree::Node& node = tree_->node(id);
        if (node.left != BloomSampleTree::kNoNode &&
            NodePasses(node.left, ctx, mode, counters)) {
          next.push_back(node.left);
        }
        if (node.right != BloomSampleTree::kNoNode &&
            NodePasses(node.right, ctx, mode, counters)) {
          next.push_back(node.right);
        }
      }
      frontier = std::move(next);
    }
  }

  // Fan-out gate: the pool only pays for itself when the workload below
  // the frontier is real. The candidate count bounds the membership
  // queries the subtree scans can issue — the traversal's dominant cost —
  // so it is the work unit min_parallel_work is denominated in. A
  // single-hardware-thread host never fans out (the lanes would time-slice
  // one core); min_parallel_work = 0 forces fan-out for tests.
  bool fan_out = threads > 1 && frontier.size() > 1;
  if (fan_out && tree_->config().min_parallel_work > 0) {
    const size_t hw = ResolveThreadCount(0);
    if (hw <= 1) {
      fan_out = false;
    } else {
      uint64_t work = 0;
      for (int64_t id : frontier) work += tree_->SubtreeCandidateCount(id);
      const size_t amortizing = threads < hw ? threads : hw;
      fan_out = work >= tree_->config().min_parallel_work * amortizing;
    }
  }

  // Phase 2: traverse the disjoint frontier subtrees — in parallel when
  // the fan-out is worth it — and concatenate in frontier order, which is
  // ascending-range order.
  if (!fan_out) {
    for (int64_t id : frontier) {
      TraverseSubtree(id, ctx, mode, counters, &out);
    }
    return out;
  }

  std::vector<std::vector<uint64_t>> parts(frontier.size());
  std::vector<OpCounters> part_counters(
      counters != nullptr ? frontier.size() : 0);
  pool_.Acquire(threads)->ParallelFor(
      0, frontier.size(), /*grain=*/1,
      [&](uint64_t lo, uint64_t hi) {
        for (uint64_t i = lo; i < hi; ++i) {
          TraverseSubtree(frontier[static_cast<size_t>(i)], ctx, mode,
                          counters != nullptr
                              ? &part_counters[static_cast<size_t>(i)]
                              : nullptr,
                          &parts[static_cast<size_t>(i)]);
        }
      });
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  out.reserve(total);
  for (size_t i = 0; i < parts.size(); ++i) {
    out.insert(out.end(), parts[i].begin(), parts[i].end());
    if (counters != nullptr) *counters += part_counters[i];
  }
  return out;
}

std::vector<uint64_t> BstReconstructor::Reconstruct(const BloomFilter& query,
                                                    OpCounters* counters,
                                                    PruningMode mode) const {
  // One traversal tests every node at most once, so a throwaway cache
  // could never hit — skip its allocation.
  QueryContext ctx(*tree_, query, IntersectKernel::kAuto,
                   /*cache_estimates=*/false);
  return Reconstruct(ctx, counters, mode);
}

}  // namespace bloomsample
