#include "src/core/bst_sampler.h"

#include <algorithm>

namespace bloomsample {

double BstSampler::ChildEstimate(const QueryContext& ctx, int64_t child,
                                 OpCounters* counters) {
  if (child == BloomSampleTree::kNoNode) return 0.0;
  // Against a warm context the estimate is one load. Its cut below k
  // shared bits (kPruned) can never starve a real positive and strictly
  // dominates the naive "AND is all-zero" test. (Empirically,
  // thresholding on the *estimated* intersection size instead loses
  // elements wholesale at the paper's default parameters; see
  // bench/ablation_threshold.)
  const double estimate = ctx.NodeEstimate(child, counters);
  if (estimate < 0.0) return 0.0;

  // Opt-in Section 5.6 thresholding (lossy, off by default). Applied after
  // the cache, so the memoized estimate stays valid across threshold
  // changes.
  const double threshold = ctx.tree().config().intersection_threshold;
  if (threshold > 0.0 && estimate < threshold) return 0.0;

  // Branch weight: the corrected estimate, floored at half an element so
  // noise-dominated (dense) nodes are never starved — a floor of ~one
  // potential element is exactly the mass such a subtree might hide.
  return estimate > 0.5 ? estimate : 0.5;
}

std::optional<uint64_t> BstSampler::DescendFrom(int64_t id, QueryContext* ctx,
                                                Rng* rng,
                                                std::vector<int64_t>* alts,
                                                OpCounters* counters) const {
  for (;;) {
    CountNodeVisit(counters);
    if (tree_->IsLeaf(id)) {
      const std::vector<uint64_t>& positives = ctx->LeafPositives(id, counters);
      if (!positives.empty()) {
        // A single-positive leaf consumes no randomness (there is nothing
        // to choose), matching the r=1 without-replacement leaf pick.
        if (positives.size() == 1) return positives.front();
        return positives[static_cast<size_t>(rng->Below(positives.size()))];
      }
      // Fall through to backtracking: this leaf was a false-set-overlap.
    } else {
      const BloomSampleTree::Node& node = tree_->node(id);
      // Start both children's filter blocks toward cache before the first
      // estimate reads either — unless both estimates are already
      // memoized, in which case no filter word will be read at all.
      if (!ctx->EstimateCached(node.left) ||
          !ctx->EstimateCached(node.right)) {
        tree_->PrefetchChildren(node, ctx->view());
      }
      const double left_est = ChildEstimate(*ctx, node.left, counters);
      const double right_est = ChildEstimate(*ctx, node.right, counters);
      if (left_est > 0.0 && right_est > 0.0) {
        const bool go_left =
            rng->NextDouble() < LeftProbability(left_est, right_est);
        alts->push_back(go_left ? node.right : node.left);
        id = go_left ? node.left : node.right;
        continue;
      }
      if (left_est > 0.0) {
        id = node.left;
        continue;
      }
      if (right_est > 0.0) {
        id = node.right;
        continue;
      }
      // Both intersections (estimated) empty: we got here on a false path.
    }
    if (alts->empty()) return std::nullopt;
    CountBacktrack(counters);
    id = alts->back();
    alts->pop_back();
  }
}

std::optional<uint64_t> BstSampler::Sample(QueryContext* ctx, Rng* rng,
                                           OpCounters* counters) const {
  BSR_CHECK(ctx != nullptr, "Sample: null query context");
  BSR_CHECK(&ctx->tree() == tree_, "query context built for a different tree");
  if (tree_->root() == BloomSampleTree::kNoNode || ctx->query_bits() == 0) {
    CountNullSample(counters);
    return std::nullopt;
  }
  std::vector<int64_t>& alts = ctx->alts_;
  alts.clear();
  const auto sample = DescendFrom(tree_->root(), ctx, rng, &alts, counters);
  if (!sample.has_value()) CountNullSample(counters);
  return sample;
}

std::optional<uint64_t> BstSampler::Sample(const BloomFilter& query, Rng* rng,
                                           OpCounters* counters) const {
  // A single descent touches every node at most once, so a throwaway
  // cache could never hit — skip its allocation.
  QueryContext ctx(*tree_, query, IntersectKernel::kAuto,
                   /*cache_estimates=*/false);
  return Sample(&ctx, rng, counters);
}

void BstSampler::SampleLeaf(int64_t id, size_t r, QueryContext* ctx, Rng* rng,
                            bool with_replacement, OpCounters* counters,
                            std::vector<uint64_t>* out) const {
  // One scan of the leaf's candidates serves all r paths that landed here
  // (the "single pass" economy of Section 5.3) — and, through the
  // context's leaf cache, every later descent that lands here too.
  const std::vector<uint64_t>& positives = ctx->LeafPositives(id, counters);
  if (positives.empty()) return;

  if (with_replacement) {
    for (size_t i = 0; i < r; ++i) {
      out->push_back(positives[rng->Below(positives.size())]);
    }
    return;
  }
  // Without replacement: uniform subset of size min(r, positives).
  if (positives.size() <= r) {
    out->insert(out->end(), positives.begin(), positives.end());
    return;
  }
  // Partial Fisher-Yates over a scratch copy (the cached positives are
  // shared between draws and must stay ascending).
  std::vector<uint64_t>& perm = ctx->scratch_;
  perm.assign(positives.begin(), positives.end());
  for (size_t i = 0; i < r; ++i) {
    const size_t j = i + static_cast<size_t>(rng->Below(perm.size() - i));
    std::swap(perm[i], perm[j]);
    out->push_back(perm[i]);
  }
}

void BstSampler::SampleManyNode(int64_t id, size_t r, QueryContext* ctx,
                                Rng* rng, bool with_replacement,
                                OpCounters* counters,
                                std::vector<uint64_t>* out) const {
  if (r == 0) return;
  CountNodeVisit(counters);
  if (tree_->IsLeaf(id)) {
    SampleLeaf(id, r, ctx, rng, with_replacement, counters, out);
    return;
  }

  const BloomSampleTree::Node& node = tree_->node(id);
  if (!ctx->EstimateCached(node.left) || !ctx->EstimateCached(node.right)) {
    tree_->PrefetchChildren(node, ctx->view());
  }
  const double left_est = ChildEstimate(*ctx, node.left, counters);
  const double right_est = ChildEstimate(*ctx, node.right, counters);
  if (left_est <= 0.0 && right_est <= 0.0) return;

  size_t to_left = 0;
  if (right_est <= 0.0) {
    to_left = r;
  } else if (left_est > 0.0) {
    const double p = LeftProbability(left_est, right_est);
    for (size_t i = 0; i < r; ++i) {
      if (rng->NextDouble() < p) ++to_left;
    }
  }

  const size_t before_left = out->size();
  if (to_left > 0) {
    SampleManyNode(node.left, to_left, ctx, rng, with_replacement, counters,
                   out);
  }
  const size_t got_left = out->size() - before_left;

  const size_t before_right = out->size();
  if (r - to_left > 0) {
    SampleManyNode(node.right, r - to_left, ctx, rng, with_replacement,
                   counters, out);
  }
  const size_t got_right = out->size() - before_right;

  // Backtracking, multi-path flavour: paths that died in one subtree are
  // re-routed into the other (once), mirroring the single-sample algorithm.
  const size_t left_deficit = to_left - got_left;
  if (left_deficit > 0 && right_est > 0.0) {
    CountBacktrack(counters, left_deficit);
    SampleManyNode(node.right, left_deficit, ctx, rng, with_replacement,
                   counters, out);
  }
  const size_t right_deficit = (r - to_left) - got_right;
  if (right_deficit > 0 && left_est > 0.0) {
    CountBacktrack(counters, right_deficit);
    SampleManyNode(node.left, right_deficit, ctx, rng, with_replacement,
                   counters, out);
  }
}

std::vector<uint64_t> BstSampler::SampleMany(QueryContext* ctx, size_t r,
                                             Rng* rng, bool with_replacement,
                                             OpCounters* counters) const {
  BSR_CHECK(ctx != nullptr, "SampleMany: null query context");
  BSR_CHECK(&ctx->tree() == tree_, "query context built for a different tree");
  std::vector<uint64_t> out;
  if (tree_->root() == BloomSampleTree::kNoNode || ctx->query_bits() == 0 ||
      r == 0) {
    CountNullSample(counters, r);
    return out;
  }
  SampleManyNode(tree_->root(), r, ctx, rng, with_replacement, counters, &out);
  if (out.size() < r) CountNullSample(counters, r - out.size());
  if (!with_replacement) {
    // Deficit re-routing can revisit a leaf; enforce the no-duplicates
    // contract (the result may then be shorter than r).
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    std::shuffle(out.begin(), out.end(), *rng);
    if (out.size() > r) out.resize(r);
  }
  return out;
}

std::vector<uint64_t> BstSampler::SampleMany(const BloomFilter& query,
                                             size_t r, Rng* rng,
                                             bool with_replacement,
                                             OpCounters* counters) const {
  QueryContext ctx(*tree_, query);
  return SampleMany(&ctx, r, rng, with_replacement, counters);
}

void BstSampler::FinishFailedDraw(BatchDraw* draw, QueryContext* ctx,
                                  OpCounters* counters,
                                  std::vector<std::optional<uint64_t>>* out)
    const {
  std::optional<uint64_t> result;
  if (!draw->alts.empty()) {
    CountBacktrack(counters);
    const int64_t resume = draw->alts.back();
    draw->alts.pop_back();
    result = DescendFrom(resume, ctx, &draw->rng, &draw->alts, counters);
  }
  if (!result.has_value()) CountNullSample(counters);
  (*out)[draw->index] = result;
}

BstSampler::BatchDraw BstSampler::NewDraw(uint32_t index,
                                          const Rng& rng) const {
  BatchDraw draw{index, rng, {}};
  draw.alts.reserve(tree_->config().depth);
  return draw;
}

void BstSampler::BatchDescend(int64_t id, BatchDraw* begin, BatchDraw* end,
                              QueryContext* ctx, OpCounters* counters,
                              std::vector<std::optional<uint64_t>>* out) const {
  for (;;) {
    // Every pending draw logically visits this node, exactly as its
    // serial descent would.
    CountNodeVisit(counters, static_cast<uint64_t>(end - begin));
    if (tree_->IsLeaf(id)) {
      const std::vector<uint64_t>& positives =
          ctx->LeafPositives(id, counters);
      if (positives.empty()) {
        // The reference to a non-caching context's scratch is dead once
        // the failure path scans another leaf — but it is only read when
        // non-empty, and failures only happen on the empty branch.
        for (BatchDraw* draw = begin; draw != end; ++draw) {
          FinishFailedDraw(draw, ctx, counters, out);
        }
        return;
      }
      for (BatchDraw* draw = begin; draw != end; ++draw) {
        (*out)[draw->index] =
            positives.size() == 1
                ? positives.front()
                : positives[static_cast<size_t>(
                      draw->rng.Below(positives.size()))];
      }
      return;
    }

    const BloomSampleTree::Node& node = tree_->node(id);
    if (!ctx->EstimateCached(node.left) || !ctx->EstimateCached(node.right)) {
      tree_->PrefetchChildren(node, ctx->view());
    }
    // One estimate per node per range — the batch economy; the context's
    // cache extends it to one per node per *context*.
    const double left_est = ChildEstimate(*ctx, node.left, counters);
    const double right_est = ChildEstimate(*ctx, node.right, counters);
    if (left_est <= 0.0 && right_est <= 0.0) {
      for (BatchDraw* draw = begin; draw != end; ++draw) {
        FinishFailedDraw(draw, ctx, counters, out);
      }
      return;
    }
    if (right_est <= 0.0) {
      id = node.left;
      continue;
    }
    if (left_est <= 0.0) {
      id = node.right;
      continue;
    }

    // Both viable: each draw flips its own biased coin (its private
    // stream, so the split is the multinomial the serial draws would
    // realize) and remembers the sibling for backtracking — the right
    // child exactly when it went left.
    const double p = LeftProbability(left_est, right_est);
    for (BatchDraw* draw = begin; draw != end; ++draw) {
      draw->alts.push_back(draw->rng.NextDouble() < p ? node.right
                                                      : node.left);
    }
    BatchDraw* const mid = std::partition(
        begin, end,
        [&](const BatchDraw& draw) { return draw.alts.back() == node.right; });
    if (mid != begin) BatchDescend(node.left, begin, mid, ctx, counters, out);
    if (mid == end) return;
    begin = mid;
    id = node.right;
  }
}

std::vector<std::optional<uint64_t>> BstSampler::SampleBatch(
    QueryContext* ctx, size_t r, uint64_t seed, OpCounters* counters) const {
  BSR_CHECK(ctx != nullptr, "SampleBatch: null query context");
  BSR_CHECK(&ctx->tree() == tree_, "query context built for a different tree");
  BSR_CHECK(r < (1ULL << 32), "SampleBatch: batch size must fit in 32 bits");
  std::vector<std::optional<uint64_t>> out(r);
  if (tree_->root() == BloomSampleTree::kNoNode || ctx->query_bits() == 0 ||
      r == 0) {
    CountNullSample(counters, r);
    return out;
  }

  const TreeConfig& config = tree_->config();
  size_t lanes = ResolveThreadCount(config.query_threads);
  if (lanes > r) lanes = r;
  // The shared caches are the only thread-safe state; without them the
  // grouped descent leans on the context's scratch and must stay serial.
  if (lanes > 1 && !ctx->caching()) lanes = 1;
  if (lanes > 1 && config.min_parallel_work > 0) {
    // Work model: a warm draw costs ~depth+1 descent steps. Engage the
    // pool only when every amortizing lane gets min_parallel_work of it —
    // and never on a single-hardware-thread host, where extra lanes are
    // pure scheduling overhead.
    const size_t hw = ResolveThreadCount(0);
    const uint64_t steps =
        static_cast<uint64_t>(r) * (static_cast<uint64_t>(config.depth) + 1);
    const size_t amortizing = lanes < hw ? lanes : hw;
    if (hw <= 1 || steps < config.min_parallel_work * amortizing) lanes = 1;
  }

  const auto descend = [&](uint64_t lo, uint64_t hi, OpCounters* chunk) {
    std::vector<BatchDraw> draws;
    draws.reserve(static_cast<size_t>(hi - lo));
    for (uint64_t i = lo; i < hi; ++i) {
      draws.push_back(
          NewDraw(static_cast<uint32_t>(i), Rng::ForStream(seed, i)));
    }
    BatchDescend(tree_->root(), draws.data(), draws.data() + draws.size(),
                 ctx, chunk, &out);
  };

  if (lanes <= 1) {
    descend(0, r, counters);
    return out;
  }

  // Contiguous draw chunks across the pool: each chunk writes disjoint
  // output slots and its own counters; the shared context caches make the
  // cross-chunk work overlap free instead of redundant.
  const uint64_t grain = (r + lanes - 1) / lanes;
  const uint64_t chunks = (r + grain - 1) / grain;
  std::vector<OpCounters> chunk_counters(
      counters != nullptr ? static_cast<size_t>(chunks) : 0);
  pool_.Acquire(lanes)->ParallelFor(
      0, r, grain, [&](uint64_t lo, uint64_t hi) {
        descend(lo, hi,
                counters != nullptr
                    ? &chunk_counters[static_cast<size_t>(lo / grain)]
                    : nullptr);
      });
  for (const OpCounters& chunk : chunk_counters) *counters += chunk;
  return out;
}

std::vector<std::optional<uint64_t>> BstSampler::SampleBatch(
    const BloomFilter& query, size_t r, uint64_t seed,
    OpCounters* counters) const {
  QueryContext ctx(*tree_, query);
  return SampleBatch(&ctx, r, seed, counters);
}

void BstSampler::SampleBatchPrepared(
    QueryContext* ctx, std::vector<PreparedDraw> draws, OpCounters* counters,
    std::vector<std::optional<uint64_t>>* out) const {
  BSR_CHECK(ctx != nullptr, "SampleBatchPrepared: null query context");
  BSR_CHECK(&ctx->tree() == tree_, "query context built for a different tree");
  BSR_CHECK(out != nullptr, "SampleBatchPrepared: null output vector");
  if (draws.empty()) return;
  if (tree_->root() == BloomSampleTree::kNoNode || ctx->query_bits() == 0) {
    for (const PreparedDraw& draw : draws) (*out)[draw.index] = std::nullopt;
    CountNullSample(counters, draws.size());
    return;
  }
  std::vector<BatchDraw> batch;
  batch.reserve(draws.size());
  for (const PreparedDraw& draw : draws) {
    batch.push_back(NewDraw(draw.index, draw.rng));
  }
  BatchDescend(tree_->root(), batch.data(), batch.data() + batch.size(), ctx,
               counters, out);
}

}  // namespace bloomsample
