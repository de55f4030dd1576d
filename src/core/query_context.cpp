#include "src/core/query_context.h"

#include "src/bloom/cardinality.h"

namespace bloomsample {

QueryContext::QueryContext(const BloomSampleTree& tree,
                           const BloomFilter& query, IntersectKernel kernel,
                           bool cache_estimates)
    : tree_(&tree), view_(query, kernel) {
  BSR_CHECK(query.family_ptr() == tree.family_ptr(),
            "query filter does not share the tree's hash family");
  const size_t nodes = tree.node_count();
  if (!cache_estimates || nodes == 0) return;
  memo_ = std::make_unique<NodeMemo[]>(nodes);
  // LeafEntry slots exist for every node id so lookups stay a flat index;
  // only leaves are ever filled.
  leaves_ = std::make_unique<LeafEntry[]>(nodes);
  if (tree.HasExactIndex()) exact_ = std::make_unique<ExactAnswer>();
}

double QueryContext::EstimateFor(int64_t id, uint64_t t_and) const {
  const BloomSampleTree::Node& node = tree_->node(id);
  if (t_and < node.filter.k()) return kPruned;
  return EstimateIntersectionFromBits(node.set_bits, view_.set_bits(), t_and,
                                      node.filter.m(), node.filter.k());
}

std::vector<uint64_t> QueryContext::ExactMembers(OpCounters* counters) const {
  if (exact_ == nullptr) {
    BloomSampleTree::ExactIndexPosition at;
    std::vector<uint64_t> ids;
    tree_->UpdateExactMembers(query(), &at, &ids, counters);
    return ids;
  }
  std::lock_guard<std::mutex> lock(exact_->mu);
  tree_->UpdateExactMembers(query(), &exact_->at, &exact_->ids, counters);
  return exact_->ids;
}

}  // namespace bloomsample
