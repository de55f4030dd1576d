#include "src/core/query_context.h"

namespace bloomsample {

QueryContext::QueryContext(const BloomSampleTree& tree,
                           const BloomFilter& query, IntersectKernel kernel,
                           bool cache_estimates)
    : tree_(&tree), view_(query, kernel) {
  BSR_CHECK(query.family_ptr() == tree.family_ptr(),
            "query filter does not share the tree's hash family");
  const size_t nodes = tree.node_count();
  if (!cache_estimates || nodes == 0) return;
  t_and_ = std::make_unique<std::atomic<uint64_t>[]>(nodes);
  for (size_t i = 0; i < nodes; ++i) {
    t_and_[i].store(kUnknown, std::memory_order_relaxed);
  }
  // LeafEntry slots exist for every node id so lookups stay a flat index;
  // only leaves are ever filled.
  leaves_ = std::make_unique<LeafEntry[]>(nodes);
  if (tree.HasExactIndex()) exact_ = std::make_unique<ExactAnswer>();
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
