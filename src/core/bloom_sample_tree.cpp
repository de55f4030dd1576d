#include "src/core/bloom_sample_tree.h"

#include <algorithm>

#include "src/util/math_util.h"
#include "src/util/thread_pool.h"

namespace bloomsample {

const char* NodeLayoutName(NodeLayout layout) {
  return layout == NodeLayout::kDescent ? "descent" : "id-order";
}

namespace {

Result<std::shared_ptr<const HashFamily>> FamilyFor(const TreeConfig& config) {
  const Status st = config.Validate();
  if (!st.ok()) return st;
  return MakeHashFamily(config.hash_kind, static_cast<size_t>(config.k),
                        config.m, config.seed, config.namespace_size);
}

/// A caller-supplied (shared) family must agree with the config on every
/// parameter that shapes hash values — otherwise the tree's filters would
/// silently diverge from what its config claims.
Status ValidateSharedFamily(const TreeConfig& config,
                            const std::shared_ptr<const HashFamily>& family) {
  if (family == nullptr) {
    return Status::InvalidArgument("null shared hash family");
  }
  if (family->k() != config.k || family->m() != config.m ||
      family->seed() != config.seed ||
      family->Name() != HashFamilyKindName(config.hash_kind)) {
    return Status::InvalidArgument(
        "shared hash family does not match the tree config");
  }
  return Status::OK();
}

// Chunk size that amortizes ParallelFor's per-chunk dispatch without
// starving threads of work. Purely a scheduling knob: results are
// chunk-partition independent (every parallel section writes disjoint
// nodes), so any grain yields bit-identical trees.
uint64_t GrainFor(uint64_t count, size_t threads) {
  const uint64_t target = 8 * static_cast<uint64_t>(threads);
  const uint64_t grain = count / target;
  return grain == 0 ? 1 : grain;
}

}  // namespace

Result<BloomSampleTree> BloomSampleTree::BuildComplete(
    const TreeConfig& config) {
  auto family = FamilyFor(config);
  if (!family.ok()) return family.status();
  return BuildComplete(config, std::move(family).value());
}

Result<BloomSampleTree> BloomSampleTree::BuildComplete(
    const TreeConfig& config, std::shared_ptr<const HashFamily> family) {
  Status st = config.Validate();
  if (!st.ok()) return st;
  st = ValidateSharedFamily(config, family);
  if (!st.ok()) return st;

  BloomSampleTree tree(config, std::move(family), /*pruned=*/false);
  const uint32_t depth = config.depth;
  const uint64_t leaf_width = config.LeafRangeSize();
  const uint64_t total_nodes = config.CompleteNodeCount();
  tree.arena_.Reserve(total_nodes);
  tree.nodes_.reserve(total_nodes);

  // Heap layout: node i has children 2i+1, 2i+2; the node at position p
  // within its level ℓ (p = i − (2^ℓ − 1)) covers
  // [p · leaf_width · 2^{D−ℓ}, …) clipped to M.
  for (uint64_t i = 0; i < total_nodes; ++i) {
    const uint32_t level = FloorLog2(i + 1);
    const uint64_t pos = i + 1 - (1ULL << level);
    const uint64_t width = leaf_width << (depth - level);
    const uint64_t lo = std::min<uint64_t>(pos * width, config.namespace_size);
    const uint64_t hi =
        std::min<uint64_t>(lo + width, config.namespace_size);
    Node node(lo, hi, level, tree.family_, &tree.arena_);
    if (level < depth) {
      node.left = static_cast<int64_t>(2 * i + 1);
      node.right = static_cast<int64_t>(2 * i + 2);
    }
    tree.nodes_.push_back(std::move(node));
  }

  // Populate leaves by batched insertion — every leaf is independent, so
  // the fill partitions cleanly across threads — then OR upwards (exact
  // Bloom union) one level at a time: a parent depends only on its two
  // children in the already-finished level below, so parents within a
  // level partition across threads the same way.
  ThreadPool pool(config.build_threads);
  const uint64_t first_leaf = (1ULL << depth) - 1;
  pool.ParallelFor(
      first_leaf, total_nodes, GrainFor(total_nodes - first_leaf, pool.thread_count()),
      [&tree](uint64_t lo, uint64_t hi) {
        for (uint64_t i = lo; i < hi; ++i) {
          Node& leaf = tree.nodes_[static_cast<size_t>(i)];
          leaf.filter.InsertRange(leaf.lo, leaf.hi);
        }
      });
  for (uint32_t level = depth; level-- > 0;) {
    const uint64_t level_lo = (1ULL << level) - 1;
    const uint64_t level_hi = (2ULL << level) - 1;
    pool.ParallelFor(
        level_lo, level_hi, GrainFor(level_hi - level_lo, pool.thread_count()),
        [&tree](uint64_t lo, uint64_t hi) {
          for (uint64_t i = lo; i < hi; ++i) {
            Node& parent = tree.nodes_[static_cast<size_t>(i)];
            parent.filter.UnionWith(
                tree.nodes_[static_cast<size_t>(2 * i + 1)].filter);
            parent.filter.UnionWith(
                tree.nodes_[static_cast<size_t>(2 * i + 2)].filter);
          }
        });
  }
  pool.ParallelFor(0, total_nodes, GrainFor(total_nodes, pool.thread_count()),
                   [&tree](uint64_t lo, uint64_t hi) {
                     for (uint64_t i = lo; i < hi; ++i) {
                       Node& node = tree.nodes_[static_cast<size_t>(i)];
                       node.set_bits = node.filter.SetBitCount();
                     }
                   });
  return tree;
}

uint64_t BloomSampleTree::PrunedSplitPoint(uint32_t level, uint64_t lo,
                                           size_t begin, size_t end) const {
  const uint64_t mid = lo + RangeWidthAtLevel(level + 1);
  return static_cast<uint64_t>(
      std::lower_bound(occupied_.begin() + static_cast<ptrdiff_t>(begin),
                       occupied_.begin() + static_cast<ptrdiff_t>(end), mid) -
      occupied_.begin());
}

uint64_t BloomSampleTree::CountPrunedNodes(uint32_t level, uint64_t lo,
                                           uint64_t hi, size_t begin,
                                           size_t end) const {
  if (begin == end) return 0;
  if (level == config_.depth) return 1;
  const uint64_t mid = lo + RangeWidthAtLevel(level + 1);
  const size_t split =
      static_cast<size_t>(PrunedSplitPoint(level, lo, begin, end));
  return 1 + CountPrunedNodes(level + 1, lo, mid, begin, split) +
         CountPrunedNodes(level + 1, mid, hi, split, end);
}

int64_t BloomSampleTree::BuildPrunedSubtree(uint32_t level, uint64_t lo,
                                            uint64_t hi, size_t begin,
                                            size_t end,
                                            std::vector<LeafFill>* leaf_fills) {
  if (begin == end) return kNoNode;  // range holds no occupied id
  const int64_t id = static_cast<int64_t>(nodes_.size());
  nodes_.emplace_back(lo, std::min(hi, config_.namespace_size), level,
                      family_, &arena_);
  if (level == config_.depth) {
    leaf_fills->push_back({id, begin, end});
    return id;
  }

  const uint64_t mid = lo + RangeWidthAtLevel(level + 1);
  const size_t split =
      static_cast<size_t>(PrunedSplitPoint(level, lo, begin, end));
  // Children are built first; vector growth may reallocate, so re-resolve
  // the node reference afterwards instead of holding one across the calls.
  const int64_t left =
      BuildPrunedSubtree(level + 1, lo, mid, begin, split, leaf_fills);
  const int64_t right =
      BuildPrunedSubtree(level + 1, mid, hi, split, end, leaf_fills);
  Node& node = nodes_[static_cast<size_t>(id)];
  node.left = left;
  node.right = right;
  return id;
}

Result<BloomSampleTree> BloomSampleTree::BuildPruned(
    const TreeConfig& config, std::vector<uint64_t> occupied) {
  auto family = FamilyFor(config);
  if (!family.ok()) return family.status();
  return BuildPruned(config, std::move(occupied), std::move(family).value());
}

Result<BloomSampleTree> BloomSampleTree::BuildPruned(
    const TreeConfig& config, std::vector<uint64_t> occupied,
    std::shared_ptr<const HashFamily> family) {
  Status vst = config.Validate();
  if (!vst.ok()) return vst;
  vst = ValidateSharedFamily(config, family);
  if (!vst.ok()) return vst;
  if (!std::is_sorted(occupied.begin(), occupied.end())) {
    return Status::InvalidArgument("occupied ids must be sorted");
  }
  if (std::adjacent_find(occupied.begin(), occupied.end()) != occupied.end()) {
    return Status::InvalidArgument("occupied ids must be unique");
  }
  if (!occupied.empty() && occupied.back() >= config.namespace_size) {
    return Status::OutOfRange("occupied id beyond namespace");
  }

  BloomSampleTree tree(config, std::move(family), /*pruned=*/true);
  tree.occupied_ = std::move(occupied);
  const uint64_t root_width = tree.RangeWidthAtLevel(0);

  // Pass 1 (serial): node structure in DFS preorder — ids are therefore
  // independent of build_threads — plus each leaf's slice of occupied_.
  // A counting pre-pass sizes the arena exactly, so the whole pruned tree
  // lands in one contiguous slab.
  const uint64_t pruned_nodes =
      tree.CountPrunedNodes(0, 0, root_width, 0, tree.occupied_.size());
  tree.arena_.Reserve(pruned_nodes);
  tree.nodes_.reserve(static_cast<size_t>(pruned_nodes));
  std::vector<LeafFill> leaf_fills;
  tree.BuildPrunedSubtree(0, 0, root_width, 0, tree.occupied_.size(),
                          &leaf_fills);
  BSR_CHECK(tree.nodes_.size() == pruned_nodes,
            "pruned counting pass disagrees with the structure pass");

  // Pass 2: leaves fill independently from disjoint occupied_ slices.
  ThreadPool pool(config.build_threads);
  pool.ParallelFor(
      0, leaf_fills.size(), GrainFor(leaf_fills.size(), pool.thread_count()),
      [&tree, &leaf_fills](uint64_t lo, uint64_t hi) {
        for (uint64_t f = lo; f < hi; ++f) {
          const LeafFill& fill = leaf_fills[static_cast<size_t>(f)];
          tree.nodes_[static_cast<size_t>(fill.id)].filter.InsertBatch(
              tree.occupied_.data() + fill.begin, fill.end - fill.begin);
        }
      });

  // Pass 3: upward unions, deepest level first. Children always sit on a
  // strictly deeper (already finished) level, so parents within one level
  // partition across threads.
  if (config.depth > 0) {
    std::vector<std::vector<size_t>> internal_by_level(config.depth);
    for (size_t id = 0; id < tree.nodes_.size(); ++id) {
      const Node& node = tree.nodes_[id];
      if (node.level < config.depth) internal_by_level[node.level].push_back(id);
    }
    for (uint32_t level = config.depth; level-- > 0;) {
      const std::vector<size_t>& ids = internal_by_level[level];
      pool.ParallelFor(
          0, ids.size(), GrainFor(ids.size(), pool.thread_count()),
          [&tree, &ids](uint64_t lo, uint64_t hi) {
            for (uint64_t i = lo; i < hi; ++i) {
              Node& parent = tree.nodes_[ids[static_cast<size_t>(i)]];
              if (parent.left != kNoNode) {
                parent.filter.UnionWith(
                    tree.nodes_[static_cast<size_t>(parent.left)].filter);
              }
              if (parent.right != kNoNode) {
                parent.filter.UnionWith(
                    tree.nodes_[static_cast<size_t>(parent.right)].filter);
              }
            }
          });
    }
  }

  pool.ParallelFor(0, tree.nodes_.size(),
                   GrainFor(tree.nodes_.size(), pool.thread_count()),
                   [&tree](uint64_t lo, uint64_t hi) {
                     for (uint64_t i = lo; i < hi; ++i) {
                       Node& node = tree.nodes_[static_cast<size_t>(i)];
                       node.set_bits = node.filter.SetBitCount();
                     }
                   });
  return tree;
}

void BloomSampleTree::CollectDescendantsAt(int64_t root, uint32_t levels_below,
                                           std::vector<int64_t>* out) const {
  if (root == kNoNode) return;
  if (levels_below == 0) {
    out->push_back(root);
    return;
  }
  const Node& n = nodes_[static_cast<size_t>(root)];
  CollectDescendantsAt(n.left, levels_below - 1, out);
  CollectDescendantsAt(n.right, levels_below - 1, out);
}

void BloomSampleTree::AssignVebBlocks(int64_t root, uint32_t levels,
                                      uint32_t* next,
                                      std::vector<uint32_t>* block_of) const {
  if (root == kNoNode) return;
  if (levels == 1) {
    (*block_of)[static_cast<size_t>(root)] = (*next)++;
    return;
  }
  // Classic vEB split: the top floor(levels/2) levels form one recursively
  // laid-out cluster, followed by each bottom subtree (rooted exactly
  // `top` levels down) as its own contiguous cluster, left to right. A
  // root-to-leaf descent then crosses O(log levels) cluster boundaries
  // instead of touching a new region at every level.
  const uint32_t top = levels / 2;
  AssignVebBlocks(root, top, next, block_of);
  std::vector<int64_t> bottom_roots;
  CollectDescendantsAt(root, top, &bottom_roots);
  for (int64_t r : bottom_roots) {
    AssignVebBlocks(r, levels - top, next, block_of);
  }
}

std::vector<uint32_t> BloomSampleTree::ComputeDescentOrder() const {
  std::vector<uint32_t> block_of(nodes_.size(), 0);
  if (nodes_.empty()) return block_of;
  uint32_t next = 0;
  // Top levels in BFS order: every descent reads this prefix, so its
  // blocks pack the front of the slab (and share pages) regardless of
  // which leaf the walk ends at.
  const uint32_t bfs_levels =
      config_.depth + 1 < kDescentBfsLevels ? config_.depth + 1
                                            : kDescentBfsLevels;
  std::vector<int64_t> frontier{root()};
  for (uint32_t level = 0; level < bfs_levels; ++level) {
    std::vector<int64_t> next_level;
    for (int64_t id : frontier) {
      block_of[static_cast<size_t>(id)] = next++;
      const Node& n = nodes_[static_cast<size_t>(id)];
      if (n.left != kNoNode) next_level.push_back(n.left);
      if (n.right != kNoNode) next_level.push_back(n.right);
    }
    frontier = std::move(next_level);
  }
  // Each subtree hanging below the BFS block gets a contiguous vEB-ordered
  // cluster, in BFS-encounter (left-to-right) order.
  const uint32_t below = config_.depth + 1 - bfs_levels;
  for (int64_t id : frontier) {
    AssignVebBlocks(id, below, &next, &block_of);
  }
  BSR_CHECK(next == nodes_.size(),
            "descent layout did not assign every node exactly once");
  return block_of;
}

uint64_t BloomSampleTree::LeafCandidateCount(int64_t id) const {
  // A leaf is just a height-0 subtree; the range arithmetic is shared.
  return SubtreeCandidateCount(id);
}

uint64_t BloomSampleTree::SubtreeCandidateCount(int64_t id) const {
  const Node& n = node(id);
  if (!pruned_) return n.hi - n.lo;
  const auto begin = std::lower_bound(occupied_.begin(), occupied_.end(), n.lo);
  const auto end = std::lower_bound(begin, occupied_.end(), n.hi);
  return static_cast<uint64_t>(end - begin);
}

void BloomSampleTree::ScanLeafCandidates(int64_t id, const BloomFilter& query,
                                         OpCounters* counters,
                                         std::vector<uint64_t>* out) const {
  BSR_CHECK(out != nullptr, "ScanLeafCandidates: null output");
  uint64_t block[BloomFilter::kHashBlock];
  size_t filled = 0;
  ForEachLeafCandidate(id, [&](uint64_t x) {
    block[filled++] = x;
    if (filled == BloomFilter::kHashBlock) {
      CountMembership(counters, filled);
      query.FilterContained(block, filled, out);
      filled = 0;
    }
  });
  if (filled > 0) {
    CountMembership(counters, filled);
    query.FilterContained(block, filled, out);
  }
}

void BloomSampleTree::EnsureExactIndex() const {
  ExactIndex& idx = *exact_index_;
  if (idx.built.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(idx.mu);
  if (idx.built.load(std::memory_order_relaxed)) return;
  // Pass 1 counts each bucket into offsets[b]; the inclusive prefix sum
  // turns offsets[b] into bucket b's end. Pass 2 walks occupied_
  // backwards and places each id at --offsets[h_0(x)], which leaves
  // offsets[b] at bucket b's start and every bucket ascending. Hashing
  // twice keeps the build's peak memory at the index's own size.
  const HashFamily& family = *family_;
  const size_t n = occupied_.size();
  idx.offsets.assign(static_cast<size_t>(config_.m) + 1, 0);
  for (uint64_t x : occupied_) ++idx.offsets[family.Hash(0, x)];
  uint32_t end = 0;
  for (uint32_t& offset : idx.offsets) {
    end += offset;
    offset = end;
  }
  idx.ids.resize(n);
  for (size_t i = n; i-- > 0;) {
    const uint64_t x = occupied_[i];
    idx.ids[--idx.offsets[family.Hash(0, x)]] = static_cast<uint32_t>(x);
  }
  idx.pending.clear();
  idx.removals = 0;
  ++idx.generation;
  idx.built.store(true, std::memory_order_release);
}

void BloomSampleTree::NoteExactIndexMutation(bool inserted, uint64_t x) {
  ExactIndex& idx = *exact_index_;
  std::lock_guard<std::mutex> lock(idx.mu);
  if (!idx.built.load(std::memory_order_relaxed)) return;
  if (inserted) {
    idx.pending.push_back(static_cast<uint32_t>(x));
  } else {
    ++idx.removals;
  }
  if ((idx.pending.size() + idx.removals) * kExactIndexRebuildDivisor >
      idx.ids.size()) {
    // Free the storage now (no reader can hold it: mutations exclude
    // queries), so the rebuild never coexists with the old copy.
    idx.built.store(false, std::memory_order_relaxed);
    std::vector<uint32_t>().swap(idx.offsets);
    std::vector<uint32_t>().swap(idx.ids);
    std::vector<uint32_t>().swap(idx.pending);
    idx.removals = 0;
  }
}

void BloomSampleTree::UpdateExactMembers(const BloomFilter& query,
                                         ExactIndexPosition* at,
                                         std::vector<uint64_t>* answer,
                                         OpCounters* counters) const {
  BSR_CHECK(HasExactIndex(), "UpdateExactMembers needs an h_0 index");
  BSR_CHECK(at != nullptr && answer != nullptr,
            "UpdateExactMembers: null output");
  EnsureExactIndex();
  const ExactIndex& idx = *exact_index_;
  const ExactIndexPosition now{idx.generation, idx.pending.size(),
                               idx.removals};

  uint64_t block[BloomFilter::kHashBlock];
  size_t filled = 0;
  const auto flush = [&] {
    CountMembership(counters, filled);
    query.FilterContained(block, filled, answer);
    filled = 0;
  };
  const auto test = [&](uint32_t x) {
    block[filled++] = x;
    if (filled == BloomFilter::kHashBlock) flush();
  };
  const size_t kept = answer->size();

  if (at->generation == now.generation && at->removals == now.removals) {
    // Only inserts since *at: the answer still holds, plus whichever of
    // the ids logged since pass the filter.
    for (uint64_t i = at->pending; i < now.pending; ++i) test(idx.pending[i]);
    if (filled > 0) flush();
    std::sort(answer->begin() + static_cast<ptrdiff_t>(kept), answer->end());
    std::inplace_merge(answer->begin(),
                       answer->begin() + static_cast<ptrdiff_t>(kept),
                       answer->end());
    *at = now;
    return;
  }

  answer->clear();
  const uint64_t* words = query.bits().word_data();
  const size_t word_count = query.bits().word_count();
  const uint64_t m = config_.m;
  for (size_t w = 0; w < word_count; ++w) {
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      const uint64_t b = 64 * w + static_cast<uint64_t>(__builtin_ctzll(bits));
      if (b >= m) break;
      for (uint32_t i = idx.offsets[b]; i < idx.offsets[b + 1]; ++i) {
        test(idx.ids[i]);
      }
    }
  }
  for (uint32_t x : idx.pending) test(x);
  if (filled > 0) flush();
  // Buckets come out in bit order. A removed-then-reinserted id sits in
  // its bucket and in the log, and a removed one may still sit in its
  // bucket: dedup, then keep only ids occupied now.
  std::sort(answer->begin(), answer->end());
  answer->erase(std::unique(answer->begin(), answer->end()), answer->end());
  if (now.removals > 0) {
    answer->erase(std::remove_if(answer->begin(), answer->end(),
                                 [this](uint64_t x) {
                                   return !std::binary_search(
                                       occupied_.begin(), occupied_.end(), x);
                                 }),
                  answer->end());
  }
  *at = now;
}

BloomSampleTree::ExactIndexStats BloomSampleTree::exact_index_stats() const {
  ExactIndex& idx = *exact_index_;
  std::lock_guard<std::mutex> lock(idx.mu);
  ExactIndexStats stats;
  stats.bytes = sizeof(uint32_t) * (idx.offsets.capacity() +
                                    idx.ids.capacity() +
                                    idx.pending.capacity());
  stats.builds = idx.generation;
  stats.pending = idx.pending.size();
  return stats;
}

Status BloomSampleTree::Insert(uint64_t x) {
  if (!pruned_) {
    return Status::Unsupported(
        "dynamic insert is only meaningful for pruned trees (complete trees "
        "already store the whole namespace)");
  }
  if (x >= config_.namespace_size) {
    return Status::OutOfRange("id beyond namespace");
  }
  const auto it = std::lower_bound(occupied_.begin(), occupied_.end(), x);
  if (it != occupied_.end() && *it == x) {
    return Status::OK();  // already present — filters already contain x
  }
  occupied_.insert(it, x);
  NoteExactIndexMutation(/*inserted=*/true, x);

  // Walk the root-to-leaf path, creating missing nodes.
  if (nodes_.empty()) {
    nodes_.emplace_back(0, std::min(RangeWidthAtLevel(0), config_.namespace_size),
                        0u, family_, &arena_);
  }
  int64_t id = 0;
  for (;;) {
    Node& current = nodes_[static_cast<size_t>(id)];
    BSR_CHECK(current.lo <= x && x < current.hi,
              "insert walked outside node range");
    current.filter.Insert(x);
    current.set_bits = current.filter.SetBitCount();
    if (current.level == config_.depth) {
      if (counting_leaves_) {
        auto cit = leaf_counters_.find(id);
        if (cit == leaf_counters_.end()) {
          cit = leaf_counters_.emplace(id, CountingBloomFilter(family_)).first;
        }
        cit->second.Insert(x);
      }
      return Status::OK();
    }

    const uint64_t child_width = RangeWidthAtLevel(current.level + 1);
    const uint64_t mid = current.lo + child_width;
    const bool go_left = x < mid;
    const uint64_t child_lo = go_left ? current.lo : mid;
    const uint64_t child_hi = go_left ? mid : mid + child_width;
    int64_t child = go_left ? current.left : current.right;
    if (child == kNoNode) {
      child = static_cast<int64_t>(nodes_.size());
      const uint32_t child_level = current.level + 1;
      nodes_.emplace_back(child_lo,
                          std::min(child_hi, config_.namespace_size),
                          child_level, family_, &arena_);
      // emplace_back may have reallocated: re-resolve the parent.
      Node& parent = nodes_[static_cast<size_t>(id)];
      (go_left ? parent.left : parent.right) = child;
    }
    id = child;
  }
}

Status BloomSampleTree::EnableCountingLeaves() {
  if (!pruned_) {
    return Status::Unsupported(
        "counting leaves require a pruned tree (complete trees have no "
        "dynamic occupancy to maintain)");
  }
  if (counting_leaves_) return Status::OK();
  leaf_counters_.clear();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.level != config_.depth) continue;
    CountingBloomFilter counter(family_);
    auto it = std::lower_bound(occupied_.begin(), occupied_.end(), n.lo);
    for (; it != occupied_.end() && *it < n.hi; ++it) counter.Insert(*it);
    leaf_counters_.emplace(static_cast<int64_t>(i), std::move(counter));
  }
  counting_leaves_ = true;
  return Status::OK();
}

void BloomSampleTree::RebuildLeafFromCounters(int64_t leaf_id) {
  Node& leaf = nodes_[static_cast<size_t>(leaf_id)];
  const CountingBloomFilter& counter = leaf_counters_.at(leaf_id);
  leaf.filter.Clear();
  BitVector& bits = leaf.filter.mutable_bits();
  const uint64_t m = counter.m();
  for (uint64_t i = 0; i < m; ++i) {
    if (counter.counter(i) > 0) bits.Set(static_cast<size_t>(i));
  }
  leaf.set_bits = leaf.filter.SetBitCount();
}

Status BloomSampleTree::Remove(uint64_t x) {
  if (!pruned_) {
    return Status::Unsupported(
        "dynamic remove is only meaningful for pruned trees");
  }
  if (x >= config_.namespace_size) {
    return Status::OutOfRange("id beyond namespace");
  }
  if (!counting_leaves_) {
    return Status::Unsupported(
        "remove requires the counting-bloom leaf backend: plain Bloom "
        "filters cannot unset bits — call EnableCountingLeaves() first");
  }
  const auto it = std::lower_bound(occupied_.begin(), occupied_.end(), x);
  if (it == occupied_.end() || *it != x) {
    return Status::OK();  // absent — idempotent, mirroring Insert
  }
  occupied_.erase(it);
  NoteExactIndexMutation(/*inserted=*/false, x);

  // Walk the root-to-leaf path over x. Every node exists: x was occupied.
  BSR_CHECK(!nodes_.empty(), "remove of an occupied id in an empty tree");
  std::vector<int64_t> path;
  int64_t id = 0;
  for (;;) {
    const Node& current = nodes_[static_cast<size_t>(id)];
    BSR_CHECK(current.lo <= x && x < current.hi,
              "remove walked outside node range");
    path.push_back(id);
    if (current.level == config_.depth) break;
    const uint64_t child_width = RangeWidthAtLevel(current.level + 1);
    const uint64_t mid = current.lo + child_width;
    id = x < mid ? current.left : current.right;
    BSR_CHECK(id != kNoNode, "remove path fell off the tree");
  }

  // Leaf: decrement the counters, rewrite the bit filter from the
  // positive-counter pattern (saturated counters keep their bits set —
  // false positives, never false negatives).
  const auto counter_it = leaf_counters_.find(path.back());
  BSR_CHECK(counter_it != leaf_counters_.end(),
            "counting leaf missing for an occupied id");
  const Status dec = counter_it->second.Remove(x);
  if (!dec.ok()) {
    return Status::Internal(
        "counting leaf underflow for an id present in the occupied set: " +
        dec.ToString());
  }
  RebuildLeafFromCounters(path.back());

  // Ancestors bottom-up: each is the exact union of its children (Bloom
  // union over a shared family), so the removal propagates precisely.
  for (size_t i = path.size() - 1; i-- > 0;) {
    Node& n = nodes_[static_cast<size_t>(path[i])];
    n.filter.Clear();
    if (n.left != kNoNode) {
      n.filter.UnionWith(nodes_[static_cast<size_t>(n.left)].filter);
    }
    if (n.right != kNoNode) {
      n.filter.UnionWith(nodes_[static_cast<size_t>(n.right)].filter);
    }
    n.set_bits = n.filter.SetBitCount();
  }
  return Status::OK();
}

BloomFilter BloomSampleTree::MakeQueryFilter(
    const std::vector<uint64_t>& keys) const {
  BloomFilter filter(family_);
  filter.InsertBatch(keys);
  return filter;
}

size_t BloomSampleTree::MemoryBytes() const {
  size_t total = 0;
  for (const Node& n : nodes_) total += n.filter.MemoryBytes();
  return total;
}

}  // namespace bloomsample
