#include "src/core/bloom_sample_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "src/core/bst_reconstructor.h"
#include "src/core/bst_sampler.h"
#include "src/core/tree_io.h"
#include "src/workload/set_generators.h"

namespace bloomsample {
namespace {

TreeConfig SmallConfig(uint64_t M = 1024, uint64_t m = 4096,
                       uint32_t depth = 4) {
  TreeConfig config;
  config.namespace_size = M;
  config.m = m;
  config.k = 3;
  config.hash_kind = HashFamilyKind::kSimple;
  config.seed = 42;
  config.depth = depth;
  return config;
}

TEST(BloomSampleTreeTest, CompleteTreeHasFullGeometry) {
  const auto tree = BloomSampleTree::BuildComplete(SmallConfig()).value();
  EXPECT_EQ(tree.node_count(), 31u);  // 2^5 − 1
  EXPECT_FALSE(tree.pruned());
  const auto& root = tree.node(tree.root());
  EXPECT_EQ(root.lo, 0u);
  EXPECT_EQ(root.hi, 1024u);
  EXPECT_EQ(root.level, 0u);
}

TEST(BloomSampleTreeTest, ChildRangesPartitionParent) {
  const auto tree = BloomSampleTree::BuildComplete(SmallConfig()).value();
  std::function<void(int64_t)> check = [&](int64_t id) {
    const auto& node = tree.node(id);
    if (tree.IsLeaf(id)) return;
    const auto& left = tree.node(node.left);
    const auto& right = tree.node(node.right);
    EXPECT_EQ(left.lo, node.lo);
    EXPECT_EQ(left.hi, right.lo);
    EXPECT_EQ(right.hi, node.hi);
    check(node.left);
    check(node.right);
  };
  check(tree.root());
}

TEST(BloomSampleTreeTest, EveryNodeContainsItsRange) {
  const auto tree =
      BloomSampleTree::BuildComplete(SmallConfig(256, 8192, 3)).value();
  for (size_t id = 0; id < tree.node_count(); ++id) {
    const auto& node = tree.node(static_cast<int64_t>(id));
    for (uint64_t x = node.lo; x < node.hi; ++x) {
      EXPECT_TRUE(node.filter.Contains(x))
          << "node " << id << " missing " << x;
    }
  }
}

TEST(BloomSampleTreeTest, ParentFilterIsUnionOfChildren) {
  const auto tree = BloomSampleTree::BuildComplete(SmallConfig()).value();
  for (size_t id = 0; id < tree.node_count(); ++id) {
    if (tree.IsLeaf(static_cast<int64_t>(id))) continue;
    const auto& node = tree.node(static_cast<int64_t>(id));
    BloomFilter expected = tree.node(node.left).filter;
    expected.UnionWith(tree.node(node.right).filter);
    EXPECT_EQ(node.filter, expected) << "node " << id;
  }
}

TEST(BloomSampleTreeTest, NonPowerOfTwoNamespaceClipsRightEdge) {
  // M = 1000 with depth 4: leaf width ceil(1000/16) = 63, padded span
  // 1008 — the last leaves must clip to 1000 and stay consistent.
  const auto tree =
      BloomSampleTree::BuildComplete(SmallConfig(1000, 4096, 4)).value();
  uint64_t covered = 0;
  for (size_t id = 0; id < tree.node_count(); ++id) {
    const auto& node = tree.node(static_cast<int64_t>(id));
    EXPECT_LE(node.hi, 1000u);
    EXPECT_LE(node.lo, node.hi);
    if (tree.IsLeaf(static_cast<int64_t>(id))) covered += node.hi - node.lo;
  }
  EXPECT_EQ(covered, 1000u);
}

TEST(BloomSampleTreeTest, CachedSetBitsMatchFilters) {
  const auto tree = BloomSampleTree::BuildComplete(SmallConfig()).value();
  for (size_t id = 0; id < tree.node_count(); ++id) {
    const auto& node = tree.node(static_cast<int64_t>(id));
    EXPECT_EQ(node.set_bits, node.filter.SetBitCount()) << id;
  }
}

TEST(BloomSampleTreeTest, LeafCandidateIterationCompleteTree) {
  const auto tree = BloomSampleTree::BuildComplete(SmallConfig()).value();
  // Find the leaf holding 100 and iterate its candidates.
  int64_t id = tree.root();
  while (!tree.IsLeaf(id)) {
    const auto& node = tree.node(id);
    id = 100 < tree.node(node.left).hi ? node.left : node.right;
  }
  std::vector<uint64_t> candidates;
  tree.ForEachLeafCandidate(id, [&](uint64_t x) { candidates.push_back(x); });
  const auto& leaf = tree.node(id);
  EXPECT_EQ(candidates.size(), leaf.hi - leaf.lo);
  EXPECT_EQ(candidates.front(), leaf.lo);
  EXPECT_EQ(candidates.back(), leaf.hi - 1);
  EXPECT_EQ(tree.LeafCandidateCount(id), leaf.hi - leaf.lo);
}

TEST(BloomSampleTreeTest, PrunedTreeOnlyCreatesOccupiedSubtrees) {
  // Occupy only the first sixteenth of the namespace: the pruned tree must
  // be a path plus one small subtree, far fewer nodes than the complete 31.
  std::vector<uint64_t> occupied;
  for (uint64_t x = 0; x < 64; ++x) occupied.push_back(x);
  const auto tree =
      BloomSampleTree::BuildPruned(SmallConfig(), occupied).value();
  EXPECT_TRUE(tree.pruned());
  EXPECT_LT(tree.node_count(), 10u);
  EXPECT_EQ(tree.occupied_count(), 64u);
}

TEST(BloomSampleTreeTest, PrunedNodesStoreOnlyOccupiedElements) {
  Rng rng(1);
  const auto occupied = GenerateUniformSet(1024, 100, &rng).value();
  const auto tree =
      BloomSampleTree::BuildPruned(SmallConfig(), occupied).value();
  // Root filter contains every occupied id, and set-bit counts match a
  // filter of just those ids.
  const auto& root = tree.node(tree.root());
  for (uint64_t x : occupied) EXPECT_TRUE(root.filter.Contains(x));
  const BloomFilter direct = tree.MakeQueryFilter(occupied);
  EXPECT_EQ(root.filter, direct);
}

TEST(BloomSampleTreeTest, PrunedLeafCandidatesAreOccupiedOnly) {
  Rng rng(2);
  const auto occupied = GenerateUniformSet(1024, 50, &rng).value();
  const auto tree =
      BloomSampleTree::BuildPruned(SmallConfig(), occupied).value();
  uint64_t total = 0;
  for (size_t id = 0; id < tree.node_count(); ++id) {
    if (!tree.IsLeaf(static_cast<int64_t>(id))) continue;
    tree.ForEachLeafCandidate(static_cast<int64_t>(id), [&](uint64_t x) {
      EXPECT_TRUE(std::binary_search(occupied.begin(), occupied.end(), x));
      ++total;
    });
  }
  EXPECT_EQ(total, occupied.size());
}

TEST(BloomSampleTreeTest, PrunedBuildValidatesInput) {
  EXPECT_FALSE(
      BloomSampleTree::BuildPruned(SmallConfig(), {5, 3}).ok());  // unsorted
  EXPECT_FALSE(
      BloomSampleTree::BuildPruned(SmallConfig(), {3, 3}).ok());  // dupes
  EXPECT_FALSE(
      BloomSampleTree::BuildPruned(SmallConfig(), {1024}).ok());  // range
  EXPECT_TRUE(BloomSampleTree::BuildPruned(SmallConfig(), {}).ok());
}

TEST(BloomSampleTreeTest, DynamicInsertGrowsThePrunedTree) {
  auto tree = BloomSampleTree::BuildPruned(SmallConfig(), {10}).value();
  const size_t before = tree.node_count();
  // Insert an id in a far-away range: new nodes must appear.
  ASSERT_TRUE(tree.Insert(1000).ok());
  EXPECT_GT(tree.node_count(), before);
  EXPECT_EQ(tree.occupied_count(), 2u);
  // Both ids are now in the root filter and in cached counts.
  const auto& root = tree.node(tree.root());
  EXPECT_TRUE(root.filter.Contains(10));
  EXPECT_TRUE(root.filter.Contains(1000));
  EXPECT_EQ(root.set_bits, root.filter.SetBitCount());
}

TEST(BloomSampleTreeTest, DynamicInsertIsIdempotent) {
  auto tree = BloomSampleTree::BuildPruned(SmallConfig(), {10}).value();
  const size_t nodes = tree.node_count();
  ASSERT_TRUE(tree.Insert(10).ok());
  EXPECT_EQ(tree.node_count(), nodes);
  EXPECT_EQ(tree.occupied_count(), 1u);
}

TEST(BloomSampleTreeTest, DynamicInsertMatchesBatchBuild) {
  // Insert-one-by-one must converge to the same filters as a batch build.
  Rng rng(3);
  auto ids = GenerateUniformSet(1024, 40, &rng).value();
  auto incremental = BloomSampleTree::BuildPruned(SmallConfig(), {}).value();
  for (uint64_t x : ids) ASSERT_TRUE(incremental.Insert(x).ok());
  const auto batch = BloomSampleTree::BuildPruned(SmallConfig(), ids).value();

  EXPECT_EQ(incremental.OccupiedIds(), batch.OccupiedIds());
  EXPECT_EQ(incremental.node_count(), batch.node_count());
  // Compare root filter CONTENTS: the two trees own distinct (but
  // identically seeded) hash family objects, so compare bit vectors, not
  // whole filters (filter equality includes family identity).
  EXPECT_EQ(incremental.node(incremental.root()).filter.bits(),
            batch.node(batch.root()).filter.bits());
}

/// Every reader of the occupancy layout — OccupiedIds, IsOccupied, each
/// node's candidate count, each leaf's candidate walk, each node's filter
/// — must agree with `model`, the occupied set.
void ExpectTreeHolds(const BloomSampleTree& tree,
                     const std::set<uint64_t>& model,
                     const std::string& what) {
  const std::vector<uint64_t> ids(model.begin(), model.end());
  EXPECT_EQ(tree.OccupiedIds(), ids) << what;
  EXPECT_EQ(tree.occupied_count(), ids.size()) << what;
  EXPECT_EQ(tree.SubtreeCandidateCount(tree.root()), ids.size()) << what;
  for (uint64_t x = 0; x < tree.config().namespace_size; ++x) {
    ASSERT_EQ(tree.IsOccupied(x), model.count(x) == 1) << what << " x=" << x;
  }
  for (size_t id = 0; id < tree.node_count(); ++id) {
    const auto& node = tree.node(static_cast<int64_t>(id));
    const std::vector<uint64_t> in_range(model.lower_bound(node.lo),
                                         model.lower_bound(node.hi));
    EXPECT_EQ(tree.SubtreeCandidateCount(static_cast<int64_t>(id)),
              in_range.size())
        << what << " node " << id;
    EXPECT_EQ(node.filter.bits(), tree.MakeQueryFilter(in_range).bits())
        << what << " node " << id;
    EXPECT_EQ(node.set_bits, node.filter.SetBitCount()) << what;
    if (!tree.IsLeaf(static_cast<int64_t>(id))) continue;
    std::vector<uint64_t> walked;
    tree.ForEachLeafCandidate(static_cast<int64_t>(id),
                              [&walked](uint64_t x) { walked.push_back(x); });
    EXPECT_EQ(walked, in_range) << what << " leaf " << id;
  }
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(BloomSampleTreeTest, InsertListsFollowAnOccupancyModel) {
  // Seeded INSERTs and REMOVEs against a std::set model: ids enter the
  // leaves' insert lists, leave them or the base, and land in leaves the
  // base never had (the base covers only the lower half).
  const TreeConfig config = SmallConfig(4096, 4096, 5);
  Rng rng(17);
  std::vector<uint64_t> base;
  for (uint64_t x : GenerateUniformSet(4096, 600, &rng).value()) {
    if (x < 2048) base.push_back(x);
  }
  auto tree = BloomSampleTree::BuildPruned(config, base).value();
  std::set<uint64_t> model(base.begin(), base.end());
  ExpectTreeHolds(tree, model, "built");
  for (int batch = 0; batch < 8; ++batch) {
    for (int op = 0; op < 150; ++op) {
      const uint64_t x = rng.Below(4096);
      if (rng.Below(3) == 0) {
        ASSERT_TRUE(tree.Remove(x).ok());
        model.erase(x);
      } else {
        ASSERT_TRUE(tree.Insert(x).ok());
        model.insert(x);
      }
    }
    ExpectTreeHolds(tree, model, "batch " + std::to_string(batch));
  }

  // Saved and reloaded, heap and mmap: the same ids, draws and exact
  // reconstruction as the live tree.
  const std::string path = ::testing::TempDir() + "/insert_lists.bst";
  std::remove(path.c_str());
  ASSERT_TRUE(SaveTreeToFile(tree, path).ok());
  std::vector<uint64_t> members;
  for (uint64_t x : model) {
    if (x % 5 == 0) members.push_back(x);
  }
  const BloomFilter live_query = tree.MakeQueryFilter(members);
  const auto live_draws = BstSampler(&tree).SampleBatch(live_query, 64, 23);
  const auto live_exact = BstReconstructor(&tree).Reconstruct(
      live_query, nullptr, BstReconstructor::PruningMode::kExact);
  for (LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
    LoadOptions options;
    options.mode = mode;
    auto loaded = LoadTreeFromFile(path, options);
    if (!loaded.ok() && mode == LoadMode::kMmap) continue;  // no mmap here
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const BloomSampleTree& back = loaded.value();
    const std::string what = "reload mode=" +
                             std::to_string(static_cast<int>(mode));
    ExpectTreeHolds(back, model, what);
    const BloomFilter query = back.MakeQueryFilter(members);
    EXPECT_EQ(BstSampler(&back).SampleBatch(query, 64, 23), live_draws)
        << what;
    EXPECT_EQ(BstReconstructor(&back).Reconstruct(
                  query, nullptr, BstReconstructor::PruningMode::kExact),
              live_exact)
        << what;
  }
  std::remove(path.c_str());
}

TEST(BloomSampleTreeTest, InsertsIntoExistingLeavesSaveLikeAFreshBuild) {
  // Every leaf exists in the base, so inserts only fill insert lists; the
  // saved image — occupancy region included — must be byte-identical to
  // BuildPruned over the final set.
  const TreeConfig config = SmallConfig(4096, 4096, 5);
  Rng rng(29);
  const auto all = GenerateUniformSet(4096, 900, &rng).value();
  std::vector<uint64_t> base;
  std::vector<uint64_t> inserted;
  for (size_t i = 0; i < all.size(); ++i) {
    (i % 3 == 2 ? inserted : base).push_back(all[i]);
  }
  auto tree = BloomSampleTree::BuildPruned(config, base).value();
  const size_t nodes = tree.node_count();
  for (uint64_t x : inserted) ASSERT_TRUE(tree.Insert(x).ok());
  ASSERT_EQ(tree.node_count(), nodes);
  const auto fresh = BloomSampleTree::BuildPruned(config, all).value();

  const std::string dir = ::testing::TempDir();
  for (uint32_t version : {1u, 2u}) {
    SaveOptions options;
    options.version = version;
    const std::string a = dir + "/lists_" + std::to_string(version) + ".bst";
    const std::string b = dir + "/fresh_" + std::to_string(version) + ".bst";
    ASSERT_TRUE(SaveTreeToFile(tree, a, options).ok());
    ASSERT_TRUE(SaveTreeToFile(fresh, b, options).ok());
    const std::string bytes = ReadFileBytes(a);
    EXPECT_FALSE(bytes.empty());
    EXPECT_EQ(bytes, ReadFileBytes(b)) << "version " << version;
    std::remove(a.c_str());
    std::remove(b.c_str());
  }
}

TEST(BloomSampleTreeTest, InsertValidation) {
  auto complete = BloomSampleTree::BuildComplete(SmallConfig()).value();
  EXPECT_EQ(complete.Insert(5).code(), Status::Code::kUnsupported);
  auto pruned = BloomSampleTree::BuildPruned(SmallConfig(), {}).value();
  EXPECT_EQ(pruned.Insert(4096).code(), Status::Code::kOutOfRange);
}

TEST(BloomSampleTreeTest, MemoryBytesCountsAllNodePayloads) {
  const auto tree = BloomSampleTree::BuildComplete(SmallConfig()).value();
  EXPECT_EQ(tree.MemoryBytes(), tree.node_count() * ((4096 + 63) / 64) * 8);
}

TEST(BloomSampleTreeTest, DepthZeroTreeIsSingleLeaf) {
  const auto tree =
      BloomSampleTree::BuildComplete(SmallConfig(100, 512, 0)).value();
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_TRUE(tree.IsLeaf(tree.root()));
}

}  // namespace
}  // namespace bloomsample
