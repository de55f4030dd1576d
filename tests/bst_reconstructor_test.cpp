#include "src/core/bst_reconstructor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>

#include "src/baselines/dictionary_attack.h"
#include "src/workload/set_generators.h"

namespace bloomsample {
namespace {

TreeConfig Config(uint64_t M, uint64_t m, uint32_t depth,
                  double threshold = 0.0) {
  TreeConfig config;
  config.namespace_size = M;
  config.m = m;
  config.k = 3;
  config.hash_kind = HashFamilyKind::kSimple;
  config.seed = 42;
  config.depth = depth;
  config.intersection_threshold = threshold;
  return config;
}

TEST(BstReconstructorTest, ExactModeEqualsDictionaryAttack) {
  const uint64_t M = 20000;
  const auto tree = BloomSampleTree::BuildComplete(Config(M, 9000, 5)).value();
  Rng rng(1);
  for (uint64_t n : {1ULL, 50ULL, 500ULL, 3000ULL}) {
    const auto members = GenerateUniformSet(M, n, &rng).value();
    const BloomFilter query = tree.MakeQueryFilter(members);
    BstReconstructor reconstructor(&tree);
    DictionaryAttack attack(M);
    EXPECT_EQ(reconstructor.Reconstruct(query, nullptr,
                                        BstReconstructor::PruningMode::kExact),
              attack.Reconstruct(query))
        << "n=" << n;
  }
}

TEST(BstReconstructorTest, OutputIsSortedAndUnique) {
  const uint64_t M = 10000;
  const auto tree = BloomSampleTree::BuildComplete(Config(M, 6000, 4)).value();
  Rng rng(2);
  const auto members = GenerateUniformSet(M, 400, &rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);
  BstReconstructor reconstructor(&tree);
  const auto result = reconstructor.Reconstruct(query);
  EXPECT_TRUE(std::is_sorted(result.begin(), result.end()));
  EXPECT_EQ(std::adjacent_find(result.begin(), result.end()), result.end());
}

TEST(BstReconstructorTest, ThresholdedAtTauZeroEqualsExact) {
  // With the threshold disabled, kThresholded degenerates to kExact: the
  // only prune left is the lossless t∧ < k test.
  const uint64_t M = 50000;
  const auto tree =
      BloomSampleTree::BuildComplete(Config(M, 20000, 6, 0.0)).value();
  Rng rng(3);
  const auto members = GenerateUniformSet(M, 800, &rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);
  BstReconstructor reconstructor(&tree);
  EXPECT_EQ(reconstructor.Reconstruct(query, nullptr,
                                      BstReconstructor::PruningMode::kThresholded),
            reconstructor.Reconstruct(query, nullptr,
                                      BstReconstructor::PruningMode::kExact));
}

TEST(BstReconstructorTest, PositiveTauIsDocumentedLossy) {
  // Companion to ablation_threshold: a positive tau on the chance-corrected
  // estimator DOES drop elements at paper-like parameters. This pins the
  // behaviour so a future "fix" that silently changes it gets noticed.
  const uint64_t M = 50000;
  const auto tree =
      BloomSampleTree::BuildComplete(Config(M, 20000, 6, 0.5)).value();
  Rng rng(3);
  const auto members = GenerateUniformSet(M, 800, &rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);
  BstReconstructor reconstructor(&tree);
  const auto thresholded = reconstructor.Reconstruct(
      query, nullptr, BstReconstructor::PruningMode::kThresholded);
  const auto exact = reconstructor.Reconstruct(
      query, nullptr, BstReconstructor::PruningMode::kExact);
  size_t found = 0;
  for (uint64_t x : members) {
    found += std::binary_search(thresholded.begin(), thresholded.end(), x);
  }
  EXPECT_LT(found, members.size());  // lossy…
  EXPECT_GT(found, members.size() / 3);  // …but not degenerate
  EXPECT_TRUE(std::includes(exact.begin(), exact.end(), thresholded.begin(),
                            thresholded.end()));
}

TEST(BstReconstructorTest, ThresholdedIsSubsetOfExact) {
  const uint64_t M = 30000;
  auto tree = BloomSampleTree::BuildComplete(Config(M, 12000, 5, 2.0)).value();
  Rng rng(4);
  const auto members = GenerateUniformSet(M, 300, &rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);
  BstReconstructor reconstructor(&tree);
  const auto exact = reconstructor.Reconstruct(
      query, nullptr, BstReconstructor::PruningMode::kExact);
  const auto thresholded = reconstructor.Reconstruct(
      query, nullptr, BstReconstructor::PruningMode::kThresholded);
  EXPECT_TRUE(std::includes(exact.begin(), exact.end(), thresholded.begin(),
                            thresholded.end()));
}

TEST(BstReconstructorTest, EmptyFilterReconstructsEmpty) {
  const auto tree =
      BloomSampleTree::BuildComplete(Config(1000, 2000, 3)).value();
  const BloomFilter query = tree.MakeQueryFilter();
  BstReconstructor reconstructor(&tree);
  OpCounters counters;
  EXPECT_TRUE(reconstructor.Reconstruct(query, &counters).empty());
  EXPECT_EQ(counters.membership_queries, 0u);
}

TEST(BstReconstructorTest, CountsOperations) {
  const uint64_t M = 10000;
  const auto tree = BloomSampleTree::BuildComplete(Config(M, 6000, 4)).value();
  Rng rng(5);
  const auto members = GenerateUniformSet(M, 100, &rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);
  BstReconstructor reconstructor(&tree);
  OpCounters counters;
  (void)reconstructor.Reconstruct(query, &counters);
  EXPECT_GT(counters.intersections, 0u);
  EXPECT_LE(counters.intersections, tree.node_count());
  EXPECT_EQ(counters.intersections, counters.nodes_visited);
  EXPECT_LE(counters.membership_queries, M);
}

TEST(BstReconstructorTest, PrunedTreeReconstructsOccupiedMembersExactly) {
  const uint64_t M = 100000;
  Rng rng(6);
  const auto occupied = GenerateUniformSet(M, 600, &rng).value();
  const auto tree =
      BloomSampleTree::BuildPruned(Config(M, 25000, 6), occupied).value();
  std::vector<uint64_t> members(occupied.begin(), occupied.begin() + 80);
  const BloomFilter query = tree.MakeQueryFilter(members);
  BstReconstructor reconstructor(&tree);
  const auto result = reconstructor.Reconstruct(
      query, nullptr, BstReconstructor::PruningMode::kExact);
  // All members present; everything reported is occupied and positive.
  EXPECT_TRUE(std::includes(result.begin(), result.end(), members.begin(),
                            members.end()));
  for (uint64_t x : result) {
    EXPECT_TRUE(std::binary_search(occupied.begin(), occupied.end(), x));
    EXPECT_TRUE(query.Contains(x));
  }
}

TEST(BstReconstructorTest, SingletonLeafEdges) {
  // Elements at the extreme edges of the namespace exercise leaf clipping.
  const uint64_t M = 1000;  // non-power-of-two
  const auto tree = BloomSampleTree::BuildComplete(Config(M, 3000, 4)).value();
  for (uint64_t member : {0ULL, 999ULL}) {
    const BloomFilter query = tree.MakeQueryFilter({member});
    BstReconstructor reconstructor(&tree);
    const auto result = reconstructor.Reconstruct(query);
    EXPECT_TRUE(std::binary_search(result.begin(), result.end(), member));
  }
}

// --- The h_0 index: kExact on pruned trees ------------------------------

/// The exact answer by definition: DictionaryAttack over [0, M) restricted
/// to the occupied ids.
std::vector<uint64_t> OccupiedDictionaryAttack(const BloomSampleTree& tree,
                                               const BloomFilter& query) {
  const std::vector<uint64_t> attack =
      DictionaryAttack(tree.config().namespace_size).Reconstruct(query);
  const std::vector<uint64_t> occupied = tree.OccupiedIds();
  std::vector<uint64_t> out;
  std::set_intersection(attack.begin(), attack.end(), occupied.begin(),
                        occupied.end(), std::back_inserter(out));
  return out;
}

/// kExact through the index equals the threshold-0 traversal and the
/// occupied-restricted DictionaryAttack, is ascending and duplicate-free,
/// and passes the present/absent split: every present id comes back and
/// every returned id is occupied and passes the filter. A caching context
/// answers the same, and its warm repeat tests nothing.
void ExpectIndexAnswerExact(BloomSampleTree* tree, const BloomFilter& query,
                            const std::vector<uint64_t>& present,
                            const std::string& what) {
  ASSERT_TRUE(tree->HasExactIndex()) << what;
  const BstReconstructor reconstructor(tree);
  OpCounters counters;
  const auto exact = reconstructor.Reconstruct(
      query, &counters, BstReconstructor::PruningMode::kExact);
  EXPECT_EQ(counters.nodes_visited, 0u) << what;
  EXPECT_EQ(counters.intersections, 0u) << what;

  const double threshold = tree->config().intersection_threshold;
  tree->set_intersection_threshold(0.0);
  EXPECT_EQ(exact, reconstructor.Reconstruct(
                       query, nullptr,
                       BstReconstructor::PruningMode::kThresholded))
      << what;
  tree->set_intersection_threshold(threshold);
  EXPECT_EQ(exact, OccupiedDictionaryAttack(*tree, query)) << what;

  EXPECT_TRUE(std::is_sorted(exact.begin(), exact.end())) << what;
  EXPECT_EQ(std::adjacent_find(exact.begin(), exact.end()), exact.end())
      << what;
  for (uint64_t x : present) {
    EXPECT_TRUE(std::binary_search(exact.begin(), exact.end(), x))
        << what << ": lost present id " << x;
  }
  for (uint64_t x : exact) {
    EXPECT_TRUE(query.Contains(x)) << what << ": " << x;
    EXPECT_TRUE(tree->IsOccupied(x))
        << what << ": " << x;
  }

  const QueryContext ctx(*tree, query);
  EXPECT_EQ(reconstructor.Reconstruct(ctx, nullptr,
                                      BstReconstructor::PruningMode::kExact),
            exact)
      << what;
  OpCounters warm;
  EXPECT_EQ(reconstructor.Reconstruct(ctx, &warm,
                                      BstReconstructor::PruningMode::kExact),
            exact)
      << what;
  EXPECT_EQ(warm.membership_queries, 0u) << what;
}

TEST(BstReconstructorTest, ExactIndexEqualsTraversalAndDictionaryAttack) {
  const uint64_t M = 100000;
  for (HashFamilyKind kind :
       {HashFamilyKind::kSimple, HashFamilyKind::kMurmur3}) {
    TreeConfig config = Config(M, 25000, 6);
    config.hash_kind = kind;
    Rng rng(8);
    const auto occupied = GenerateUniformSet(M, 10000, &rng).value();
    auto tree = BloomSampleTree::BuildPruned(config, occupied).value();
    const std::string family = HashFamilyKindName(kind);

    // Uniform members of the occupied set (present), plus ids outside it.
    const auto picks = GenerateUniformSet(occupied.size(), 400, &rng).value();
    std::vector<uint64_t> present;
    for (uint64_t i : picks) present.push_back(occupied[i]);
    std::vector<uint64_t> members = present;
    const auto outside = GenerateUniformSet(M, 300, &rng).value();
    members.insert(members.end(), outside.begin(), outside.end());
    ExpectIndexAnswerExact(&tree, tree.MakeQueryFilter(members), present,
                           family + " uniform");

    // Clustered members inside a window of 10% of the occupied ids.
    const auto window = GenerateClusteredSet(1000, 500, &rng).value();
    std::vector<uint64_t> clustered;
    for (uint64_t i : window) clustered.push_back(occupied[4000 + i]);
    ExpectIndexAnswerExact(&tree, tree.MakeQueryFilter(clustered), clustered,
                           family + " clustered");

    // Empty: nothing back, nothing tested.
    OpCounters empty_counters;
    EXPECT_TRUE(BstReconstructor(&tree)
                    .Reconstruct(tree.MakeQueryFilter(), &empty_counters,
                                 BstReconstructor::PruningMode::kExact)
                    .empty());
    EXPECT_EQ(empty_counters.membership_queries, 0u);

    // Saturated: every bit set, so every occupied id comes back.
    BloomFilter saturated = tree.MakeQueryFilter();
    for (uint64_t b = 0; b < config.m; ++b) {
      saturated.mutable_bits().Set(static_cast<size_t>(b));
    }
    ExpectIndexAnswerExact(&tree, saturated, occupied, family + " saturated");
    EXPECT_EQ(BstReconstructor(&tree).Reconstruct(
                  saturated, nullptr, BstReconstructor::PruningMode::kExact),
              occupied);
  }
}

TEST(BstReconstructorTest, ExactIndexFollowsInsertAndRemove) {
  const uint64_t M = 100000;
  Rng rng(9);
  const auto occupied = GenerateUniformSet(M, 1600, &rng).value();
  auto tree =
      BloomSampleTree::BuildPruned(Config(M, 25000, 6), occupied).value();
  const BstReconstructor reconstructor(&tree);

  // The query holds 200 occupied ids and 200 ids the test inserts later.
  std::vector<uint64_t> present(occupied.begin(), occupied.begin() + 200);
  std::vector<uint64_t> fresh;
  for (uint64_t x = 1; fresh.size() < 200; x += 97) {
    if (!std::binary_search(occupied.begin(), occupied.end(), x)) {
      fresh.push_back(x);
    }
  }
  std::vector<uint64_t> members = present;
  members.insert(members.end(), fresh.begin(), fresh.end());
  const BloomFilter query = tree.MakeQueryFilter(members);
  // The pooled case: one caching context kept across every mutation.
  const QueryContext pooled(tree, query);
  const auto check = [&](const std::string& what) {
    std::vector<uint64_t> expected_present;
    for (uint64_t x : members) {
      if (tree.IsOccupied(x)) {
        expected_present.push_back(x);
      }
    }
    std::sort(expected_present.begin(), expected_present.end());
    ExpectIndexAnswerExact(&tree, query, expected_present, what);
    EXPECT_EQ(reconstructor.Reconstruct(
                  pooled, nullptr, BstReconstructor::PruningMode::kExact),
              OccupiedDictionaryAttack(tree, query))
        << what << " (pooled context)";
  };
  check("built");
  EXPECT_EQ(tree.exact_index_stats().builds, 1u);

  // Interleaved: insert fresh members, remove present ones and some ids
  // outside the query.
  for (size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(tree.Insert(fresh[i]).ok());
    ASSERT_TRUE(tree.Remove(present[i]).ok());
    ASSERT_TRUE(tree.Remove(occupied[1000 + i]).ok());
    if (i % 5 == 4) check("interleaved step " + std::to_string(i));
  }
  // Re-insert removed ids: they sit in their bucket and in the log.
  for (size_t i = 0; i < 10; ++i) ASSERT_TRUE(tree.Insert(present[i]).ok());
  check("re-inserted");
  // Insert-only steps keep the pooled answer incremental.
  for (size_t i = 20; i < 30; ++i) ASSERT_TRUE(tree.Insert(fresh[i]).ok());
  OpCounters incremental;
  (void)reconstructor.Reconstruct(pooled, nullptr,
                                  BstReconstructor::PruningMode::kExact);
  ASSERT_TRUE(tree.Insert(fresh[30]).ok());
  EXPECT_TRUE(tree.IsOccupied(fresh[30]));
  const auto after_one = reconstructor.Reconstruct(
      pooled, &incremental, BstReconstructor::PruningMode::kExact);
  EXPECT_EQ(incremental.membership_queries, 1u);
  EXPECT_TRUE(std::binary_search(after_one.begin(), after_one.end(),
                                 fresh[30]));
  check("incremental");
  EXPECT_EQ(tree.exact_index_stats().builds, 1u);

  // Crossing the rebuild point (1/16 of the 1600 ids) drops the index;
  // the next exact query rebuilds it and recomputes the pooled answer.
  for (size_t i = 31; i < 200; ++i) ASSERT_TRUE(tree.Insert(fresh[i]).ok());
  EXPECT_EQ(tree.exact_index_stats().bytes, 0u);
  check("rebuilt");
  EXPECT_EQ(tree.exact_index_stats().builds, 2u);
  EXPECT_EQ(tree.exact_index_stats().pending, 0u);
}

TEST(BstReconstructorTest, NamespaceBeyond32BitsFallsBackToTraversal) {
  // Ids past 2^32 do not fit the index's u32 buckets: kExact traverses.
  const uint64_t M = (uint64_t{1} << 33) + 12345;
  Rng rng(10);
  std::vector<uint64_t> occupied;
  for (int i = 0; i < 3000; ++i) occupied.push_back(rng.Below(M));
  occupied.push_back(M - 1);
  std::sort(occupied.begin(), occupied.end());
  occupied.erase(std::unique(occupied.begin(), occupied.end()),
                 occupied.end());
  const auto tree =
      BloomSampleTree::BuildPruned(Config(M, 20000, 8), occupied).value();
  EXPECT_FALSE(tree.HasExactIndex());

  std::vector<uint64_t> present(occupied.end() - 150, occupied.end());
  const BloomFilter query = tree.MakeQueryFilter(present);
  OpCounters counters;
  const auto exact = BstReconstructor(&tree).Reconstruct(
      query, &counters, BstReconstructor::PruningMode::kExact);
  EXPECT_GT(counters.nodes_visited, 0u);
  std::vector<uint64_t> expected;
  for (uint64_t x : occupied) {
    if (query.Contains(x)) expected.push_back(x);
  }
  EXPECT_EQ(exact, expected);
  EXPECT_TRUE(std::includes(exact.begin(), exact.end(), present.begin(),
                            present.end()));
  EXPECT_GT(exact.back(), uint64_t{1} << 32);
  EXPECT_EQ(tree.exact_index_stats().builds, 0u);
}

}  // namespace
}  // namespace bloomsample
