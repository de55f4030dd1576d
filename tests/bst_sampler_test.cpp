#include "src/core/bst_sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "src/baselines/dictionary_attack.h"
#include "src/bloom/cardinality.h"
#include "src/core/query_context.h"
#include "src/workload/set_generators.h"

namespace bloomsample {
namespace {

TreeConfig Config(uint64_t M, uint64_t m, uint32_t depth) {
  TreeConfig config;
  config.namespace_size = M;
  config.m = m;
  config.k = 3;
  config.hash_kind = HashFamilyKind::kSimple;
  config.seed = 42;
  config.depth = depth;
  return config;
}

TEST(BstSamplerTest, SampleIsAlwaysAMemberOrFalsePositive) {
  const uint64_t M = 10000;
  const auto tree = BloomSampleTree::BuildComplete(Config(M, 8000, 5)).value();
  Rng rng(1);
  const auto members = GenerateUniformSet(M, 200, &rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);
  BstSampler sampler(&tree);
  for (int i = 0; i < 200; ++i) {
    const auto sample = sampler.Sample(query, &rng);
    ASSERT_TRUE(sample.has_value());
    EXPECT_TRUE(query.Contains(*sample));
    EXPECT_LT(*sample, M);
  }
}

TEST(BstSamplerTest, EmptyFilterSamplesNull) {
  const auto tree =
      BloomSampleTree::BuildComplete(Config(1000, 2000, 3)).value();
  const BloomFilter query = tree.MakeQueryFilter();
  BstSampler sampler(&tree);
  Rng rng(2);
  OpCounters counters;
  EXPECT_FALSE(sampler.Sample(query, &rng, &counters).has_value());
  EXPECT_EQ(counters.null_samples, 1u);
}

TEST(BstSamplerTest, EveryMemberIsReachable) {
  // With lossless pruning no member may be structurally unreachable.
  const uint64_t M = 2000;
  const auto tree = BloomSampleTree::BuildComplete(Config(M, 6000, 4)).value();
  Rng rng(3);
  const auto members = GenerateUniformSet(M, 15, &rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);
  BstSampler sampler(&tree);
  std::unordered_set<uint64_t> seen;
  for (int i = 0; i < 6000 && seen.size() < members.size(); ++i) {
    const auto sample = sampler.Sample(query, &rng);
    ASSERT_TRUE(sample.has_value());
    if (std::binary_search(members.begin(), members.end(), *sample)) {
      seen.insert(*sample);
    }
  }
  EXPECT_EQ(seen.size(), members.size());
}

TEST(BstSamplerTest, SingletonSetIsAlwaysFound) {
  const uint64_t M = 4096;
  const auto tree = BloomSampleTree::BuildComplete(Config(M, 4096, 6)).value();
  for (uint64_t member : {0ULL, 1ULL, 2047ULL, 4095ULL}) {
    const BloomFilter query = tree.MakeQueryFilter({member});
    BstSampler sampler(&tree);
    Rng rng(member + 1);
    int hits = 0;
    for (int i = 0; i < 20; ++i) {
      const auto sample = sampler.Sample(query, &rng);
      ASSERT_TRUE(sample.has_value());
      hits += (*sample == member);
    }
    // The member itself dominates: false positives of a 1-element filter
    // are rare at these parameters.
    EXPECT_GT(hits, 10) << member;
  }
}

TEST(BstSamplerTest, CountsOperations) {
  const uint64_t M = 10000;
  const auto tree = BloomSampleTree::BuildComplete(Config(M, 8000, 5)).value();
  Rng rng(4);
  const auto members = GenerateUniformSet(M, 100, &rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);
  BstSampler sampler(&tree);
  OpCounters counters;
  ASSERT_TRUE(sampler.Sample(query, &rng, &counters).has_value());
  // At least one intersection pair per level on the true path, and at most
  // the whole tree.
  EXPECT_GE(counters.intersections, 2u);
  EXPECT_LE(counters.intersections, 2 * tree.node_count());
  EXPECT_GT(counters.membership_queries, 0u);
  EXPECT_GE(counters.nodes_visited, tree.config().depth);
}

TEST(BstSamplerTest, SampleManyWithoutReplacementHasNoDuplicates) {
  const uint64_t M = 10000;
  const auto tree = BloomSampleTree::BuildComplete(Config(M, 9000, 5)).value();
  Rng rng(5);
  const auto members = GenerateUniformSet(M, 300, &rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);
  BstSampler sampler(&tree);
  const auto samples = sampler.SampleMany(query, 50, &rng);
  EXPECT_LE(samples.size(), 50u);
  EXPECT_GE(samples.size(), 10u);  // should mostly succeed
  std::unordered_set<uint64_t> unique(samples.begin(), samples.end());
  EXPECT_EQ(unique.size(), samples.size());
  for (uint64_t x : samples) EXPECT_TRUE(query.Contains(x));
}

TEST(BstSamplerTest, SampleManyWithReplacementReturnsExactlyR) {
  const uint64_t M = 10000;
  const auto tree = BloomSampleTree::BuildComplete(Config(M, 9000, 5)).value();
  Rng rng(6);
  const auto members = GenerateUniformSet(M, 300, &rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);
  BstSampler sampler(&tree);
  const auto samples =
      sampler.SampleMany(query, 40, &rng, /*with_replacement=*/true);
  EXPECT_EQ(samples.size(), 40u);
  for (uint64_t x : samples) EXPECT_TRUE(query.Contains(x));
}

TEST(BstSamplerTest, SampleManyRZeroIsEmpty) {
  const auto tree =
      BloomSampleTree::BuildComplete(Config(1000, 2000, 3)).value();
  const BloomFilter query = tree.MakeQueryFilter({1, 2, 3});
  BstSampler sampler(&tree);
  Rng rng(7);
  EXPECT_TRUE(sampler.SampleMany(query, 0, &rng).empty());
}

TEST(BstSamplerTest, SampleManyRequestLargerThanSet) {
  const uint64_t M = 4096;
  const auto tree = BloomSampleTree::BuildComplete(Config(M, 6000, 4)).value();
  const std::vector<uint64_t> members = {5, 500, 2000, 4000};
  const BloomFilter query = tree.MakeQueryFilter(members);
  BstSampler sampler(&tree);
  Rng rng(8);
  const auto samples = sampler.SampleMany(query, 100, &rng);
  // Everything positive (members + rare false positives), no dupes.
  std::unordered_set<uint64_t> unique(samples.begin(), samples.end());
  EXPECT_EQ(unique.size(), samples.size());
  for (uint64_t member : members) {
    EXPECT_TRUE(unique.count(member)) << member;
  }
}

TEST(BstSamplerTest, MultiSampleSharesWorkAcrossPaths) {
  const uint64_t M = 100000;
  const auto tree =
      BloomSampleTree::BuildComplete(Config(M, 30000, 7)).value();
  Rng rng(9);
  const auto members = GenerateUniformSet(M, 1000, &rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);
  BstSampler sampler(&tree);

  OpCounters batched;
  Rng rng_a(100);
  (void)sampler.SampleMany(query, 32, &rng_a, /*with_replacement=*/true,
                           &batched);
  OpCounters repeated;
  Rng rng_b(100);
  for (int i = 0; i < 32; ++i) (void)sampler.Sample(query, &rng_b, &repeated);
  EXPECT_LT(batched.intersections, repeated.intersections);
  EXPECT_LT(batched.membership_queries, repeated.membership_queries);
}

TEST(BstSamplerTest, UniformSplitPolicyStillProducesValidSamples) {
  const uint64_t M = 10000;
  const auto tree = BloomSampleTree::BuildComplete(Config(M, 8000, 5)).value();
  Rng rng(10);
  const auto members = GenerateUniformSet(M, 100, &rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);
  BstSampler sampler(&tree, BstSampler::BranchPolicy::kUniformSplit);
  for (int i = 0; i < 50; ++i) {
    const auto sample = sampler.Sample(query, &rng);
    ASSERT_TRUE(sample.has_value());
    EXPECT_TRUE(query.Contains(*sample));
  }
}

TEST(BstSamplerTest, WorksOnPrunedTree) {
  const uint64_t M = 100000;
  Rng rng(11);
  const auto occupied = GenerateUniformSet(M, 500, &rng).value();
  const auto tree =
      BloomSampleTree::BuildPruned(Config(M, 20000, 6), occupied).value();
  // Query: a subset of the occupied ids.
  std::vector<uint64_t> members(occupied.begin(), occupied.begin() + 50);
  const BloomFilter query = tree.MakeQueryFilter(members);
  BstSampler sampler(&tree);
  for (int i = 0; i < 100; ++i) {
    const auto sample = sampler.Sample(query, &rng);
    ASSERT_TRUE(sample.has_value());
    // Pruned trees only ever propose occupied ids.
    EXPECT_TRUE(std::binary_search(occupied.begin(), occupied.end(), *sample));
    EXPECT_TRUE(query.Contains(*sample));
  }
}

TEST(BstSamplerTest, BranchWeightCutsBelowKAndFloorsChanceOverlap) {
  // Per node: fewer than k shared bits is a lossless cut (weight 0); a
  // node at or below chance overlap estimates 0 yet stays viable at the
  // 0.5 floor; the Section 5.6 threshold applies on every call. Caching
  // and non-caching contexts agree, before and after the memo fills.
  const uint64_t M = 10000;
  auto tree = BloomSampleTree::BuildComplete(Config(M, 8000, 5)).value();
  Rng rng(9);
  const auto members = GenerateUniformSet(M, 20, &rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);
  const QueryContext cached(tree, query);
  const QueryContext uncached(tree, query, IntersectKernel::kAuto,
                              /*cache_estimates=*/false);
  size_t cut = 0, floored = 0, weighed = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t id = 0; id < static_cast<int64_t>(tree.node_count());
         ++id) {
      const BloomSampleTree::Node& node = tree.node(id);
      const uint64_t t_and = node.filter.AndPopcount(query);
      tree.set_intersection_threshold(0.0);
      if (t_and < node.filter.k()) {
        EXPECT_EQ(cached.NodeEstimate(id, nullptr), QueryContext::kPruned);
        EXPECT_EQ(BstSampler::ChildEstimate(cached, id, nullptr), 0.0);
        cut += pass == 0;
        continue;
      }
      const double estimate = EstimateIntersectionFromBits(
          node.set_bits, query.SetBitCount(), t_and, node.filter.m(),
          node.filter.k());
      EXPECT_EQ(cached.NodeEstimate(id, nullptr), estimate) << id;
      EXPECT_EQ(uncached.NodeEstimate(id, nullptr), estimate) << id;
      EXPECT_EQ(BstSampler::ChildEstimate(cached, id, nullptr),
                std::max(estimate, 0.5))
          << id;
      tree.set_intersection_threshold(estimate + 1.0);
      EXPECT_EQ(BstSampler::ChildEstimate(cached, id, nullptr), 0.0) << id;
      if (pass == 0) (estimate == 0.0 ? floored : weighed) += 1;
    }
  }
  tree.set_intersection_threshold(0.0);
  EXPECT_GT(cut, 0u);
  EXPECT_GT(floored, 0u);
  EXPECT_GT(weighed, 0u);
}

TEST(BstSamplerDeathTest, ForeignQueryFilterAborts) {
  const auto tree =
      BloomSampleTree::BuildComplete(Config(1000, 2000, 3)).value();
  auto foreign_family =
      MakeHashFamily(HashFamilyKind::kSimple, 3, 2000, 42, 1000).value();
  BloomFilter foreign(foreign_family);
  foreign.Insert(5);
  BstSampler sampler(&tree);
  Rng rng(12);
  EXPECT_DEATH((void)sampler.Sample(foreign, &rng), "hash family");
}

}  // namespace
}  // namespace bloomsample
