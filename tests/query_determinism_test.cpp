// Determinism fences for the query-side fast path:
//   * BstReconstructor output must be identical for every query_threads
//     value (serial, 2, hardware default) and, in kExact mode, equal to
//     DictionaryAttack — the parallel frontier traversal only reschedules
//     disjoint subtrees, never changes a pruning decision.
//   * BstSampler must draw identical samples through the dense and sparse
//     kernels (they are bit-identical, so every estimate, branch
//     probability, and RNG consumption matches draw for draw), and a
//     reused QueryContext must behave exactly like a fresh one — the
//     EstimateCache and leaf cache may only change *work*, never results.
//   * kExact on a pruned tree runs through the h_0 index: its output must
//     equal the threshold-0 traversal and DictionaryAttack over the
//     occupied ids for every thread count, SIMD tier, load mode (heap,
//     mmap) and forest shard count (1, 4), cold and warm.
//   * SampleBatch runs every draw on its counter-based stream, so a batch
//     of N must equal N serial Sample calls on Rng::ForStream(seed, i) —
//     draw for draw, for every query_threads value, every min_parallel_work
//     gate setting, and every SIMD tier — and its draws must pass the
//     paper's chi-squared uniformity test.
//   * The warm pass bsrd serves (a pruned M = 1e6 tree at the paper's
//     configuration): SampleBatch and SampleBatchPrepared draw the same on
//     a fresh context and on one warmed by earlier batches, with draws and
//     op totals identical across query threads, SIMD tiers and load
//     modes; and a threshold change on a warm context takes effect — the
//     memo holds the raw estimate, never a thresholded weight.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "src/baselines/dictionary_attack.h"
#include "src/core/bloom_sample_forest.h"
#include "src/core/bst_reconstructor.h"
#include "src/core/bst_sampler.h"
#include "src/core/query_context.h"
#include "src/core/tree_config.h"
#include "src/core/tree_io.h"
#include "src/stats/chi_squared.h"
#include "src/util/rng.h"
#include "src/util/simd.h"
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

TEST(QueryDeterminismTest, ReconstructorIdenticalAcrossThreadCounts) {
  const uint64_t M = 20000;
  auto tree = BloomSampleTree::BuildComplete(Config(M, 9000, 5)).value();
  BstReconstructor reconstructor(&tree);
  DictionaryAttack attack(M);
  Rng rng(11);
  for (uint64_t n : {1ULL, 50ULL, 500ULL, 3000ULL}) {
    const auto members = GenerateUniformSet(M, n, &rng).value();
    const BloomFilter query = tree.MakeQueryFilter(members);

    tree.set_query_threads(1);
    OpCounters serial_counters;
    const auto serial = reconstructor.Reconstruct(
        query, &serial_counters, BstReconstructor::PruningMode::kExact);
    EXPECT_EQ(serial, attack.Reconstruct(query)) << "n=" << n;

    // 0 = hardware concurrency, the default. min_parallel_work 0 forces
    // the pool engaged (so the concurrent path is exercised even on a
    // single-core host); the default gate may decline it — either way
    // output and op totals must not move.
    for (uint64_t gate : {uint64_t{0}, TreeConfig{}.min_parallel_work}) {
      tree.set_min_parallel_work(gate);
      for (uint32_t threads : {2u, 7u, 0u}) {
        tree.set_query_threads(threads);
        OpCounters counters;
        const auto parallel = reconstructor.Reconstruct(
            query, &counters, BstReconstructor::PruningMode::kExact);
        EXPECT_EQ(parallel, serial) << "n=" << n << " threads=" << threads
                                    << " gate=" << gate;
        // The parallel traversal tests exactly the same node set and scans
        // exactly the same leaves — op totals must match, not just output.
        EXPECT_EQ(counters.nodes_visited, serial_counters.nodes_visited);
        EXPECT_EQ(counters.intersections, serial_counters.intersections);
        EXPECT_EQ(counters.membership_queries,
                  serial_counters.membership_queries);
      }
    }
    tree.set_min_parallel_work(TreeConfig{}.min_parallel_work);
  }
}

TEST(QueryDeterminismTest, PrunedTreeReconstructionAcrossThreadCounts) {
  const uint64_t M = 20000;
  Rng rng(5);
  auto occupied = GenerateClusteredSet(M, 1500, &rng).value();
  auto tree =
      BloomSampleTree::BuildPruned(Config(M, 9000, 6), occupied).value();
  BstReconstructor reconstructor(&tree);

  const auto members = GenerateUniformSet(M, 300, &rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);
  tree.set_query_threads(1);
  const auto serial = reconstructor.Reconstruct(query);
  tree.set_min_parallel_work(0);  // force the pool engaged
  for (uint32_t threads : {2u, 7u, 0u}) {
    tree.set_query_threads(threads);
    EXPECT_EQ(reconstructor.Reconstruct(query), serial)
        << "threads=" << threads;
  }
}

/// DictionaryAttack over [0, M) restricted to `occupied` (sorted).
std::vector<uint64_t> OccupiedDictionaryAttack(
    uint64_t namespace_size, const std::vector<uint64_t>& occupied,
    const BloomFilter& query) {
  const std::vector<uint64_t> attack =
      DictionaryAttack(namespace_size).Reconstruct(query);
  std::vector<uint64_t> out;
  std::set_intersection(attack.begin(), attack.end(), occupied.begin(),
                        occupied.end(), std::back_inserter(out));
  return out;
}

TEST(QueryDeterminismTest, ExactIndexIdenticalAcrossLoadsTiersAndThreads) {
  const uint64_t M = 20000;
  Rng rng(53);
  const auto occupied = GenerateUniformSet(M, 2000, &rng).value();
  auto built =
      BloomSampleTree::BuildPruned(Config(M, 9000, 6), occupied).value();
  const std::string path = ::testing::TempDir() + "/exact_index.bst";
  std::remove(path.c_str());
  ASSERT_TRUE(SaveTreeToFile(built, path).ok());

  std::vector<BloomFilter> queries;
  std::vector<std::vector<uint64_t>> references;
  for (bool clustered : {false, true}) {
    const auto picks =
        clustered ? GenerateClusteredSet(occupied.size(), 300, &rng).value()
                  : GenerateUniformSet(occupied.size(), 300, &rng).value();
    std::vector<uint64_t> members;
    for (uint64_t i : picks) members.push_back(occupied[i]);
    queries.push_back(built.MakeQueryFilter(members));
    references.push_back(
        OccupiedDictionaryAttack(M, occupied, queries.back()));
  }

  const simd::Level original = simd::ActiveLevel();
  for (LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
    LoadOptions options;
    options.mode = mode;
    auto loaded = LoadTreeFromFile(path, options);
    if (!loaded.ok() && mode == LoadMode::kMmap) continue;  // no mmap here
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    BloomSampleTree& tree = loaded.value();
    const BstReconstructor reconstructor(&tree);
    for (size_t q = 0; q < queries.size(); ++q) {
      // The loaded tree has its own family: rebuild the filter on it.
      BloomFilter query = tree.MakeQueryFilter();
      query.mutable_bits().OrWith(queries[q].bits());
      for (simd::Level level :
           {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
        if (!simd::LevelSupported(level)) continue;
        simd::ForceLevel(level);
        const QueryContext ctx(tree, query);
        for (uint32_t threads : {1u, 2u, 0u}) {
          tree.set_query_threads(threads);
          const std::string what =
              "mode=" + std::to_string(static_cast<int>(mode)) +
              " tier=" + simd::LevelName(level) +
              " threads=" + std::to_string(threads) + " q=" +
              std::to_string(q);
          EXPECT_EQ(reconstructor.Reconstruct(
                        query, nullptr, BstReconstructor::PruningMode::kExact),
                    references[q])
              << what;
          EXPECT_EQ(reconstructor.Reconstruct(
                        ctx, nullptr, BstReconstructor::PruningMode::kExact),
                    references[q])
              << what << " (caching context)";
          EXPECT_EQ(reconstructor.Reconstruct(
                        query, nullptr,
                        BstReconstructor::PruningMode::kThresholded),
                    references[q])
              << what << " (threshold-0 traversal)";
        }
      }
    }
  }
  simd::ForceLevel(original);
  std::remove(path.c_str());
}

TEST(QueryDeterminismTest, ForestExactIndexMatchesTraversal) {
  const uint64_t M = 20000;
  Rng rng(59);
  const auto occupied = GenerateUniformSet(M, 2000, &rng).value();
  const auto picks = GenerateClusteredSet(occupied.size(), 300, &rng).value();
  std::vector<uint64_t> members;
  for (uint64_t i : picks) members.push_back(occupied[i]);
  for (uint32_t shards : {1u, 4u}) {
    ForestConfig config;
    config.tree = Config(M, 9000, 6);
    config.shards = shards;
    auto forest = BloomSampleForest::BuildPruned(config, occupied);
    ASSERT_TRUE(forest.ok()) << forest.status().ToString();
    const BloomFilter query = forest.value().MakeQueryFilter(members);
    const auto reference = OccupiedDictionaryAttack(M, occupied, query);
    const ForestQueryContext ctx(forest.value(), query);
    const ForestReconstructor reconstructor(&forest.value());
    for (int pass = 0; pass < 2; ++pass) {  // cold, then cached answers
      OpCounters counters;
      EXPECT_EQ(reconstructor.Reconstruct(
                    ctx, &counters, BstReconstructor::PruningMode::kExact),
                reference)
          << "shards=" << shards << " pass=" << pass;
      EXPECT_EQ(counters.nodes_visited, 0u) << "shards=" << shards;
      if (pass == 1) {
        EXPECT_EQ(counters.membership_queries, 0u) << "shards=" << shards;
      }
    }
    EXPECT_EQ(reconstructor.Reconstruct(
                  ctx, nullptr, BstReconstructor::PruningMode::kThresholded),
              reference)
        << "shards=" << shards << " (threshold-0 traversal)";
  }
}

TEST(QueryDeterminismTest, SamplerIdenticalAcrossKernels) {
  const uint64_t M = 20000;
  const auto tree = BloomSampleTree::BuildComplete(Config(M, 9000, 5)).value();
  BstSampler sampler(&tree);
  Rng set_rng(17);
  const auto members = GenerateUniformSet(M, 400, &set_rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);

  const auto draw_sequence = [&](IntersectKernel kernel) {
    QueryContext ctx(tree, query, kernel);
    Rng rng(123);
    std::vector<uint64_t> draws;
    for (int i = 0; i < 200; ++i) {
      const auto sample = sampler.Sample(&ctx, &rng);
      draws.push_back(sample.has_value() ? *sample : ~0ULL);
    }
    return draws;
  };

  const auto dense = draw_sequence(IntersectKernel::kDense);
  EXPECT_EQ(draw_sequence(IntersectKernel::kSparse), dense);
  EXPECT_EQ(draw_sequence(IntersectKernel::kAuto), dense);

  // The filter-overload path (fresh context per call) must match too.
  Rng rng(123);
  std::vector<uint64_t> legacy;
  for (int i = 0; i < 200; ++i) {
    const auto sample = sampler.Sample(query, &rng);
    legacy.push_back(sample.has_value() ? *sample : ~0ULL);
  }
  EXPECT_EQ(legacy, dense);
}

TEST(QueryDeterminismTest, SampleManyIdenticalAcrossKernels) {
  const uint64_t M = 20000;
  const auto tree = BloomSampleTree::BuildComplete(Config(M, 9000, 5)).value();
  BstSampler sampler(&tree);
  Rng set_rng(23);
  const auto members = GenerateUniformSet(M, 400, &set_rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);

  for (bool with_replacement : {false, true}) {
    QueryContext dense_ctx(tree, query, IntersectKernel::kDense);
    QueryContext sparse_ctx(tree, query, IntersectKernel::kSparse);
    Rng dense_rng(7);
    Rng sparse_rng(7);
    OpCounters dense_counters;
    OpCounters sparse_counters;
    const auto dense = sampler.SampleMany(&dense_ctx, 64, &dense_rng,
                                          with_replacement, &dense_counters);
    const auto sparse = sampler.SampleMany(&sparse_ctx, 64, &sparse_rng,
                                           with_replacement, &sparse_counters);
    EXPECT_EQ(dense, sparse);
    // Same work, attributed to the other kernel counter.
    EXPECT_EQ(dense_counters.intersections, sparse_counters.intersections);
    EXPECT_EQ(dense_counters.intersections,
              dense_counters.dense_intersections);
    EXPECT_EQ(sparse_counters.intersections,
              sparse_counters.sparse_intersections);
    EXPECT_EQ(dense_counters.membership_queries,
              sparse_counters.membership_queries);
  }
}

TEST(QueryDeterminismTest, ReconstructorContextOverloadMatchesFilter) {
  const uint64_t M = 20000;
  auto tree = BloomSampleTree::BuildComplete(Config(M, 9000, 5)).value();
  BstReconstructor reconstructor(&tree);
  Rng rng(29);
  const auto members = GenerateUniformSet(M, 200, &rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);
  const QueryContext ctx(tree, query);
  EXPECT_EQ(reconstructor.Reconstruct(ctx), reconstructor.Reconstruct(query));
}

// Serial reference for SampleBatch: N independent Sample calls, draw i on
// its counter-based stream. Uses a caching context by default — caching
// must never change a draw.
std::vector<std::optional<uint64_t>> SerialStreamDraws(
    const BstSampler& sampler, const BloomSampleTree& tree,
    const BloomFilter& query, size_t r, uint64_t seed,
    bool cache = true) {
  QueryContext ctx(tree, query, IntersectKernel::kAuto, cache);
  std::vector<std::optional<uint64_t>> draws;
  draws.reserve(r);
  for (size_t i = 0; i < r; ++i) {
    Rng rng = Rng::ForStream(seed, i);
    draws.push_back(sampler.Sample(&ctx, &rng));
  }
  return draws;
}

TEST(QueryDeterminismTest, SampleBatchMatchesSerialDrawForDraw) {
  const uint64_t M = 20000;
  auto tree = BloomSampleTree::BuildComplete(Config(M, 9000, 5)).value();
  const BstSampler sampler(&tree);
  Rng set_rng(31);
  const auto members = GenerateUniformSet(M, 400, &set_rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);
  const size_t kDraws = 500;
  const uint64_t kSeed = 97;

  const auto serial =
      SerialStreamDraws(sampler, tree, query, kDraws, kSeed);
  // The draws must not all be the same element (sanity that the streams
  // are actually independent).
  bool varied = false;
  for (const auto& d : serial) {
    if (d.has_value() && d != serial.front()) varied = true;
  }
  EXPECT_TRUE(varied);

  // Caching off must not change serial draws either.
  EXPECT_EQ(SerialStreamDraws(sampler, tree, query, kDraws, kSeed,
                              /*cache=*/false),
            serial);

  for (uint64_t gate : {uint64_t{0}, TreeConfig{}.min_parallel_work}) {
    tree.set_min_parallel_work(gate);
    for (uint32_t threads : {1u, 2u, 7u, 0u}) {
      tree.set_query_threads(threads);
      QueryContext ctx(tree, query);
      EXPECT_EQ(sampler.SampleBatch(&ctx, kDraws, kSeed), serial)
          << "threads=" << threads << " gate=" << gate;
      // A warm context must reproduce the batch exactly (only the work
      // changes: everything is served from the caches).
      OpCounters warm;
      EXPECT_EQ(sampler.SampleBatch(&ctx, kDraws, kSeed, &warm), serial)
          << "warm threads=" << threads << " gate=" << gate;
      EXPECT_EQ(warm.intersections, 0u) << "threads=" << threads;
      EXPECT_EQ(warm.membership_queries, 0u) << "threads=" << threads;
      EXPECT_GT(warm.estimate_cache_hits, 0u);
    }
  }
  tree.set_min_parallel_work(TreeConfig{}.min_parallel_work);
  tree.set_query_threads(0);

  // Batch-size independence: a prefix batch is a prefix of the draws.
  QueryContext ctx(tree, query);
  const auto small = sampler.SampleBatch(&ctx, 37, kSeed);
  for (size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i], serial[i]) << "i=" << i;
  }

  // A non-caching context falls back to a serial grouped descent — same
  // draws.
  QueryContext uncached(tree, query, IntersectKernel::kAuto, /*cache=*/false);
  EXPECT_EQ(sampler.SampleBatch(&uncached, kDraws, kSeed), serial);
}

TEST(QueryDeterminismTest, SampleBatchIdenticalAcrossSimdTiers) {
  const uint64_t M = 20000;
  auto tree = BloomSampleTree::BuildComplete(Config(M, 9000, 5)).value();
  const BstSampler sampler(&tree);
  Rng set_rng(37);
  const auto members = GenerateUniformSet(M, 300, &set_rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);
  const size_t kDraws = 200;
  const uint64_t kSeed = 41;

  const simd::Level original = simd::ActiveLevel();
  const auto reference = [&] {
    simd::ForceLevel(simd::Level::kScalar);
    QueryContext ctx(tree, query);
    return sampler.SampleBatch(&ctx, kDraws, kSeed);
  }();
  for (simd::Level level : {simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (!simd::LevelSupported(level)) continue;
    simd::ForceLevel(level);
    QueryContext ctx(tree, query);
    EXPECT_EQ(sampler.SampleBatch(&ctx, kDraws, kSeed), reference)
        << "tier=" << simd::LevelName(level);
  }
  simd::ForceLevel(original);
}

TEST(QueryDeterminismTest, SampleBatchChiSquaredUniform) {
  // The paper's Table 5 protocol on batched draws: T = 130·|S ∪ S(B)|
  // samples must not reject uniformity. Deterministic seeds — this is a
  // regression fence, not a statistical experiment. The parameters sit
  // deliberately in the regime where Proposition 5.2 actually promises
  // near-uniformity (table05's measured finding: it needs many elements
  // per leaf and estimator noise √(t1·t2/m) well below the per-element
  // signal): 4 leaves, ~250 members each, m large enough that the branch
  // estimates are near-exact — descent probabilities then match leaf
  // populations to a fraction of a percent, which the 130·n-round test
  // cannot distinguish from uniform.
  const uint64_t M = 20000;
  auto tree = BloomSampleTree::BuildComplete(Config(M, 2000000, 2)).value();
  const BstSampler sampler(&tree);
  Rng set_rng(43);
  const auto members = GenerateUniformSet(M, 1000, &set_rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);

  const BstReconstructor reconstructor(&tree);
  const auto population = reconstructor.Reconstruct(
      query, nullptr, BstReconstructor::PruningMode::kExact);
  ASSERT_GE(population.size(), members.size());

  QueryContext ctx(tree, query);
  const size_t rounds = RecommendedSampleRounds(population.size());
  const auto draws = sampler.SampleBatch(&ctx, rounds, /*seed=*/7);
  std::vector<uint64_t> samples;
  samples.reserve(draws.size());
  for (const auto& draw : draws) {
    ASSERT_TRUE(draw.has_value());  // every member reachable, no nulls here
    samples.push_back(*draw);
  }
  const auto result = ChiSquaredUniformTest(population, samples);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().RejectsUniformity(0.08))
      << "p=" << result.value().p_value;
}

/// The tree bsrd serves in the e2e benchmark: M = 1e6 at
/// MakeConfigForAccuracy(0.9, n = 1000, k = 3), 10% of ids occupied.
struct PaperPrunedTree {
  std::vector<uint64_t> occupied;
  BloomSampleTree tree;
};

PaperPrunedTree BuildPaperPrunedTree(uint64_t seed) {
  const uint64_t M = 1000000;
  auto config = MakeConfigForAccuracy(0.9, /*n=*/1000, /*k=*/3, M,
                                      HashFamilyKind::kSimple,
                                      TreeConfig().seed);
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  Rng rng(seed);
  std::vector<uint64_t> occupied = GenerateUniformSet(M, M / 10, &rng).value();
  auto tree = BloomSampleTree::BuildPruned(config.value(), occupied);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return {std::move(occupied), std::move(tree).value()};
}

/// One SampleBatch(64) and one SampleBatchPrepared(64) on the same
/// streams, with their op totals.
struct WarmPass {
  std::vector<std::optional<uint64_t>> batch;
  std::vector<std::optional<uint64_t>> prepared;
  OpCounters batch_counters;
  OpCounters prepared_counters;
};

std::vector<std::optional<uint64_t>> Prepared64(const BstSampler& sampler,
                                                QueryContext* ctx,
                                                uint64_t seed,
                                                OpCounters* counters) {
  std::vector<BstSampler::PreparedDraw> draws;
  for (uint32_t i = 0; i < 64; ++i) {
    draws.push_back({i, Rng::ForStream(seed, i)});
  }
  std::vector<std::optional<uint64_t>> out(64);
  sampler.SampleBatchPrepared(ctx, std::move(draws), counters, &out);
  return out;
}

/// Fresh: each entry point on its own new context. Warm: both on one
/// context that three earlier batches have filled.
WarmPass RunPass(const BloomSampleTree& tree, const BloomFilter& query,
                 bool warm, uint64_t seed) {
  const BstSampler sampler(&tree);
  WarmPass pass;
  QueryContext shared(tree, query);
  if (warm) {
    for (uint64_t earlier = 1; earlier <= 3; ++earlier) {
      (void)sampler.SampleBatch(&shared, 64, seed + earlier);
    }
  }
  QueryContext fresh_batch(tree, query);
  QueryContext fresh_prepared(tree, query);
  pass.batch = sampler.SampleBatch(warm ? &shared : &fresh_batch, 64, seed,
                                   &pass.batch_counters);
  pass.prepared = Prepared64(sampler, warm ? &shared : &fresh_prepared, seed,
                             &pass.prepared_counters);
  return pass;
}

/// `with_hits` false skips estimate_cache_hits: each SampleBatch lane
/// resolves the top of the tree for its own chunk of draws, so the number
/// of cache reads depends on the lane count. Every other total — kernels,
/// misses, scans, visits — counts per draw or once per (node, context).
void ExpectSameCounters(const OpCounters& a, const OpCounters& b,
                        bool with_hits, const std::string& what) {
  EXPECT_EQ(a.nodes_visited, b.nodes_visited) << what;
  EXPECT_EQ(a.intersections, b.intersections) << what;
  EXPECT_EQ(a.intersection_bytes, b.intersection_bytes) << what;
  if (with_hits) EXPECT_EQ(a.estimate_cache_hits, b.estimate_cache_hits) << what;
  EXPECT_EQ(a.estimate_cache_misses, b.estimate_cache_misses) << what;
  EXPECT_EQ(a.membership_queries, b.membership_queries) << what;
  EXPECT_EQ(a.backtracks, b.backtracks) << what;
  EXPECT_EQ(a.null_samples, b.null_samples) << what;
}

TEST(QueryDeterminismTest, WarmPassMatchesFreshAcrossThreadsTiersAndLoads) {
  PaperPrunedTree built = BuildPaperPrunedTree(61);
  const std::string path = ::testing::TempDir() + "/warm_pass.bst";
  std::remove(path.c_str());
  ASSERT_TRUE(SaveTreeToFile(built.tree, path).ok());
  Rng rng(67);
  std::vector<uint64_t> members;
  for (uint64_t i :
       GenerateUniformSet(built.occupied.size(), 1000, &rng).value()) {
    members.push_back(built.occupied[i]);
  }
  const uint64_t kSeed = 71;
  const uint32_t kThreads[] = {1, 4};

  // Per state (fresh, warm) and thread count: the first configuration's
  // pass, which every other tier and load mode must repeat exactly.
  std::optional<WarmPass> reference[2][2];
  const simd::Level original = simd::ActiveLevel();
  for (LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
    LoadOptions options;
    options.mode = mode;
    auto loaded = LoadTreeFromFile(path, options);
    if (!loaded.ok() && mode == LoadMode::kMmap) continue;  // no mmap here
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    BloomSampleTree& tree = loaded.value();
    const BloomFilter query = tree.MakeQueryFilter(members);
    tree.set_min_parallel_work(0);  // 4 threads really run 4 lanes
    for (simd::Level level :
         {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
      if (!simd::LevelSupported(level)) continue;
      simd::ForceLevel(level);
      for (int t = 0; t < 2; ++t) {
        tree.set_query_threads(kThreads[t]);
        for (const int warm : {0, 1}) {
          const std::string what =
              "mode=" + std::to_string(static_cast<int>(mode)) +
              " tier=" + simd::LevelName(level) +
              " threads=" + std::to_string(kThreads[t]) +
              (warm ? " warm" : " fresh");
          const WarmPass pass = RunPass(tree, query, warm == 1, kSeed);
          EXPECT_EQ(pass.prepared, pass.batch) << what;
          std::optional<WarmPass>& ref = reference[warm][t];
          if (!ref.has_value()) ref = pass;
          const WarmPass& serial =
              reference[warm][0].has_value() ? *reference[warm][0] : pass;
          EXPECT_EQ(pass.batch, serial.batch) << what;
          ExpectSameCounters(pass.batch_counters, ref->batch_counters,
                             /*with_hits=*/true, what + " batch");
          ExpectSameCounters(pass.batch_counters, serial.batch_counters,
                             /*with_hits=*/false, what + " batch vs serial");
          ExpectSameCounters(pass.prepared_counters, serial.prepared_counters,
                             /*with_hits=*/true, what + " prepared");
        }
      }
    }
  }
  simd::ForceLevel(original);
  std::remove(path.c_str());
  ASSERT_TRUE(reference[0][0].has_value() && reference[1][0].has_value());
  // A warm context changes only the work, never a draw.
  EXPECT_EQ(reference[1][0]->batch, reference[0][0]->batch);
  EXPECT_LT(reference[1][0]->batch_counters.intersections,
            reference[0][0]->batch_counters.intersections);
  size_t drawn = 0;
  for (const auto& draw : reference[0][0]->batch) drawn += draw.has_value();
  EXPECT_GT(drawn, 32u);
}

TEST(QueryDeterminismTest, ThresholdChangeTakesEffectOnAWarmContext) {
  PaperPrunedTree built = BuildPaperPrunedTree(73);
  BloomSampleTree& tree = built.tree;
  const BstSampler sampler(&tree);
  const BstReconstructor reconstructor(&tree);
  Rng rng(79);
  std::vector<uint64_t> members;
  for (uint64_t i :
       GenerateUniformSet(built.occupied.size(), 1000, &rng).value()) {
    members.push_back(built.occupied[i]);
  }
  const BloomFilter query = tree.MakeQueryFilter(members);
  const uint64_t kSeed = 83;
  const auto fresh_at = [&](double threshold) {
    tree.set_intersection_threshold(threshold);
    QueryContext ctx(tree, query);
    return sampler.SampleBatch(&ctx, 64, kSeed);
  };
  const auto fresh_recon_at = [&](double threshold) {
    tree.set_intersection_threshold(threshold);
    return reconstructor.Reconstruct(
        query, nullptr, BstReconstructor::PruningMode::kThresholded);
  };
  const double kThreshold = 3.0;
  const auto open = fresh_at(0.0);
  const auto cut = fresh_at(kThreshold);
  const auto open_recon = fresh_recon_at(0.0);
  const auto cut_recon = fresh_recon_at(kThreshold);
  // Not vacuous: the threshold moves draws and prunes reconstruction.
  ASSERT_NE(cut, open);
  ASSERT_NE(cut_recon, open_recon);

  tree.set_intersection_threshold(0.0);
  QueryContext warm(tree, query);
  for (uint64_t earlier = 1; earlier <= 3; ++earlier) {
    (void)sampler.SampleBatch(&warm, 64, kSeed + earlier);
  }
  (void)reconstructor.Reconstruct(warm, nullptr,
                                  BstReconstructor::PruningMode::kThresholded);
  EXPECT_EQ(sampler.SampleBatch(&warm, 64, kSeed), open);
  tree.set_intersection_threshold(kThreshold);
  EXPECT_EQ(sampler.SampleBatch(&warm, 64, kSeed), cut);
  EXPECT_EQ(Prepared64(sampler, &warm, kSeed, nullptr), cut);
  EXPECT_EQ(reconstructor.Reconstruct(
                warm, nullptr, BstReconstructor::PruningMode::kThresholded),
            cut_recon);
  tree.set_intersection_threshold(0.0);
  EXPECT_EQ(sampler.SampleBatch(&warm, 64, kSeed), open);
  EXPECT_EQ(reconstructor.Reconstruct(
                warm, nullptr, BstReconstructor::PruningMode::kThresholded),
            open_recon);
}

TEST(QueryDeterminismTest, EstimateCacheAmortizesRepeatedTraversals) {
  const uint64_t M = 20000;
  auto tree = BloomSampleTree::BuildComplete(Config(M, 9000, 5)).value();
  const BstReconstructor reconstructor(&tree);
  const BstSampler sampler(&tree);
  Rng rng(47);
  const auto members = GenerateUniformSet(M, 250, &rng).value();
  const BloomFilter query = tree.MakeQueryFilter(members);

  QueryContext ctx(tree, query);
  OpCounters cold;
  const auto first = reconstructor.Reconstruct(
      ctx, &cold, BstReconstructor::PruningMode::kExact);
  // Every node test ran a kernel and recorded it: misses == kernel
  // intersections, no hits yet.
  EXPECT_EQ(cold.estimate_cache_misses, cold.intersections);
  EXPECT_EQ(cold.estimate_cache_hits, 0u);
  EXPECT_GT(cold.membership_queries, 0u);

  OpCounters warm;
  const auto second = reconstructor.Reconstruct(
      ctx, &warm, BstReconstructor::PruningMode::kExact);
  EXPECT_EQ(second, first);
  // The warm traversal re-derives every decision from the cache: zero
  // kernels, zero scans, one hit per node test.
  EXPECT_EQ(warm.intersections, 0u);
  EXPECT_EQ(warm.estimate_cache_misses, 0u);
  EXPECT_EQ(warm.membership_queries, 0u);
  EXPECT_EQ(warm.estimate_cache_hits, cold.estimate_cache_misses);
  EXPECT_EQ(warm.nodes_visited, cold.nodes_visited);

  // One cache serves both algorithms: a sampler descent on the
  // reconstructor-warmed context touches no filter words either.
  OpCounters sample_counters;
  Rng draw_rng(3);
  const auto draw = sampler.Sample(&ctx, &draw_rng, &sample_counters);
  EXPECT_TRUE(draw.has_value());
  EXPECT_EQ(sample_counters.intersections, 0u);
  EXPECT_EQ(sample_counters.membership_queries, 0u);
  EXPECT_GT(sample_counters.estimate_cache_hits, 0u);
}

}  // namespace
}  // namespace bloomsample
