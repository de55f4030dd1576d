// Fences for the sharded forest layer:
//   * the shard partition tiles the namespace exactly and ShardOf routes
//     every key to the shard whose slice holds it;
//   * a single-shard forest's one tree IS the bare pruned tree (same
//     nodes, same filters), and forest reconstruction equals bare-tree
//     reconstruction for every shard count;
//   * forest batch sampling is draw-for-draw identical to the serial
//     forest draw loop, and identical across query thread counts, SIMD
//     tiers, and snapshot load modes (heap, mmap) — the sharding, the
//     Fenwick shard pick, and the persistence machinery may only change
//     where work runs, never a single result;
//   * forest samples over the union namespace pass the paper's
//     chi-squared uniformity fence — the weighted shard draw composes
//     with the in-shard descent into one near-uniform sampler;
//   * the 'BSF1' manifest round-trips, and corruption (manifest bytes,
//     missing shard image, wrong shard shape) fails loudly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/core/bloom_sample_forest.h"
#include "src/stats/chi_squared.h"
#include "src/util/rng.h"
#include "src/util/simd.h"

namespace bloomsample {
namespace {

TreeConfig BaseConfig() {
  TreeConfig config;
  config.namespace_size = 4096;
  config.m = 6000;
  config.k = 3;
  config.hash_kind = HashFamilyKind::kSimple;
  config.seed = 42;
  config.depth = 4;
  return config;
}

ForestConfig MakeForestConfig(uint32_t shards) {
  ForestConfig config;
  config.tree = BaseConfig();
  config.shards = shards;
  return config;
}

std::vector<uint64_t> Occupied() {
  std::vector<uint64_t> occupied;
  for (uint64_t x = 5; x < 4096; x += 27) occupied.push_back(x);
  return occupied;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void RemoveForestFiles(const std::string& path, uint32_t shards) {
  std::remove(path.c_str());
  for (uint32_t s = 0; s < shards; ++s) {
    std::remove(ForestShardPath(path, s).c_str());
  }
}

TEST(ForestTest, ShardPartitionTilesTheNamespace) {
  const auto forest =
      BloomSampleForest::BuildPruned(MakeForestConfig(5), Occupied());
  ASSERT_TRUE(forest.ok());
  const BloomSampleForest& f = forest.value();
  EXPECT_EQ(f.shard_width(), (4096 + 4) / 5);

  // Slices tile [0, M) in order.
  uint64_t cursor = 0;
  for (uint32_t s = 0; s < f.shard_count(); ++s) {
    EXPECT_EQ(f.ShardLo(s), cursor);
    EXPECT_GT(f.ShardHi(s), f.ShardLo(s));
    cursor = f.ShardHi(s);
  }
  EXPECT_EQ(cursor, f.config().tree.namespace_size);

  // Every key routes to the slice that holds it, and every occupied key
  // actually lives in its shard's tree.
  for (uint64_t x = 0; x < 4096; x += 13) {
    const uint32_t s = f.ShardOf(x);
    ASSERT_LT(s, f.shard_count());
    EXPECT_GE(x, f.ShardLo(s));
    EXPECT_LT(x, f.ShardHi(s));
  }
  uint64_t total_occupied = 0;
  for (uint32_t s = 0; s < f.shard_count(); ++s) {
    for (uint64_t x : f.shard(s).OccupiedIds()) {
      EXPECT_EQ(f.ShardOf(x), s);
    }
    total_occupied += f.shard(s).occupied_count();
  }
  EXPECT_EQ(total_occupied, Occupied().size());
  EXPECT_EQ(f.occupied_count(), Occupied().size());
}

TEST(ForestTest, SingleShardIsTheBarePrunedTree) {
  const auto forest =
      BloomSampleForest::BuildPruned(MakeForestConfig(1), Occupied());
  const auto bare = BloomSampleTree::BuildPruned(BaseConfig(), Occupied());
  ASSERT_TRUE(forest.ok());
  ASSERT_TRUE(bare.ok());
  const BloomSampleTree& shard = forest.value().shard(0);
  ASSERT_EQ(shard.node_count(), bare.value().node_count());
  EXPECT_EQ(shard.OccupiedIds(), bare.value().OccupiedIds());
  for (size_t id = 0; id < shard.node_count(); ++id) {
    const auto& a = shard.node(static_cast<int64_t>(id));
    const auto& b = bare.value().node(static_cast<int64_t>(id));
    ASSERT_EQ(a.lo, b.lo);
    ASSERT_EQ(a.hi, b.hi);
    ASSERT_EQ(a.set_bits, b.set_bits);
    ASSERT_EQ(a.filter.bits(), b.filter.bits());
  }
}

TEST(ForestTest, ReconstructionMatchesBareTreeForEveryShardCount) {
  const auto bare = BloomSampleTree::BuildPruned(BaseConfig(), Occupied());
  ASSERT_TRUE(bare.ok());
  const std::vector<uint64_t> members = {5, 32, 59, 500, 1000, 2000, 4076};
  const BloomFilter bare_query = bare.value().MakeQueryFilter(members);
  BstReconstructor bare_recon(&bare.value());
  const std::vector<uint64_t> expected = bare_recon.Reconstruct(bare_query);
  ASSERT_FALSE(expected.empty());
  EXPECT_TRUE(std::is_sorted(expected.begin(), expected.end()));

  for (uint32_t shards : {1u, 2u, 4u, 7u}) {
    const auto forest =
        BloomSampleForest::BuildPruned(MakeForestConfig(shards), Occupied());
    ASSERT_TRUE(forest.ok());
    const BloomFilter query = forest.value().MakeQueryFilter(members);
    ForestQueryContext ctx(forest.value(), query);
    ForestReconstructor recon(&forest.value());
    EXPECT_EQ(recon.Reconstruct(ctx), expected) << "shards=" << shards;
  }
}

TEST(ForestTest, CompleteForestReconstructsLikeCompleteTree) {
  TreeConfig small = BaseConfig();
  small.namespace_size = 512;
  small.m = 4000;
  small.depth = 3;
  const auto tree = BloomSampleTree::BuildComplete(small);
  ASSERT_TRUE(tree.ok());
  ForestConfig fc;
  fc.tree = small;
  fc.shards = 3;
  const auto forest = BloomSampleForest::BuildComplete(fc);
  ASSERT_TRUE(forest.ok());
  EXPECT_FALSE(forest.value().pruned());
  EXPECT_EQ(forest.value().occupied_count(), small.namespace_size);

  const std::vector<uint64_t> members = {1, 100, 200, 300, 511};
  BstReconstructor bare_recon(&tree.value());
  const auto expected =
      bare_recon.Reconstruct(tree.value().MakeQueryFilter(members));
  const BloomFilter query = forest.value().MakeQueryFilter(members);
  ForestQueryContext ctx(forest.value(), query);
  ForestReconstructor recon(&forest.value());
  EXPECT_EQ(recon.Reconstruct(ctx), expected);
}

TEST(ForestTest, BatchDrawsEqualSerialDraws) {
  const auto forest =
      BloomSampleForest::BuildPruned(MakeForestConfig(4), Occupied());
  ASSERT_TRUE(forest.ok());
  const std::vector<uint64_t> members = {5, 32, 59, 86, 500, 1000, 3002};
  const BloomFilter query = forest.value().MakeQueryFilter(members);
  ForestSampler sampler(&forest.value());

  constexpr size_t kDraws = 96;
  constexpr uint64_t kSeed = 20170313;
  ForestQueryContext serial_ctx(forest.value(), query);
  std::vector<std::optional<uint64_t>> serial;
  for (size_t i = 0; i < kDraws; ++i) {
    Rng rng = Rng::ForStream(kSeed, i);
    serial.push_back(sampler.Sample(&serial_ctx, &rng));
  }

  ForestQueryContext batch_ctx(forest.value(), query);
  OpCounters counters;
  const auto batch = sampler.SampleBatch(&batch_ctx, kDraws, kSeed, &counters);
  EXPECT_EQ(batch, serial);

  // Every draw lands in the shard that owns it.
  for (const auto& draw : batch) {
    if (!draw.has_value()) continue;
    const uint32_t s = forest.value().ShardOf(*draw);
    const std::vector<uint64_t> occ = forest.value().shard(s).OccupiedIds();
    EXPECT_TRUE(std::binary_search(occ.begin(), occ.end(), *draw));
  }
}

TEST(ForestTest, DrawsIdenticalAcrossThreadsTiersAndLoadModes) {
  const ForestConfig fc = MakeForestConfig(4);
  const auto built = BloomSampleForest::BuildPruned(fc, Occupied());
  ASSERT_TRUE(built.ok());
  const std::vector<uint64_t> members = {5, 32, 59, 500, 1000, 2000, 4076};
  constexpr size_t kDraws = 64;
  constexpr uint64_t kSeed = 7;

  const auto run = [&](BloomSampleForest* forest, uint32_t threads) {
    forest->set_query_threads(threads);
    forest->set_min_parallel_work(0);  // always engage the requested fan-out
    const BloomFilter query = forest->MakeQueryFilter(members);
    ForestQueryContext ctx(*forest, query);
    ForestSampler sampler(forest);
    auto draws = sampler.SampleBatch(&ctx, kDraws, kSeed);
    ForestReconstructor recon(forest);
    auto elements = recon.Reconstruct(ctx);
    return std::make_pair(std::move(draws), std::move(elements));
  };

  auto reference = run(const_cast<BloomSampleForest*>(&built.value()), 1);
  ASSERT_TRUE(std::is_sorted(reference.second.begin(),
                             reference.second.end()));

  const std::string path = TempPath("determinism_forest.bsf");
  ASSERT_TRUE(SaveForestToFile(built.value(), path).ok());

  const simd::Level saved = simd::ActiveLevel();
  for (const simd::Level level :
       {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (simd::ForceLevel(level) != level) continue;
    for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
      LoadOptions options;
      options.mode = mode;
      ForestLoadInfo info;
      auto loaded = LoadForestFromFile(path, options, &info);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ASSERT_EQ(info.shards.size(), fc.shards);
      for (uint32_t threads : {1u, 4u}) {
        EXPECT_EQ(run(&loaded.value(), threads), reference)
            << "simd=" << simd::LevelName(level)
            << " mode=" << static_cast<int>(mode) << " threads=" << threads;
      }
    }
  }
  simd::ForceLevel(saved);
  RemoveForestFiles(path, fc.shards);
}

TEST(ForestTest, SamplesPassTheUniformityFence) {
  // The paper's Table 5 protocol, run through the forest: query for the
  // whole occupied set, draw 130·n samples, and chi-squared-test the
  // counts over the union namespace. This is the fence that the weighted
  // shard draw composes correctly with the in-shard descent — a biased
  // Fenwick pick (e.g. weights ignoring shard occupancy) fails it hard.
  const std::vector<uint64_t> population = Occupied();
  const auto forest =
      BloomSampleForest::BuildPruned(MakeForestConfig(4), population);
  ASSERT_TRUE(forest.ok());
  const BloomFilter query = forest.value().MakeQueryFilter(population);
  ForestQueryContext ctx(forest.value(), query);
  ForestSampler sampler(&forest.value());

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

TEST(ForestTest, SnapshotRoundTripsAndRejectsCorruption) {
  const ForestConfig fc = MakeForestConfig(3);
  const auto built = BloomSampleForest::BuildPruned(fc, Occupied());
  ASSERT_TRUE(built.ok());
  const std::string path = TempPath("roundtrip_forest.bsf");
  ASSERT_TRUE(SaveForestToFile(built.value(), path).ok());
  EXPECT_TRUE(IsForestManifest(path));
  EXPECT_FALSE(IsForestManifest(ForestShardPath(path, 0)));

  auto loaded = LoadForestFromFile(path, LoadOptions{});
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().pruned());
  EXPECT_EQ(loaded.value().shard_count(), fc.shards);
  EXPECT_EQ(loaded.value().node_count(), built.value().node_count());
  EXPECT_EQ(loaded.value().occupied_count(), built.value().occupied_count());
  for (uint32_t s = 0; s < fc.shards; ++s) {
    EXPECT_EQ(loaded.value().shard(s).OccupiedIds(),
              built.value().shard(s).OccupiedIds());
  }

  // Manifest corruption: flip one config byte — the trailing digest
  // catches it before any shard image is opened.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[20] = static_cast<char>(bytes[20] ^ 0x01);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto corrupt = LoadForestFromFile(path, LoadOptions{});
  ASSERT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.status().message().find("manifest checksum"),
            std::string::npos);

  // Re-save, then delete one shard image: the load must fail cleanly.
  ASSERT_TRUE(SaveForestToFile(built.value(), path).ok());
  std::remove(ForestShardPath(path, 1).c_str());
  EXPECT_FALSE(LoadForestFromFile(path, LoadOptions{}).ok());

  RemoveForestFiles(path, fc.shards);
}

TEST(ForestTest, EmptyQueryAndMissShardsDrawNull) {
  const auto forest =
      BloomSampleForest::BuildPruned(MakeForestConfig(4), Occupied());
  ASSERT_TRUE(forest.ok());
  ForestSampler sampler(&forest.value());

  // Empty query: every draw is null, nothing crashes.
  const BloomFilter empty = forest.value().MakeQueryFilter();
  ForestQueryContext empty_ctx(forest.value(), empty);
  OpCounters counters;
  Rng rng(1);
  EXPECT_FALSE(sampler.Sample(&empty_ctx, &rng, &counters).has_value());
  const auto batch = sampler.SampleBatch(&empty_ctx, 8, 1, &counters);
  for (const auto& draw : batch) EXPECT_FALSE(draw.has_value());
  EXPECT_EQ(counters.null_samples, 9u);
  ForestReconstructor recon(&forest.value());
  EXPECT_TRUE(recon.Reconstruct(empty_ctx).empty());

  // A query for keys that are not stored anywhere: weights may be zero or
  // noise-floored; draws must come back null or as false positives of the
  // union namespace — never crash, never invent keys outside it.
  const BloomFilter miss = forest.value().MakeQueryFilter({4090});
  ForestQueryContext miss_ctx(forest.value(), miss);
  const auto miss_batch = sampler.SampleBatch(&miss_ctx, 16, 3);
  for (const auto& draw : miss_batch) {
    if (draw.has_value()) {
      const uint32_t s = forest.value().ShardOf(*draw);
      const std::vector<uint64_t> occ = forest.value().shard(s).OccupiedIds();
      EXPECT_TRUE(std::binary_search(occ.begin(), occ.end(), *draw));
    }
  }
}

TEST(ForestTest, ConfigValidationRejectsBadShardCounts) {
  ForestConfig zero = MakeForestConfig(0);
  EXPECT_FALSE(BloomSampleForest::BuildPruned(zero, Occupied()).ok());
  ForestConfig too_many = MakeForestConfig(1);
  too_many.shards = 5000;  // > namespace_size
  EXPECT_FALSE(BloomSampleForest::BuildComplete(too_many).ok());
  EXPECT_FALSE(
      BloomSampleForest::BuildPruned(MakeForestConfig(2), {9, 3}).ok());
  EXPECT_FALSE(
      BloomSampleForest::BuildPruned(MakeForestConfig(2), {5000}).ok());
}

}  // namespace
}  // namespace bloomsample
