#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "src/bloom/bloom_io.h"
#include "src/core/bst_reconstructor.h"
#include "src/core/bst_sampler.h"
#include "src/core/tree_io.h"
#include "src/util/serialize.h"
#include "src/workload/set_generators.h"

namespace bloomsample {
namespace {

TEST(BinaryIoTest, PrimitivesRoundTrip) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU32(0xdeadbeefu);
  writer.WriteU64(0x0123456789abcdefULL);
  writer.WriteI64(-42);
  writer.WriteDouble(3.14159);
  writer.WriteU64Vector({1, 2, 3});
  ASSERT_TRUE(writer.ok());

  BinaryReader reader(&stream);
  EXPECT_EQ(reader.ReadU32().value(), 0xdeadbeefu);
  EXPECT_EQ(reader.ReadU64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.ReadI64().value(), -42);
  EXPECT_DOUBLE_EQ(reader.ReadDouble().value(), 3.14159);
  EXPECT_EQ(reader.ReadU64Vector(10).value(),
            (std::vector<uint64_t>{1, 2, 3}));
}

TEST(BinaryIoTest, TruncationIsDetected) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU32(7);
  BinaryReader reader(&stream);
  ASSERT_TRUE(reader.ReadU32().ok());
  EXPECT_FALSE(reader.ReadU64().ok());
}

TEST(BinaryIoTest, VectorSanityBound) {
  std::stringstream stream;
  BinaryWriter writer(&stream);
  writer.WriteU64Vector({1, 2, 3, 4, 5});
  BinaryReader reader(&stream);
  EXPECT_EQ(reader.ReadU64Vector(4).status().code(),
            Status::Code::kOutOfRange);
}

TEST(BloomIoTest, FilterRoundTrips) {
  auto family =
      MakeHashFamily(HashFamilyKind::kSimple, 3, 9000, 42, 100000).value();
  BloomFilter filter(family);
  Rng rng(1);
  for (int i = 0; i < 400; ++i) filter.Insert(rng.Below(100000));

  std::stringstream stream;
  ASSERT_TRUE(SerializeBloomFilter(filter, &stream).ok());
  const auto loaded = DeserializeBloomFilter(&stream, family);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), filter);
}

TEST(BloomIoTest, FingerprintMismatchRejected) {
  auto family =
      MakeHashFamily(HashFamilyKind::kSimple, 3, 9000, 42, 100000).value();
  BloomFilter filter(family);
  filter.Insert(5);
  std::stringstream stream;
  ASSERT_TRUE(SerializeBloomFilter(filter, &stream).ok());

  // Wrong m.
  auto other_m =
      MakeHashFamily(HashFamilyKind::kSimple, 3, 9001, 42, 100000).value();
  EXPECT_FALSE(DeserializeBloomFilter(&stream, other_m).ok());

  // Wrong seed.
  stream.clear();
  stream.seekg(0);
  auto other_seed =
      MakeHashFamily(HashFamilyKind::kSimple, 3, 9000, 43, 100000).value();
  EXPECT_FALSE(DeserializeBloomFilter(&stream, other_seed).ok());

  // Wrong family kind.
  stream.clear();
  stream.seekg(0);
  auto other_kind =
      MakeHashFamily(HashFamilyKind::kMurmur3, 3, 9000, 42, 100000).value();
  EXPECT_FALSE(DeserializeBloomFilter(&stream, other_kind).ok());
}

TEST(BloomIoTest, GarbageStreamRejected) {
  std::stringstream stream("this is not a filter");
  auto family =
      MakeHashFamily(HashFamilyKind::kSimple, 3, 9000, 42, 100000).value();
  EXPECT_FALSE(DeserializeBloomFilter(&stream, family).ok());
}

TreeConfig IoConfig(uint64_t M = 4096, uint64_t m = 6000, uint32_t depth = 4) {
  TreeConfig config;
  config.namespace_size = M;
  config.m = m;
  config.k = 3;
  config.hash_kind = HashFamilyKind::kSimple;
  config.seed = 42;
  config.depth = depth;
  return config;
}

TEST(TreeIoTest, CompleteTreeRoundTrips) {
  const auto tree = BloomSampleTree::BuildComplete(IoConfig()).value();
  std::stringstream stream;
  ASSERT_TRUE(SerializeTree(tree, &stream).ok());
  const auto loaded = DeserializeTree(&stream);
  ASSERT_TRUE(loaded.ok());

  EXPECT_EQ(loaded.value().node_count(), tree.node_count());
  EXPECT_EQ(loaded.value().pruned(), tree.pruned());
  EXPECT_EQ(loaded.value().config().m, tree.config().m);
  for (size_t id = 0; id < tree.node_count(); ++id) {
    const auto& a = tree.node(static_cast<int64_t>(id));
    const auto& b = loaded.value().node(static_cast<int64_t>(id));
    EXPECT_EQ(a.lo, b.lo);
    EXPECT_EQ(a.hi, b.hi);
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.left, b.left);
    EXPECT_EQ(a.right, b.right);
    EXPECT_EQ(a.set_bits, b.set_bits);
    EXPECT_EQ(a.filter.bits(), b.filter.bits());
  }
}

TEST(TreeIoTest, PrunedTreeRoundTripsWithOccupancy) {
  Rng rng(2);
  const auto occupied = GenerateUniformSet(4096, 150, &rng).value();
  const auto tree = BloomSampleTree::BuildPruned(IoConfig(), occupied).value();
  std::stringstream stream;
  ASSERT_TRUE(SerializeTree(tree, &stream).ok());
  auto loaded = DeserializeTree(&stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().pruned());
  EXPECT_EQ(loaded.value().OccupiedIds(), occupied);
  // The loaded tree remains dynamic.
  EXPECT_TRUE(loaded.value().Insert(occupied.back() - 1).ok() ||
              true /* id may already be occupied */);
}

TEST(TreeIoTest, LoadedTreeAnswersIdenticallyToOriginal) {
  const auto tree = BloomSampleTree::BuildComplete(IoConfig()).value();
  std::stringstream stream;
  ASSERT_TRUE(SerializeTree(tree, &stream).ok());
  const auto loaded = DeserializeTree(&stream);
  ASSERT_TRUE(loaded.ok());

  Rng rng(3);
  const auto members = GenerateUniformSet(4096, 60, &rng).value();
  const BloomFilter query_original = tree.MakeQueryFilter(members);
  const BloomFilter query_loaded = loaded.value().MakeQueryFilter(members);

  BstReconstructor original(&tree);
  BstReconstructor reloaded(&loaded.value());
  EXPECT_EQ(original.Reconstruct(query_original, nullptr,
                                 BstReconstructor::PruningMode::kExact),
            reloaded.Reconstruct(query_loaded, nullptr,
                                 BstReconstructor::PruningMode::kExact));
}

TEST(TreeIoTest, FilterSavedAgainstTreeFamilyReloads) {
  const auto tree = BloomSampleTree::BuildComplete(IoConfig()).value();
  const BloomFilter query = tree.MakeQueryFilter({1, 2, 3});
  std::stringstream stream;
  ASSERT_TRUE(SerializeBloomFilter(query, &stream).ok());
  const auto loaded = DeserializeBloomFilter(&stream, tree.family_ptr());
  ASSERT_TRUE(loaded.ok());
  // The loaded filter is a first-class query filter for the tree.
  BstSampler sampler(&tree);
  Rng rng(4);
  const auto sample = sampler.Sample(loaded.value(), &rng);
  ASSERT_TRUE(sample.has_value());
  EXPECT_TRUE(query.Contains(*sample));
}

TEST(TreeIoTest, FileRoundTrip) {
  const auto tree = BloomSampleTree::BuildComplete(IoConfig()).value();
  const std::string path = ::testing::TempDir() + "/bsr_tree_io_test.bst";
  ASSERT_TRUE(SaveTreeToFile(tree, path).ok());
  const auto loaded = LoadTreeFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().node_count(), tree.node_count());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadTreeFromFile(path).ok());
}

TEST(TreeIoTest, CorruptStreamsRejected) {
  std::stringstream garbage("BSTRgarbagegarbagegarbage");
  EXPECT_FALSE(DeserializeTree(&garbage).ok());
  std::stringstream wrong_tag("XXXX");
  EXPECT_FALSE(DeserializeTree(&wrong_tag).ok());
  std::stringstream empty;
  EXPECT_FALSE(DeserializeTree(&empty).ok());
}

TEST(TreeIoTest, TruncatedTreeRejected) {
  const auto tree = BloomSampleTree::BuildComplete(IoConfig()).value();
  std::stringstream stream;
  ASSERT_TRUE(SerializeTree(tree, &stream).ok());
  const std::string full = stream.str();
  // Chop at several points: every prefix must be cleanly rejected.
  for (size_t cut : {size_t{5}, size_t{20}, size_t{60}, full.size() / 2,
                     full.size() - 3}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_FALSE(DeserializeTree(&truncated).ok()) << "cut=" << cut;
  }
}

}  // namespace
}  // namespace bloomsample
