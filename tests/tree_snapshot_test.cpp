// Fences for the v2 snapshot format and its load paths:
//   * the recorded golden v1 streams (tests/data/) must keep loading and
//     must equal a fresh deterministic build — format drift or hash drift
//     breaks deployed tree files, so it must break this test first;
//   * v1 → load → save-v2 → load must reproduce the tree bit for bit, for
//     both slab layouts and both materializations (heap read, mmap);
//   * sampling and reconstruction must be draw-for-draw identical across
//     {built in memory, heap load, mmap load} × {id-order, descent
//     layout} × SIMD tiers × thread counts — the snapshot machinery may
//     only change where filter words live, never a single result;
//   * truncated/corrupt/overflowing snapshots must come back as a clean
//     Status — no partial tree, no abort, no UB (the ASan/UBSan CI job
//     runs this file too);
//   * a tree mmap'ed from disk stays dynamic: Insert copy-on-writes the
//     mapping and must never write through to the snapshot file.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/bst_reconstructor.h"
#include "src/core/bst_sampler.h"
#include "src/core/query_context.h"
#include "src/core/tree_io.h"
#include "src/util/rng.h"
#include "src/util/simd.h"

namespace bloomsample {
namespace {

TreeConfig GoldenConfig() {
  TreeConfig config;
  config.namespace_size = 4096;
  config.m = 6000;
  config.k = 3;
  config.hash_kind = HashFamilyKind::kSimple;
  config.seed = 42;
  config.depth = 4;
  return config;
}

std::vector<uint64_t> GoldenOccupied() {
  std::vector<uint64_t> occupied;
  for (uint64_t x = 5; x < 4096; x += 27) occupied.push_back(x);
  return occupied;
}

std::string GoldenPath(const char* name) {
  return std::string(BSR_TEST_DATA_DIR) + "/" + name;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// Full structural equality: config, occupancy, and every node's geometry,
/// wiring, cached popcount, and filter payload.
void ExpectTreesIdentical(const BloomSampleTree& a, const BloomSampleTree& b) {
  EXPECT_EQ(a.config().namespace_size, b.config().namespace_size);
  EXPECT_EQ(a.config().m, b.config().m);
  EXPECT_EQ(a.config().k, b.config().k);
  EXPECT_EQ(a.config().seed, b.config().seed);
  EXPECT_EQ(a.config().depth, b.config().depth);
  EXPECT_EQ(a.pruned(), b.pruned());
  EXPECT_EQ(a.OccupiedIds(), b.OccupiedIds());
  ASSERT_EQ(a.node_count(), b.node_count());
  for (size_t id = 0; id < a.node_count(); ++id) {
    const auto& na = a.node(static_cast<int64_t>(id));
    const auto& nb = b.node(static_cast<int64_t>(id));
    ASSERT_EQ(na.lo, nb.lo) << "id=" << id;
    ASSERT_EQ(na.hi, nb.hi) << "id=" << id;
    ASSERT_EQ(na.level, nb.level) << "id=" << id;
    ASSERT_EQ(na.left, nb.left) << "id=" << id;
    ASSERT_EQ(na.right, nb.right) << "id=" << id;
    ASSERT_EQ(na.set_bits, nb.set_bits) << "id=" << id;
    ASSERT_EQ(na.filter.bits(), nb.filter.bits()) << "id=" << id;
  }
}

struct QueryOutputs {
  std::vector<std::optional<uint64_t>> batch;
  std::vector<uint64_t> many;
  std::vector<uint64_t> exact;
  std::vector<uint64_t> thresholded;

  bool operator==(const QueryOutputs& other) const {
    return batch == other.batch && many == other.many &&
           exact == other.exact && thresholded == other.thresholded;
  }
};

/// One draw-for-draw reference workload: a 64-draw batch, a 16-draw
/// SampleMany, and both reconstruction modes.
QueryOutputs RunQueries(BloomSampleTree* tree, uint32_t threads) {
  tree->set_query_threads(threads);
  tree->set_min_parallel_work(0);  // always engage the requested fan-out
  const std::vector<uint64_t> members = {3,    7,    100,  101,  514, 999,
                                         1024, 2047, 2048, 3000, 4000};
  const BloomFilter query = tree->MakeQueryFilter(members);
  QueryOutputs out;

  BstSampler sampler(tree);
  QueryContext batch_ctx(*tree, query);
  out.batch = sampler.SampleBatch(&batch_ctx, 64, /*seed=*/2024);
  QueryContext many_ctx(*tree, query);
  Rng rng(77);
  out.many = sampler.SampleMany(&many_ctx, 16, &rng);

  BstReconstructor reconstructor(tree);
  out.exact = reconstructor.Reconstruct(query, nullptr,
                                        BstReconstructor::PruningMode::kExact);
  out.thresholded = reconstructor.Reconstruct(
      query, nullptr, BstReconstructor::PruningMode::kThresholded);
  return out;
}

/// Runs `fn` once per SIMD tier this host supports, restoring the tier.
template <typename Fn>
void ForEachSimdTier(Fn&& fn) {
  const simd::Level saved = simd::ActiveLevel();
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2,
                            simd::Level::kAvx512}) {
    if (simd::ForceLevel(level) != level) continue;
    fn(level);
  }
  simd::ForceLevel(saved);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(TreeSnapshotTest, GoldenV1FilesEqualFreshBuilds) {
  // Complete golden.
  auto golden = LoadTreeFromFile(GoldenPath("golden_tree_v1_complete.bst"));
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  auto fresh = BloomSampleTree::BuildComplete(GoldenConfig());
  ASSERT_TRUE(fresh.ok());
  ExpectTreesIdentical(golden.value(), fresh.value());

  // Pruned golden.
  auto golden_pruned = LoadTreeFromFile(GoldenPath("golden_tree_v1_pruned.bst"));
  ASSERT_TRUE(golden_pruned.ok()) << golden_pruned.status().ToString();
  auto fresh_pruned =
      BloomSampleTree::BuildPruned(GoldenConfig(), GoldenOccupied());
  ASSERT_TRUE(fresh_pruned.ok());
  ExpectTreesIdentical(golden_pruned.value(), fresh_pruned.value());
}

TEST(TreeSnapshotTest, V1ToV2RoundTripIsByteAndDrawIdentical) {
  for (const char* golden_name :
       {"golden_tree_v1_complete.bst", "golden_tree_v1_pruned.bst"}) {
    auto v1 = LoadTreeFromFile(GoldenPath(golden_name));
    ASSERT_TRUE(v1.ok()) << v1.status().ToString();
    const QueryOutputs reference = RunQueries(&v1.value(), 1);

    for (NodeLayout layout : {NodeLayout::kIdOrder, NodeLayout::kDescent}) {
      const std::string path = TempPath("roundtrip_v2.bst");
      SaveOptions save;
      save.layout = layout;
      ASSERT_TRUE(SaveTreeToFile(v1.value(), path, save).ok());
      for (LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
        LoadOptions options;
        options.mode = mode;
        TreeLoadInfo info;
        auto v2 = LoadTreeFromFile(path, options, &info);
        if (!v2.ok() && mode == LoadMode::kMmap) continue;  // no-mmap platform
        ASSERT_TRUE(v2.ok()) << v2.status().ToString();
        EXPECT_EQ(info.version, 2u);
        EXPECT_EQ(info.layout, layout);
        EXPECT_EQ(v2.value().node_layout(), layout);
        ExpectTreesIdentical(v1.value(), v2.value());
        EXPECT_TRUE(RunQueries(&v2.value(), 1) == reference)
            << golden_name << " layout=" << NodeLayoutName(layout);
      }
      std::remove(path.c_str());
    }

    // And v2 → v1 again: the legacy stream writer must reproduce the
    // original golden bytes (id-order is the only v1 layout).
    const std::string v2_path = TempPath("roundtrip_v2b.bst");
    ASSERT_TRUE(SaveTreeToFile(v1.value(), v2_path, SaveOptions()).ok());
    auto reloaded = LoadTreeFromFile(v2_path);
    ASSERT_TRUE(reloaded.ok());
    const std::string v1_again = TempPath("roundtrip_v1.bst");
    SaveOptions as_v1;
    as_v1.version = 1;
    ASSERT_TRUE(SaveTreeToFile(reloaded.value(), v1_again, as_v1).ok());
    EXPECT_EQ(ReadFileBytes(v1_again), ReadFileBytes(GoldenPath(golden_name)));
    std::remove(v2_path.c_str());
    std::remove(v1_again.c_str());
  }
}

TEST(TreeSnapshotTest, DrawsIdenticalAcrossLoadPathsLayoutsTiersThreads) {
  auto built = BloomSampleTree::BuildComplete(GoldenConfig());
  ASSERT_TRUE(built.ok());
  ForEachSimdTier([&](simd::Level level) {
    const QueryOutputs reference = RunQueries(&built.value(), 1);
    for (NodeLayout layout : {NodeLayout::kIdOrder, NodeLayout::kDescent}) {
      const std::string path = TempPath("identity_v2.bst");
      SaveOptions save;
      save.layout = layout;
      ASSERT_TRUE(SaveTreeToFile(built.value(), path, save).ok());
      for (LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
        LoadOptions options;
        options.mode = mode;
        auto loaded = LoadTreeFromFile(path, options);
        if (!loaded.ok() && mode == LoadMode::kMmap) continue;
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        for (uint32_t threads : {1u, 4u}) {
          EXPECT_TRUE(RunQueries(&loaded.value(), threads) == reference)
              << "simd=" << simd::LevelName(level)
              << " layout=" << NodeLayoutName(layout)
              << " mode=" << static_cast<int>(mode) << " threads=" << threads;
        }
      }
      std::remove(path.c_str());
    }
  });
}

TEST(TreeSnapshotTest, StreamDeserializeDispatchesOnMagic) {
  auto tree = BloomSampleTree::BuildComplete(GoldenConfig());
  ASSERT_TRUE(tree.ok());
  const std::string path = TempPath("dispatch_v2.bst");
  ASSERT_TRUE(SaveTreeToFile(tree.value(), path).ok());

  // A v2 snapshot fed through the generic stream reader (no mmap
  // possible) must materialize on the heap, identically.
  std::stringstream v2_stream(ReadFileBytes(path));
  auto from_v2 = DeserializeTree(&v2_stream);
  ASSERT_TRUE(from_v2.ok()) << from_v2.status().ToString();
  ExpectTreesIdentical(tree.value(), from_v2.value());

  // And the same reader still takes v1 streams.
  std::stringstream v1_stream;
  ASSERT_TRUE(SerializeTree(tree.value(), &v1_stream).ok());
  auto from_v1 = DeserializeTree(&v1_stream);
  ASSERT_TRUE(from_v1.ok()) << from_v1.status().ToString();
  ExpectTreesIdentical(tree.value(), from_v1.value());
  std::remove(path.c_str());
}

TEST(TreeSnapshotTest, DescentOrderIsAPermutationGroupingTheTop) {
  auto tree = BloomSampleTree::BuildComplete(GoldenConfig());
  ASSERT_TRUE(tree.ok());
  const std::vector<uint32_t> block_of = tree.value().ComputeDescentOrder();
  ASSERT_EQ(block_of.size(), tree.value().node_count());
  std::vector<bool> seen(block_of.size(), false);
  for (uint32_t block : block_of) {
    ASSERT_LT(block, block_of.size());
    ASSERT_FALSE(seen[block]);
    seen[block] = true;
  }
  // BFS prefix: the root and its children occupy the first three blocks in
  // breadth order — the pages every single descent touches first.
  EXPECT_EQ(block_of[0], 0u);
  const auto& root = tree.value().node(0);
  EXPECT_EQ(block_of[static_cast<size_t>(root.left)], 1u);
  EXPECT_EQ(block_of[static_cast<size_t>(root.right)], 2u);
}

TEST(TreeSnapshotTest, EmptyPrunedTreeRoundTrips) {
  auto empty = BloomSampleTree::BuildPruned(GoldenConfig(), {});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().node_count(), 0u);
  const std::string path = TempPath("empty_v2.bst");
  ASSERT_TRUE(SaveTreeToFile(empty.value(), path).ok());
  for (LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
    LoadOptions options;
    options.mode = mode;
    auto loaded = LoadTreeFromFile(path, options);
    if (!loaded.ok() && mode == LoadMode::kMmap) continue;
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().node_count(), 0u);
    EXPECT_TRUE(loaded.value().pruned());
  }
  std::remove(path.c_str());
}

TEST(TreeSnapshotTest, MmapLoadedTreeStaysDynamicWithoutTouchingTheFile) {
  auto pruned = BloomSampleTree::BuildPruned(GoldenConfig(), GoldenOccupied());
  ASSERT_TRUE(pruned.ok());
  const std::string path = TempPath("dynamic_v2.bst");
  ASSERT_TRUE(SaveTreeToFile(pruned.value(), path).ok());
  const std::string bytes_before = ReadFileBytes(path);

  LoadOptions options;
  options.mode = LoadMode::kMmap;
  auto loaded = LoadTreeFromFile(path, options);
  if (!loaded.ok()) {  // platform without mmap: nothing to verify
    std::remove(path.c_str());
    return;
  }
  // Insert an id absent from the golden occupancy: the write lands in
  // copy-on-write pages of the MAP_PRIVATE mapping.
  const uint64_t fresh_id = 6;  // occupancy holds 5, 32, 59, ...
  ASSERT_TRUE(loaded.value().Insert(fresh_id).ok());
  const BloomFilter query = loaded.value().MakeQueryFilter({fresh_id});
  BstReconstructor reconstructor(&loaded.value());
  const auto ids = reconstructor.Reconstruct(
      query, nullptr, BstReconstructor::PruningMode::kExact);
  EXPECT_EQ(ids, std::vector<uint64_t>{fresh_id});
  // The snapshot on disk must be byte-identical afterwards.
  EXPECT_EQ(ReadFileBytes(path), bytes_before);
  std::remove(path.c_str());
}

TEST(TreeSnapshotTest, TruncatedSnapshotsRejectedCleanly) {
  auto tree = BloomSampleTree::BuildComplete(GoldenConfig());
  ASSERT_TRUE(tree.ok());
  const std::string path = TempPath("trunc_v2.bst");
  ASSERT_TRUE(SaveTreeToFile(tree.value(), path).ok());
  const std::string full = ReadFileBytes(path);

  const std::string cut_path = TempPath("trunc_cut.bst");
  for (size_t cut : {size_t{0}, size_t{3}, size_t{16}, size_t{100},
                     size_t{1000}, full.size() / 2, full.size() - 1}) {
    WriteFileBytes(cut_path, full.substr(0, cut));
    for (LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
      LoadOptions options;
      options.mode = mode;
      const auto loaded = LoadTreeFromFile(cut_path, options);
      EXPECT_FALSE(loaded.ok()) << "cut=" << cut;
    }
    // The stream path sizes seekable streams and must reject the same way.
    std::stringstream stream(full.substr(0, cut));
    EXPECT_FALSE(DeserializeTree(&stream).ok()) << "cut=" << cut;
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(TreeSnapshotTest, CorruptSnapshotsNeverCrashAndMostlyReject) {
  auto tree = BloomSampleTree::BuildPruned(GoldenConfig(), GoldenOccupied());
  ASSERT_TRUE(tree.ok());
  const std::string path = TempPath("corrupt_v2.bst");
  ASSERT_TRUE(SaveTreeToFile(tree.value(), path).ok());
  const std::string full = ReadFileBytes(path);

  // Bad magic must name the problem.
  {
    std::string bytes = full;
    bytes[0] = 'X';
    const std::string bad = TempPath("corrupt_magic.bst");
    WriteFileBytes(bad, bytes);
    const auto loaded = LoadTreeFromFile(bad);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), Status::Code::kInvalidArgument);
    std::remove(bad.c_str());
  }

  // Size-overflow headers: splat 0xff over each u64 header field in turn
  // (node count, word geometry, offsets, sizes — bytes 64..144). Every
  // variant must come back as a clean error before any allocation.
  const std::string bad = TempPath("corrupt_field.bst");
  for (size_t offset = 64; offset + 8 <= 144; offset += 8) {
    std::string bytes = full;
    for (size_t i = 0; i < 8; ++i) bytes[offset + i] = '\xff';
    WriteFileBytes(bad, bytes);
    for (LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
      LoadOptions options;
      options.mode = mode;
      EXPECT_FALSE(LoadTreeFromFile(bad, options).ok()) << "offset=" << offset;
    }
  }

  // Single-bit flips across the whole metadata region (header, node
  // table, block index, occupancy): a flip may happen to parse (e.g. the
  // stored seed or a popcount changes value), but it must never crash,
  // abort, or produce a partially initialized tree — a returned tree must
  // answer queries.
  const size_t metadata_bytes = full.size() > 4096 ? 4096 : full.size();
  for (size_t byte = 4; byte < metadata_bytes; byte += 7) {
    std::string bytes = full;
    bytes[byte] = static_cast<char>(bytes[byte] ^ 0x10);
    WriteFileBytes(bad, bytes);
    for (LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
      LoadOptions options;
      options.mode = mode;
      auto loaded = LoadTreeFromFile(bad, options);
      if (!loaded.ok()) continue;  // clean rejection
      if (loaded.value().node_count() == 0) continue;
      const BloomFilter query = loaded.value().MakeQueryFilter({5, 32});
      BstSampler sampler(&loaded.value());
      Rng rng(1);
      (void)sampler.Sample(query, &rng);  // must not crash
    }
  }
  std::remove(bad.c_str());
  std::remove(path.c_str());
}

TEST(TreeSnapshotTest, SharedChildPointerRejected) {
  auto tree = BloomSampleTree::BuildComplete(GoldenConfig());
  ASSERT_TRUE(tree.ok());
  const std::string path = TempPath("shared_child_v2.bst");
  // Checksums off: the patch below must reach the structural validator,
  // not be short-circuited by a node-table digest mismatch.
  SaveOptions save;
  save.checksums = false;
  ASSERT_TRUE(SaveTreeToFile(tree.value(), path, save).ok());
  std::string bytes = ReadFileBytes(path);
  // Node 0's entry starts at the 144-byte header: lo(8) hi(8) level(4)
  // pad(4) left(8) right(8) set_bits(8). Overwrite right with left so two
  // edges point at one child — must be rejected (a tree that loaded this
  // way would emit duplicate ids and break the save path's permutation).
  for (size_t i = 0; i < 8; ++i) bytes[144 + 32 + i] = bytes[144 + 24 + i];
  WriteFileBytes(path, bytes);
  for (LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
    LoadOptions options;
    options.mode = mode;
    const auto loaded = LoadTreeFromFile(path, options);
    EXPECT_FALSE(loaded.ok());
  }
  std::remove(path.c_str());
}

TEST(TreeSnapshotTest, RegionChecksumsCatchBitRot) {
  auto tree = BloomSampleTree::BuildPruned(GoldenConfig(), GoldenOccupied());
  ASSERT_TRUE(tree.ok());
  const std::string path = TempPath("checksummed_v2.bst");
  ASSERT_TRUE(SaveTreeToFile(tree.value(), path).ok());  // checksums default on
  const std::string pristine = ReadFileBytes(path);

  const auto flip = [&](size_t offset) {
    std::string bytes = pristine;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x01);
    WriteFileBytes(path, bytes);
  };
  const auto load = [&](LoadMode mode, bool prewarm) {
    LoadOptions options;
    options.mode = mode;
    options.prewarm = prewarm;
    return LoadTreeFromFile(path, options);
  };

  // The pristine file verifies clean in every mode.
  EXPECT_TRUE(load(LoadMode::kHeap, false).ok());
  EXPECT_TRUE(load(LoadMode::kMmap, false).ok());
  EXPECT_TRUE(load(LoadMode::kMmap, true).ok());

  // Header bit rot: the flipped seed still parses as a perfectly valid
  // config — only the digest can tell the tree would silently hash
  // differently. Seed lives at header offset 48.
  flip(48);
  for (LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
    const auto loaded = load(mode, false);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("header checksum"),
              std::string::npos)
        << loaded.status().ToString();
  }

  // Node table bit rot: node 0's set_bits (set_bits is entry offset 40).
  // The node table's start is read from the header (u64 at byte 96) —
  // the digest/chunk-table block in front of it varies with the save
  // options. The digest rejects the flip before the popcount cross-checks
  // ever run.
  uint64_t node_table_offset = 0;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.is_open());
    in.seekg(96);
    in.read(reinterpret_cast<char*>(&node_table_offset),
            sizeof(node_table_offset));
    ASSERT_TRUE(in.good());
  }
  flip(node_table_offset + 40);
  {
    const auto loaded = load(LoadMode::kHeap, false);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("node table checksum"),
              std::string::npos)
        << loaded.status().ToString();
  }

  // Slab bit rot (last byte of the file): heap and prewarmed mmap loads
  // hash the slab and must reject; a lazy mmap open intentionally skips
  // slab verification to keep the O(metadata) open, so it still succeeds.
  flip(pristine.size() - 1);
  {
    const auto heap = load(LoadMode::kHeap, false);
    ASSERT_FALSE(heap.ok());
    EXPECT_NE(heap.status().message().find("slab checksum"),
              std::string::npos)
        << heap.status().ToString();
    EXPECT_FALSE(load(LoadMode::kMmap, true).ok());
    EXPECT_TRUE(load(LoadMode::kMmap, false).ok());
  }

  // Opting out reproduces the un-checksummed layout and still loads.
  SaveOptions plain;
  plain.checksums = false;
  ASSERT_TRUE(SaveTreeToFile(tree.value(), path, plain).ok());
  // Flags live at offset 12; bit 0x2 marks the digest block.
  EXPECT_EQ(ReadFileBytes(path)[12] & 0x2, 0);
  EXPECT_NE(pristine[12] & 0x2, 0);
  auto unchecked = load(LoadMode::kHeap, false);
  ASSERT_TRUE(unchecked.ok());
  ExpectTreesIdentical(tree.value(), unchecked.value());

  std::remove(path.c_str());
}

TEST(TreeSnapshotTest, UnsizeableStreamsRefuseV2BeforeAllocating) {
  auto tree = BloomSampleTree::BuildComplete(GoldenConfig());
  ASSERT_TRUE(tree.ok());
  const std::string path = TempPath("unseekable_v2.bst");
  ASSERT_TRUE(SaveTreeToFile(tree.value(), path).ok());
  const std::string bytes = ReadFileBytes(path);
  std::remove(path.c_str());

  // A streambuf that reads fine but cannot seek: the v2 reader must
  // refuse up front (its slab-size cross-check needs the stream size —
  // without it a forged header could demand an absurd allocation).
  class UnseekableBuf : public std::stringbuf {
   public:
    explicit UnseekableBuf(const std::string& s)
        : std::stringbuf(s, std::ios::in) {}

   protected:
    pos_type seekoff(off_type, std::ios_base::seekdir,
                     std::ios_base::openmode) override {
      return pos_type(off_type(-1));
    }
    pos_type seekpos(pos_type, std::ios_base::openmode) override {
      return pos_type(off_type(-1));
    }
  };
  UnseekableBuf buf(bytes);
  std::istream in(&buf);
  const auto loaded = DeserializeTree(&in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kUnsupported);

  // v1 streams keep working unseekable (every read is bounded per node).
  std::stringstream v1_stream;
  ASSERT_TRUE(SerializeTree(tree.value(), &v1_stream).ok());
  UnseekableBuf v1_buf(v1_stream.str());
  std::istream v1_in(&v1_buf);
  EXPECT_TRUE(DeserializeTree(&v1_in).ok());
}

TEST(TreeSnapshotTest, LoadOptionsHonorEnvOverride) {
  const char* saved = std::getenv("BSR_LOAD");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("BSR_LOAD", "heap", 1);
  EXPECT_EQ(LoadOptions::FromEnv().mode, LoadMode::kHeap);
  ::setenv("BSR_LOAD", "mmap", 1);
  EXPECT_EQ(LoadOptions::FromEnv().mode, LoadMode::kMmap);
  ::setenv("BSR_LOAD", "auto", 1);
  EXPECT_EQ(LoadOptions::FromEnv().mode, LoadMode::kAuto);
  if (saved != nullptr) {
    ::setenv("BSR_LOAD", saved_value.c_str(), 1);
  } else {
    ::unsetenv("BSR_LOAD");
  }
}

}  // namespace
}  // namespace bloomsample
