// Fences for the online scrubber (core/scrubber.h) and the offline
// integrity walk it shares with `bsr verify`:
//   * the offline pass is exact: clean files pass, a flipped slab byte is
//     localized to its 64 KiB chunk, truncation and quarantine markers
//     surface as their own codes, and v1 / checksum-less files pass clean;
//   * the golden corrupt-snapshot corpus under tests/data/corrupt keeps
//     the on-disk failure modes pinned across releases;
//   * the token-bucket rate limit actually paces the walk;
//   * LIVE repair: corrupting a chunk under a running pipeline is
//     detected by a scrub pass and healed by read-repair (compaction from
//     the occupied set) — the repaired file verifies clean and draws
//     bit-identically across heap/mmap loads and every SIMD tier;
//   * unrepairable lanes (forest shards, repair disabled) are quarantined:
//     the lane fails fast, siblings keep serving, the next open refuses;
//   * a fresh-open re-check keeps benign compaction races from triggering
//     repair, and injected read errors do NOT quarantine;
//   * the background thread detects and heals without RunPass being
//     driven by hand.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/bst_sampler.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/scrubber.h"
#include "src/core/tree_io.h"
#include "src/util/fault_fs.h"
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

std::vector<uint64_t> BaseOccupied() {
  std::vector<uint64_t> occupied;
  for (uint64_t x = 5; x < 4096; x += 27) occupied.push_back(x);
  return occupied;
}

std::string TempPath(const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  std::remove((path + ".wal.old").c_str());
  std::remove((path + ".quarantine").c_str());
  return path;
}

std::string DataPath(const char* name) {
  return std::string(BSR_TEST_DATA_DIR) + "/" + name;
}

std::shared_ptr<BloomSampleTree> FreshBase(const std::string& path) {
  auto built = BloomSampleTree::BuildPruned(GoldenConfig(), BaseOccupied());
  EXPECT_TRUE(built.ok());
  EXPECT_TRUE(SaveTreeToFile(built.value(), path).ok());
  auto loaded = LoadTreeFromFile(path);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::make_shared<BloomSampleTree>(std::move(loaded).value());
}

/// XORs the byte at `offset` in `path` (the bit-rot primitive).
void FlipByteAt(const std::string& path, uint64_t offset) {
  std::fstream file(path,
                    std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open());
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  ASSERT_TRUE(file.good());
  byte ^= static_cast<char>(0xFF);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
  ASSERT_TRUE(file.good());
}

/// Flips one byte inside slab chunk `chunk` of the snapshot at `path`.
void CorruptSlabChunk(const std::string& path, uint64_t chunk) {
  auto info = ReadSnapshotChunkInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_GT(info.value().slab_bytes, chunk * info.value().chunk_bytes);
  FlipByteAt(path, info.value().slab_offset + chunk * info.value().chunk_bytes);
}

/// Draw-for-draw sampling equality on a shared member query.
void ExpectSamplesIdentical(const BloomSampleTree& a,
                            const BloomSampleTree& b) {
  const std::vector<uint64_t> occupied = a.OccupiedIds();
  ASSERT_EQ(occupied, b.OccupiedIds());
  std::vector<uint64_t> members(
      occupied.begin(),
      occupied.begin() + std::min<size_t>(occupied.size(), 40));
  const BloomFilter qa = a.MakeQueryFilter(members);
  const BloomFilter qb = b.MakeQueryFilter(members);
  BstSampler sa(&a);
  BstSampler sb(&b);
  Rng ra(987);
  Rng rb(987);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(sa.Sample(qa, &ra), sb.Sample(qb, &rb)) << "draw " << i;
  }
}

// --- offline walk ----------------------------------------------------------

TEST(ScrubberTest, OfflinePassCleanThenLocalizesFlippedChunk) {
  const std::string path = TempPath("scrub_offline.bst");
  // A wider filter than GoldenConfig: localization needs a slab spanning
  // several 64 KiB chunks.
  TreeConfig config = GoldenConfig();
  config.m = 60000;
  auto built = BloomSampleTree::BuildPruned(config, BaseOccupied());
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(SaveTreeToFile(built.value(), path).ok());

  ScrubOptions options;
  ScrubFileReport report;
  ASSERT_TRUE(ScrubSnapshotFileOnce(path, options, &report).ok());
  EXPECT_GE(report.chunks_scanned, 1u);
  EXPECT_GT(report.bytes_scanned, 0u);
  EXPECT_FALSE(report.corruption_found);

  auto info = ReadSnapshotChunkInfo(path);
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(info.value().has_chunk_checksums);
  const uint64_t chunks = info.value().chunk_digests.size();
  ASSERT_GE(chunks, 2u) << "tree too small to span two slab chunks";

  // Corrupt the LAST chunk: the walk names it, proving localization (a
  // whole-slab digest alone could only say "somewhere").
  FlipByteAt(path, info.value().file_bytes - 1);
  const Status st = ScrubSnapshotFileOnce(path, options, &report);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_TRUE(report.corruption_found);
  EXPECT_EQ(report.first_bad_chunk, chunks - 1);

  // And chunk 0 independently.
  FlipByteAt(path, info.value().file_bytes - 1);  // restore
  CorruptSlabChunk(path, 0);
  ASSERT_FALSE(ScrubSnapshotFileOnce(path, options, &report).ok());
  EXPECT_EQ(report.first_bad_chunk, 0u);
}

TEST(ScrubberTest, OfflinePassAcceptsFilesWithoutChunkDigests) {
  // checksums=false reproduces the PR-5 layout; chunk_checksums=false the
  // PR-8 layout — both must scrub clean (nothing to verify / whole-slab
  // digest only), keeping old fleets scrubbable during a rolling upgrade.
  for (const bool checksums : {false, true}) {
    const std::string path = TempPath("scrub_legacy.bst");
    auto built =
        BloomSampleTree::BuildPruned(GoldenConfig(), BaseOccupied());
    ASSERT_TRUE(built.ok());
    SaveOptions save;
    save.checksums = checksums;
    save.chunk_checksums = false;
    ASSERT_TRUE(SaveTreeToFile(built.value(), path, save).ok());
    ScrubFileReport report;
    EXPECT_TRUE(ScrubSnapshotFileOnce(path, ScrubOptions(), &report).ok());
    EXPECT_FALSE(report.corruption_found);
  }
}

TEST(ScrubberTest, GoldenCorruptCorpusPinsFailureModes) {
  ScrubOptions options;
  EXPECT_TRUE(
      ScrubSnapshotFileOnce(DataPath("corrupt/clean.bst"), options).ok());
  EXPECT_TRUE(VerifySnapshotFile(DataPath("corrupt/clean.bst")).ok());
  EXPECT_TRUE(LoadTreeFromFile(DataPath("corrupt/clean.bst")).ok());

  ScrubFileReport report;
  EXPECT_EQ(ScrubSnapshotFileOnce(DataPath("corrupt/chunk_flip.bst"),
                                  options, &report)
                .code(),
            Status::Code::kInvalidArgument);
  EXPECT_TRUE(report.corruption_found);
  uint64_t bad_chunk = 0;
  EXPECT_EQ(VerifySnapshotFile(DataPath("corrupt/chunk_flip.bst"), nullptr,
                               &bad_chunk)
                .code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(bad_chunk, report.first_bad_chunk);

  EXPECT_EQ(
      ScrubSnapshotFileOnce(DataPath("corrupt/truncated.bst"), options)
          .code(),
      Status::Code::kOutOfRange);

  EXPECT_EQ(
      ScrubSnapshotFileOnce(DataPath("corrupt/quarantined.bst"), options)
          .code(),
      Status::Code::kQuarantined);
  EXPECT_EQ(LoadTreeFromFile(DataPath("corrupt/quarantined.bst"))
                .status()
                .code(),
            Status::Code::kQuarantined);
}

TEST(ScrubberTest, RateLimitPacesTheWalk) {
  const std::string path = TempPath("scrub_paced.bst");
  FreshBase(path);
  auto info = ReadSnapshotChunkInfo(path);
  ASSERT_TRUE(info.ok());
  const uint64_t slab = info.value().slab_bytes;

  // Budget = slab/0.2s → a full pass must take roughly 200 ms; allow wide
  // slack downward for timer coarseness but reject an unpaced sprint.
  ScrubOptions paced;
  paced.rate_limit_bytes_per_sec = slab * 5;
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(ScrubSnapshotFileOnce(path, paced).ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(100));
}

TEST(ScrubberTest, InjectedReadErrorSurfacesWithoutCorruptionVerdict) {
  FaultInjectingFileSystem fs;
  const std::string path = TempPath("scrub_readerr.bst");
  FreshBase(path);
  ScrubOptions options;
  options.fs = &fs;
  // Every pread fails EIO: the pass errors but must NOT claim corruption
  // (the file is fine; the I/O path is not).
  fs.FailReadsAt(fs.read_op_count() + 1, FaultInjectingFileSystem::kForever);
  ScrubFileReport report;
  const Status st = ScrubSnapshotFileOnce(path, options, &report);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(report.corruption_found);
  fs.ClearFaults();
  EXPECT_TRUE(ScrubSnapshotFileOnce(path, options, &report).ok());
}

TEST(ScrubberTest, FileShrunkUnderMmapQuarantinesInsteadOfSigbus) {
  FaultInjectingFileSystem fs;
  const std::string path = TempPath("scrub_shrunk.bst");
  FreshBase(path);

  // The mmap open preads the file's LAST byte through the FileSystem
  // before mapping. A short read there is exactly what a file shrunk
  // between metadata parse and mmap looks like — touching that page
  // through a mapping would raise SIGBUS; the probe must turn it into
  // kQuarantined instead. Read op 1 is the probe's open, op 2 its pread.
  fs.ShortReadAtOp(fs.read_op_count() + 2, /*keep_bytes=*/0);
  LoadOptions load;
  load.mode = LoadMode::kMmap;
  load.fs = &fs;
  auto shrunk = LoadTreeFromFile(path, load);
  ASSERT_FALSE(shrunk.ok());
  EXPECT_EQ(shrunk.status().code(), Status::Code::kQuarantined);

  // Disarmed, the same open succeeds.
  fs.ClearFaults();
  auto reloaded = LoadTreeFromFile(path, load);
  EXPECT_TRUE(reloaded.ok()) << reloaded.status().ToString();
}

// --- live repair -----------------------------------------------------------

TEST(ScrubberTest, LiveScrubDetectsAndReadRepairsBitIdentically) {
  const std::string path = TempPath("scrub_live.bst");
  IngestPipelineOptions options;
  auto pipeline = IngestPipeline::OpenTree(FreshBase(path), path, options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  IngestPipeline& pipe = *pipeline.value();
  ASSERT_TRUE(pipe.Insert(6).ok());
  ASSERT_TRUE(pipe.Insert(1000).ok());

  // Bit rot lands on the live snapshot's slab.
  CorruptSlabChunk(path, 0);
  ASSERT_FALSE(VerifySnapshotFile(path).ok());

  Scrubber scrubber(&pipe, ScrubOptions());
  ASSERT_TRUE(scrubber.RunPass().ok());
  const ScrubStats stats = scrubber.stats();
  EXPECT_EQ(stats.corrupt_chunks, 1u);
  EXPECT_EQ(stats.repairs, 1u);
  EXPECT_EQ(stats.quarantines, 0u);
  EXPECT_FALSE(pipe.lane_quarantined(0));

  // The repaired file verifies clean, and a second pass finds nothing.
  EXPECT_TRUE(VerifySnapshotFile(path).ok());
  ASSERT_TRUE(scrubber.RunPass().ok());
  EXPECT_EQ(scrubber.stats().repairs, 1u);

  // The lane still ingests post-repair.
  ASSERT_TRUE(pipe.Insert(2000).ok());
  ASSERT_TRUE(pipe.Close().ok());

  // Bit-identical draws: the repaired artifact reloads (heap AND mmap,
  // every SIMD tier this host has) sampling draw-for-draw like a tree
  // that never corrupted.
  const std::vector<uint64_t> base = BaseOccupied();
  std::set<uint64_t> expected(base.begin(), base.end());
  expected.insert(6);
  expected.insert(1000);
  expected.insert(2000);
  auto reference = BloomSampleTree::BuildPruned(
      GoldenConfig(),
      std::vector<uint64_t>(expected.begin(), expected.end()));
  ASSERT_TRUE(reference.ok());
  const simd::Level saved = simd::ActiveLevel();
  for (const simd::Level level :
       {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (!simd::LevelSupported(level)) continue;
    simd::ForceLevel(level);
    for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
      LoadOptions load;
      load.mode = mode;
      auto reloaded = LoadTreeFromFile(path, load);
      ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
      ExpectSamplesIdentical(reloaded.value(), reference.value());
    }
  }
  simd::ForceLevel(saved);
}

TEST(ScrubberTest, StaleFrozenLogIsFoldedNotQuarantined) {
  // A crash between a compaction's log rotation and its retirement of the
  // frozen log leaves <path>.wal.old behind, and the reopened tree holds
  // its records. Read-repair runs through compaction, so it must fold
  // that log instead of refusing and quarantining a healable lane.
  const std::string path = TempPath("scrub_stale_wal.bst");
  {
    auto first = IngestPipeline::OpenTree(FreshBase(path), path,
                                          IngestPipelineOptions());
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(first.value()->Insert(6).ok());
    ASSERT_TRUE(first.value()->Close().ok());
  }
  ASSERT_EQ(std::rename(WalPathFor(path).c_str(),
                        OldWalPathFor(path).c_str()),
            0);
  TreeLoadInfo info;
  auto loaded = LoadTreeFromFile(path, LoadOptions(), &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(info.wal_old_records_replayed, 1u);
  auto pipeline = IngestPipeline::OpenTree(
      std::make_shared<BloomSampleTree>(std::move(loaded).value()), path,
      IngestPipelineOptions(), info.wal_records_replayed + 1);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  IngestPipeline& pipe = *pipeline.value();
  ASSERT_TRUE(pipe.Insert(1000).ok());

  CorruptSlabChunk(path, 0);
  Scrubber scrubber(&pipe, ScrubOptions());
  ASSERT_TRUE(scrubber.RunPass().ok());
  EXPECT_EQ(scrubber.stats().repairs, 1u);
  EXPECT_EQ(scrubber.stats().quarantines, 0u);
  EXPECT_FALSE(pipe.lane_quarantined(0));
  EXPECT_TRUE(VerifySnapshotFile(path).ok());
  EXPECT_FALSE(FileSystem::Default()->FileExists(OldWalPathFor(path)));
  ASSERT_TRUE(pipe.Close().ok());

  // Both logs' records survive the fold and the repair.
  std::vector<uint64_t> expected = BaseOccupied();
  expected.push_back(6);
  expected.push_back(1000);
  std::sort(expected.begin(), expected.end());
  auto reloaded = LoadTreeFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value().OccupiedIds(), expected);
}

TEST(ScrubberTest, BackgroundThreadHealsWithoutManualPasses) {
  const std::string path = TempPath("scrub_bg.bst");
  IngestPipelineOptions options;
  auto pipeline = IngestPipeline::OpenTree(FreshBase(path), path, options);
  ASSERT_TRUE(pipeline.ok());
  IngestPipeline& pipe = *pipeline.value();

  CorruptSlabChunk(path, 0);

  ScrubOptions scrub;
  scrub.rescan_interval = std::chrono::milliseconds(5);
  Scrubber scrubber(&pipe, scrub);
  scrubber.Start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scrubber.stats().repairs == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  scrubber.Stop();
  EXPECT_GE(scrubber.stats().repairs, 1u);
  EXPECT_GE(scrubber.stats().passes, 1u);
  EXPECT_TRUE(VerifySnapshotFile(path).ok());
  pipe.Close();
}

TEST(ScrubberTest, ForestLaneQuarantinesAndSiblingsKeepServing) {
  const std::string manifest = TempPath("scrub_forest.bst");
  std::remove(ForestShardPath(manifest, 0).c_str());
  std::remove((ForestShardPath(manifest, 0) + ".wal").c_str());
  std::remove((ForestShardPath(manifest, 0) + ".quarantine").c_str());
  std::remove(ForestShardPath(manifest, 1).c_str());
  std::remove((ForestShardPath(manifest, 1) + ".wal").c_str());
  std::remove((ForestShardPath(manifest, 1) + ".quarantine").c_str());

  ForestConfig forest_config;
  forest_config.tree = GoldenConfig();
  forest_config.shards = 2;
  auto forest =
      BloomSampleForest::BuildPruned(forest_config, BaseOccupied());
  ASSERT_TRUE(forest.ok());
  ASSERT_TRUE(SaveForestToFile(forest.value(), manifest).ok());
  ForestLoadInfo info;
  auto loaded = LoadForestFromFile(manifest, LoadOptions(), &info);
  ASSERT_TRUE(loaded.ok());

  IngestPipelineOptions options;
  auto pipeline =
      IngestPipeline::OpenForest(&loaded.value(), manifest, options, &info);
  ASSERT_TRUE(pipeline.ok());
  IngestPipeline& pipe = *pipeline.value();
  ASSERT_EQ(pipe.lane_count(), 2u);

  // Shard 0's image rots. Forest lanes have no background compaction, so
  // the scrubber's only safe move is quarantine.
  CorruptSlabChunk(pipe.lane_path(0), 0);
  Scrubber scrubber(&pipe, ScrubOptions());
  scrubber.RunPass();
  const ScrubStats stats = scrubber.stats();
  EXPECT_EQ(stats.corrupt_chunks, 1u);
  EXPECT_EQ(stats.repairs, 0u);
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_TRUE(pipe.lane_quarantined(0));
  EXPECT_FALSE(pipe.lane_quarantined(1));

  // The sick lane fails fast; its sibling keeps ingesting and serving.
  const uint64_t shard0_id = 10;    // < shard width
  const uint64_t shard1_id = 3000;  // ≥ shard width (2048)
  ASSERT_EQ(pipe.LaneOf(shard0_id), 0u);
  ASSERT_EQ(pipe.LaneOf(shard1_id), 1u);
  EXPECT_EQ(pipe.Insert(shard0_id).code(), Status::Code::kQuarantined);
  EXPECT_TRUE(pipe.Insert(shard1_id).ok());
  {
    auto guard = pipe.AcquireRead(1);
    const std::vector<uint64_t> occupied = guard.tree().OccupiedIds();
    EXPECT_TRUE(
        std::binary_search(occupied.begin(), occupied.end(), shard1_id));
  }

  // A second pass skips the quarantined lane instead of re-flagging it.
  scrubber.RunPass();
  EXPECT_EQ(scrubber.stats().quarantines, 1u);
  pipe.Close();

  // The marker outlives the pipeline: the shard image is refused until an
  // operator intervenes.
  EXPECT_EQ(LoadTreeFromFile(ForestShardPath(manifest, 0)).status().code(),
            Status::Code::kQuarantined);
}

TEST(ScrubberTest, RepairDisabledQuarantinesSingleTreeLane) {
  const std::string path = TempPath("scrub_norepair.bst");
  IngestPipelineOptions options;
  auto pipeline = IngestPipeline::OpenTree(FreshBase(path), path, options);
  ASSERT_TRUE(pipeline.ok());
  IngestPipeline& pipe = *pipeline.value();

  CorruptSlabChunk(path, 0);
  ScrubOptions scrub;
  scrub.repair = false;
  Scrubber scrubber(&pipe, scrub);
  scrubber.RunPass();
  EXPECT_EQ(scrubber.stats().repairs, 0u);
  EXPECT_EQ(scrubber.stats().quarantines, 1u);
  EXPECT_TRUE(pipe.lane_quarantined(0));
  pipe.Close();
}

}  // namespace
}  // namespace bloomsample
