// Fences for the write-ahead delta log (core/wal.h):
//   * snapshot + logged inserts must recover BIT-IDENTICAL to the tree
//     that did those inserts in memory — across heap and mmap load modes
//     and every SIMD tier this host has;
//   * replay must stop at the FIRST invalid record and amputate the file
//     there: truncation at every byte offset, a single bit flipped at
//     every position, empty records, huge length prefixes — every one
//     must come back as a clean prefix recovery, never UB or an abort
//     (the ASan/UBSan CI job runs this file too);
//   * a log can never replay into a tree with different parameters
//     (config fingerprint);
//   * compaction folds the log into the image and empties it; ingest
//     continues seamlessly after recovery and after compaction.
// Every log here is written the way the CLI writes one: a single producer
// pushing onto IngestPipeline's queue, then one Flush.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/bst_reconstructor.h"
#include "src/core/bst_sampler.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/query_context.h"
#include "src/core/tree_io.h"
#include "src/core/wal.h"
#include "src/util/simd.h"

namespace bloomsample {
namespace {

constexpr size_t kWalHeaderBytes = 32;
constexpr size_t kWalRecordBytes = 32;

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

/// The occupied ids the snapshot is built over.
std::vector<uint64_t> BaseOccupied() {
  std::vector<uint64_t> occupied;
  for (uint64_t x = 5; x < 4096; x += 27) occupied.push_back(x);
  return occupied;
}

/// The ids the WAL ingests afterwards (disjoint from BaseOccupied, in a
/// deliberately non-sorted order — the log preserves insertion order, not
/// key order).
std::vector<uint64_t> ExtraIds() {
  return {4000, 13, 2048, 700, 3999, 64, 1500, 2047, 311, 4095, 8, 901};
}

/// TempDir() contents survive across runs; a stale snapshot or sidecar
/// log from a previous run would pollute the pipeline's log (it appends
/// behind whatever the file already holds), so every path starts scrubbed.
std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  std::remove((path + ".wal.old").c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

uint64_t FileBytes(const std::string& path) {
  auto size = FileSystem::Default()->FileSize(path);
  EXPECT_TRUE(size.ok()) << path;
  return size.ok() ? size.value() : 0;
}

/// Full structural equality (mirrors tree_snapshot_test).
void ExpectTreesIdentical(const BloomSampleTree& a, const BloomSampleTree& b) {
  EXPECT_EQ(a.pruned(), b.pruned());
  EXPECT_EQ(a.occupied(), b.occupied());
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

/// Opens a pipeline on `tree` (saved at `path`, whose current log holds
/// `replayed` records) with the given sync policy.
std::unique_ptr<IngestPipeline> OpenPipeline(
    std::shared_ptr<BloomSampleTree> tree, const std::string& path,
    WalSyncPolicy policy, uint64_t replayed = 0) {
  IngestPipelineOptions options;
  options.wal.policy = policy;
  auto pipeline =
      IngestPipeline::OpenTree(std::move(tree), path, options, replayed + 1);
  EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  return pipeline.ok() ? std::move(pipeline).value() : nullptr;
}

/// One producer: Push each id in order, then Flush once.
void PushAll(IngestPipeline* pipeline, const std::vector<uint64_t>& ids) {
  for (uint64_t id : ids) {
    WalMutation mut;
    mut.id = id;
    EXPECT_TRUE(pipeline->Push(mut).ok());
  }
  EXPECT_TRUE(pipeline->Flush().ok());
}

/// Builds the base tree, saves it at `path`, and ingests the first
/// `n_inserts` ExtraIds through a pipeline on it. Returns the in-memory
/// tree (the "never crashed" reference).
BloomSampleTree MakeIngestedTree(const std::string& path, size_t n_inserts,
                                 WalSyncPolicy policy) {
  auto built = BloomSampleTree::BuildPruned(GoldenConfig(), BaseOccupied());
  EXPECT_TRUE(built.ok());
  EXPECT_TRUE(SaveTreeToFile(built.value(), path).ok());
  auto tree = std::make_shared<BloomSampleTree>(std::move(built).value());
  std::unique_ptr<IngestPipeline> pipeline = OpenPipeline(tree, path, policy);
  const std::vector<uint64_t> extras = ExtraIds();
  PushAll(pipeline.get(),
          std::vector<uint64_t>(
              extras.begin(),
              extras.begin() + std::min(n_inserts, extras.size())));
  EXPECT_TRUE(pipeline->Close().ok());
  pipeline.reset();
  return std::move(*tree);
}

/// Sorted base ∪ first `n` extras — the expected occupied set after a
/// replay of n records.
std::vector<uint64_t> ExpectedOccupied(size_t n) {
  std::vector<uint64_t> occupied = BaseOccupied();
  const std::vector<uint64_t> extras = ExtraIds();
  for (size_t i = 0; i < n && i < extras.size(); ++i) {
    occupied.push_back(extras[i]);
  }
  std::sort(occupied.begin(), occupied.end());
  return occupied;
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

struct QueryOutputs {
  std::vector<std::optional<uint64_t>> batch;
  std::vector<uint64_t> exact;

  bool operator==(const QueryOutputs& other) const {
    return batch == other.batch && exact == other.exact;
  }
};

QueryOutputs RunQueries(BloomSampleTree* tree) {
  const std::vector<uint64_t> members = {8,    13,   100,  700,  999, 1500,
                                         2047, 2048, 3000, 3999, 4000};
  const BloomFilter query = tree->MakeQueryFilter(members);
  QueryOutputs out;
  BstSampler sampler(tree);
  QueryContext ctx(*tree, query);
  out.batch = sampler.SampleBatch(&ctx, 64, /*seed=*/2024);
  BstReconstructor reconstructor(tree);
  out.exact = reconstructor.Reconstruct(query, nullptr,
                                        BstReconstructor::PruningMode::kExact);
  return out;
}

TEST(WalTest, RecoveryIsBitIdenticalAcrossLoadModesAndSimdTiers) {
  const std::string path = TempPath("wal_identical.bst");
  BloomSampleTree reference =
      MakeIngestedTree(path, ExtraIds().size(), WalSyncPolicy::kEveryRecord);
  QueryOutputs reference_out = RunQueries(&reference);

  ForEachSimdTier([&](simd::Level level) {
    for (LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
      LoadOptions options;
      options.mode = mode;
      TreeLoadInfo info;
      auto loaded = LoadTreeFromFile(path, options, &info);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_TRUE(info.wal_present);
      EXPECT_EQ(info.wal_records_replayed, ExtraIds().size());
      EXPECT_FALSE(info.wal_recovered_corruption);
      ExpectTreesIdentical(loaded.value(), reference);
      EXPECT_TRUE(RunQueries(&loaded.value()) == reference_out)
          << "simd=" << simd::LevelName(level)
          << " mode=" << (mode == LoadMode::kHeap ? "heap" : "mmap");
    }
  });
}

TEST(WalTest, ReplayTruncatesAtEveryByteOffset) {
  const std::string path = TempPath("wal_cuts.bst");
  MakeIngestedTree(path, ExtraIds().size(), WalSyncPolicy::kEveryRecord);
  const std::string wal_path = WalPathFor(path);
  const std::string pristine = ReadFileBytes(wal_path);
  ASSERT_EQ(pristine.size(),
            kWalHeaderBytes + ExtraIds().size() * kWalRecordBytes);
  // The queue's single writer logs in push order, not key order: record i
  // holds ExtraIds()[i].
  std::vector<uint64_t> logged;
  ASSERT_TRUE(ReplayWal(wal_path, WalConfigFingerprint(GoldenConfig()),
                        [&](const WalRecord& rec) {
                          EXPECT_EQ(rec.op, WalOp::kInsert);
                          logged.push_back(rec.id);
                          return Status::OK();
                        })
                  .ok());
  EXPECT_EQ(logged, ExtraIds());

  for (size_t cut = 0; cut <= pristine.size(); ++cut) {
    WriteFileBytes(wal_path, pristine.substr(0, cut));
    TreeLoadInfo info;
    auto loaded = LoadTreeFromFile(path, LoadOptions(), &info);
    ASSERT_TRUE(loaded.ok()) << "cut=" << cut;
    const size_t expect_replayed =
        cut < kWalHeaderBytes ? 0 : (cut - kWalHeaderBytes) / kWalRecordBytes;
    EXPECT_EQ(info.wal_records_replayed, expect_replayed) << "cut=" << cut;
    EXPECT_EQ(loaded.value().occupied(), ExpectedOccupied(expect_replayed))
        << "cut=" << cut;
    const bool on_boundary =
        cut >= kWalHeaderBytes && (cut - kWalHeaderBytes) % kWalRecordBytes == 0;
    EXPECT_EQ(info.wal_recovered_corruption, cut != 0 && !on_boundary)
        << "cut=" << cut;
    // The torn tail is physically gone: a second open replays the same
    // prefix with nothing left to recover.
    TreeLoadInfo again;
    auto reloaded = LoadTreeFromFile(path, LoadOptions(), &again);
    ASSERT_TRUE(reloaded.ok()) << "cut=" << cut;
    EXPECT_EQ(again.wal_records_replayed, expect_replayed);
    EXPECT_FALSE(again.wal_recovered_corruption) << "cut=" << cut;
  }
}

TEST(WalTest, SingleBitFlipAnywhereRecoversACleanPrefix) {
  const std::string path = TempPath("wal_flips.bst");
  MakeIngestedTree(path, ExtraIds().size(), WalSyncPolicy::kEveryRecord);
  const std::string wal_path = WalPathFor(path);
  const std::string pristine = ReadFileBytes(wal_path);

  for (size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = pristine;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      WriteFileBytes(wal_path, mutated);
      TreeLoadInfo info;
      auto loaded = LoadTreeFromFile(path, LoadOptions(), &info);
      ASSERT_TRUE(loaded.ok()) << "byte=" << byte << " bit=" << bit << ": "
                               << loaded.status().ToString();
      // A flip in the header kills the whole log; a flip in record i kills
      // records i.. — the survivors are exactly the prefix before it.
      const size_t expect_replayed =
          byte < kWalHeaderBytes
              ? 0
              : (byte - kWalHeaderBytes) / kWalRecordBytes;
      EXPECT_EQ(info.wal_records_replayed, expect_replayed)
          << "byte=" << byte << " bit=" << bit;
      EXPECT_TRUE(info.wal_recovered_corruption)
          << "byte=" << byte << " bit=" << bit;
      EXPECT_EQ(loaded.value().occupied(), ExpectedOccupied(expect_replayed));
    }
  }
}

TEST(WalTest, EmptyAndHugeAndMisSequencedRecordsStopReplay) {
  const std::string path = TempPath("wal_weird.bst");
  MakeIngestedTree(path, 4, WalSyncPolicy::kEveryRecord);
  const std::string wal_path = WalPathFor(path);
  const std::string pristine = ReadFileBytes(wal_path);
  ASSERT_EQ(pristine.size(), kWalHeaderBytes + 4 * kWalRecordBytes);

  // Tail variants appended after the 4 valid records: an empty record
  // (length 0), a huge length prefix, and a duplicate of record 1 (valid
  // digest, wrong sequence number).
  const std::string empty_record(4, '\0');
  const std::string huge_record = std::string("\xF0\xFF\xFF\xFF", 4) +
                                  std::string(28, 'x');
  const std::string misseq =
      pristine.substr(kWalHeaderBytes, kWalRecordBytes);
  for (const std::string& tail : {empty_record, huge_record, misseq}) {
    WriteFileBytes(wal_path, pristine + tail);
    TreeLoadInfo info;
    auto loaded = LoadTreeFromFile(path, LoadOptions(), &info);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(info.wal_records_replayed, 4u);
    EXPECT_TRUE(info.wal_recovered_corruption);
    EXPECT_EQ(loaded.value().occupied(), ExpectedOccupied(4));
    EXPECT_EQ(FileBytes(wal_path), pristine.size());  // tail amputated
  }
}

TEST(WalTest, FingerprintMismatchRefusesToReplay) {
  const std::string path = TempPath("wal_fingerprint.bst");
  MakeIngestedTree(path, 4, WalSyncPolicy::kEveryRecord);

  // A log written for a different parameterization, dropped next to this
  // snapshot: replay must refuse it outright, not silently apply it.
  TreeConfig other = GoldenConfig();
  other.seed = 43;
  const std::string other_path = TempPath("wal_fingerprint_other.bst");
  auto other_tree = BloomSampleTree::BuildPruned(other, BaseOccupied());
  ASSERT_TRUE(other_tree.ok());
  ASSERT_TRUE(SaveTreeToFile(other_tree.value(), other_path).ok());
  {
    std::unique_ptr<IngestPipeline> pipeline = OpenPipeline(
        std::make_shared<BloomSampleTree>(std::move(other_tree).value()),
        other_path, WalSyncPolicy::kEveryRecord);
    PushAll(pipeline.get(), {13});
  }
  WriteFileBytes(WalPathFor(path), ReadFileBytes(WalPathFor(other_path)));

  auto loaded = LoadTreeFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("fingerprint"), std::string::npos);
}

TEST(WalTest, CompactionFoldsTheLogAndIngestContinues) {
  const std::string path = TempPath("wal_compact.bst");
  MakeIngestedTree(path, 6, WalSyncPolicy::kEveryRecord);
  ASSERT_GT(FileBytes(WalPathFor(path)), kWalHeaderBytes);

  TreeLoadInfo info;
  auto ingested = LoadTreeFromFile(path, LoadOptions(), &info);
  ASSERT_TRUE(ingested.ok());
  std::unique_ptr<IngestPipeline> pipeline = OpenPipeline(
      std::make_shared<BloomSampleTree>(std::move(ingested).value()), path,
      WalSyncPolicy::kEveryRecord, info.wal_records_replayed);
  ASSERT_TRUE(pipeline->TriggerCompaction().ok());
  ASSERT_TRUE(pipeline->WaitCompaction().ok());
  EXPECT_EQ(FileBytes(WalPathFor(path)), kWalHeaderBytes);
  EXPECT_FALSE(FileSystem::Default()->FileExists(OldWalPathFor(path)));

  // The image now holds everything; a fresh open replays nothing.
  auto loaded = LoadTreeFromFile(path, LoadOptions(), &info);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(info.wal_records_replayed, 0u);
  ExpectTreesIdentical(loaded.value(), *pipeline->tree_handle());

  // Ingest continues through the same pipeline after compaction.
  const std::vector<uint64_t> extras = ExtraIds();
  PushAll(pipeline.get(),
          std::vector<uint64_t>(extras.begin() + 6, extras.end()));
  ASSERT_TRUE(pipeline->Close().ok());
  auto reopened = LoadTreeFromFile(path, LoadOptions(), &info);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(info.wal_records_replayed, extras.size() - 6);
  EXPECT_EQ(reopened.value().occupied(), ExpectedOccupied(extras.size()));
}

TEST(WalTest, IngestContinuesAfterTornTailRecovery) {
  const std::string path = TempPath("wal_continue.bst");
  MakeIngestedTree(path, 6, WalSyncPolicy::kEveryRecord);
  const std::string wal_path = WalPathFor(path);
  const std::string pristine = ReadFileBytes(wal_path);
  // Tear the last record in half.
  WriteFileBytes(wal_path,
                 pristine.substr(0, pristine.size() - kWalRecordBytes / 2));

  TreeLoadInfo info;
  auto loaded = LoadTreeFromFile(path, LoadOptions(), &info);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(info.wal_records_replayed, 5u);
  EXPECT_TRUE(info.wal_recovered_corruption);

  // Recovery hands the tree back for writing: the new writer continues
  // the sequence right behind the surviving prefix.
  auto tree = std::make_shared<BloomSampleTree>(std::move(loaded).value());
  std::unique_ptr<IngestPipeline> pipeline = OpenPipeline(
      tree, path, WalSyncPolicy::kEveryRecord, info.wal_records_replayed);
  const std::vector<uint64_t> extras = ExtraIds();
  PushAll(pipeline.get(), {extras[6], extras[7]});
  ASSERT_TRUE(pipeline->Close().ok());

  auto reopened = LoadTreeFromFile(path, LoadOptions(), &info);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(info.wal_records_replayed, 7u);
  EXPECT_FALSE(info.wal_recovered_corruption);
  ExpectTreesIdentical(reopened.value(), *tree);
}

TEST(WalTest, SyncPoliciesAllRecoverOnAHealthyDisk) {
  for (WalSyncPolicy policy : {WalSyncPolicy::kEveryRecord,
                               WalSyncPolicy::kInterval,
                               WalSyncPolicy::kNone}) {
    const std::string path =
        TempPath(std::string("wal_policy_") + WalSyncPolicyName(policy) +
                 ".bst");
    BloomSampleTree tree =
        MakeIngestedTree(path, ExtraIds().size(), policy);
    TreeLoadInfo info;
    auto loaded = LoadTreeFromFile(path, LoadOptions(), &info);
    ASSERT_TRUE(loaded.ok()) << WalSyncPolicyName(policy);
    EXPECT_EQ(info.wal_records_replayed, ExtraIds().size());
    ExpectTreesIdentical(loaded.value(), tree);
  }
}

TEST(WalTest, ReplayCanBeDisabled) {
  const std::string path = TempPath("wal_disabled.bst");
  MakeIngestedTree(path, ExtraIds().size(), WalSyncPolicy::kEveryRecord);
  LoadOptions options;
  options.replay_wal = false;
  TreeLoadInfo info;
  auto loaded = LoadTreeFromFile(path, options, &info);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(info.wal_records_replayed, 0u);
  EXPECT_EQ(loaded.value().occupied(), ExpectedOccupied(0));
}

}  // namespace
}  // namespace bloomsample
