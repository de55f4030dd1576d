// The crash matrix: every mutating filesystem operation in the ingest,
// save, and compaction paths is a kill point. Each scenario first runs
// fault-free through a FaultInjectingFileSystem to count its operations,
// then re-runs once per kill point n — the simulated machine dies before
// operation n takes effect — and "reboots" by reopening the surviving
// files with the real filesystem. Every log is written by IngestPipeline,
// the one write path. The invariants:
//
//   * ingest: recovery holds EXACTLY the base set plus the acknowledged
//     inserts (kEveryRecord policy: acknowledged == durable), bit-identical
//     across heap and mmap reopens;
//   * compaction (the pipeline's, also from a stale `.wal.old` a crashed
//     compaction left): recovery always equals the full pre-compaction
//     state, the image is the complete old or the complete new one —
//     never torn — and every log on disk is one the sequence can produce,
//     never a half-log;
//   * save-over-existing: a save that fails (any op, including ENOSPC)
//     leaves the old snapshot byte-identical;
//   * forest compaction: same recovery invariant across the manifest and
//     every shard image/log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/bloom_sample_forest.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/tree_io.h"
#include "src/core/wal.h"
#include "src/util/fault_fs.h"

namespace bloomsample {
namespace {

constexpr size_t kWalHeaderBytes = 32;

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

std::vector<uint64_t> ExtraIds() {
  return {4000, 13, 2048, 700, 3999, 64, 1500, 2047, 311, 4095, 8, 901};
}

/// TempDir() survives across runs; stale snapshots or logs would pollute
/// the pre-state these scenarios build, so every path starts scrubbed.
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

/// The file's bytes, or "" when it does not exist.
std::string ReadIfExists(const std::string& path) {
  return FileSystem::Default()->FileExists(path) ? ReadFileBytes(path) : "";
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::vector<uint64_t> SortedUnion(std::vector<uint64_t> base,
                                  const std::vector<uint64_t>& more) {
  base.insert(base.end(), more.begin(), more.end());
  std::sort(base.begin(), base.end());
  base.erase(std::unique(base.begin(), base.end()), base.end());
  return base;
}

void ExpectTreesIdentical(const BloomSampleTree& a, const BloomSampleTree& b) {
  EXPECT_EQ(a.occupied(), b.occupied());
  ASSERT_EQ(a.node_count(), b.node_count());
  for (size_t id = 0; id < a.node_count(); ++id) {
    const auto& na = a.node(static_cast<int64_t>(id));
    const auto& nb = b.node(static_cast<int64_t>(id));
    ASSERT_EQ(na.lo, nb.lo) << "id=" << id;
    ASSERT_EQ(na.hi, nb.hi) << "id=" << id;
    ASSERT_EQ(na.left, nb.left) << "id=" << id;
    ASSERT_EQ(na.right, nb.right) << "id=" << id;
    ASSERT_EQ(na.set_bits, nb.set_bits) << "id=" << id;
    ASSERT_EQ(na.filter.bits(), nb.filter.bits()) << "id=" << id;
  }
}

TEST(CrashMatrixTest, IngestDiesAtEveryKillPoint) {
  const std::string path = TempPath("crash_ingest.bst");
  const std::string wal_path = WalPathFor(path);
  auto built = BloomSampleTree::BuildPruned(GoldenConfig(), BaseOccupied());
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(SaveTreeToFile(built.value(), path).ok());
  const std::string snapshot_bytes = ReadFileBytes(path);
  const std::vector<uint64_t> extras = ExtraIds();

  // The sequence under test: open the snapshot, open a pipeline with a
  // fresh log and the strictest policy, ingest one acknowledged push at a
  // time. Stops at the first error, like a process whose machine just
  // died.
  auto run = [&](FaultInjectingFileSystem* fs, std::vector<uint64_t>* acked) {
    LoadOptions load_options;
    load_options.fs = fs;
    TreeLoadInfo info;
    auto loaded = LoadTreeFromFile(path, load_options, &info);
    if (!loaded.ok()) return;
    IngestPipelineOptions options;
    options.wal.policy = WalSyncPolicy::kEveryRecord;
    options.wal.fs = fs;
    options.commit.max_repair_attempts = 1;
    options.commit.backoff_base = std::chrono::microseconds(1);
    auto pipeline = IngestPipeline::OpenTree(
        std::make_shared<BloomSampleTree>(std::move(loaded).value()), path,
        options, info.wal_records_replayed + 1);
    if (!pipeline.ok()) return;
    for (uint64_t id : extras) {
      WalMutation mut;
      mut.id = id;
      if (!pipeline.value()->PushWithAck(mut).get().ok()) break;
      acked->push_back(id);
    }
    (void)pipeline.value()->Close();  // post-crash close errors are expected
  };

  auto restore = [&]() {
    WriteFileBytes(path, snapshot_bytes);
    std::remove(wal_path.c_str());
  };

  // Fault-free run to learn the sequence's operation count.
  restore();
  uint64_t total_ops = 0;
  {
    FaultInjectingFileSystem fs;
    std::vector<uint64_t> acked;
    run(&fs, &acked);
    ASSERT_EQ(acked.size(), extras.size());
    total_ops = fs.op_count();
  }
  ASSERT_GT(total_ops, extras.size());  // at least one op per insert

  // total_ops+1 never fires during the run — that enumerates "crash after
  // the last operation".
  for (uint64_t kill = 1; kill <= total_ops + 1; ++kill) {
    restore();
    FaultInjectingFileSystem fs;
    fs.CrashAtOp(kill);
    std::vector<uint64_t> acked;
    run(&fs, &acked);
    if (!fs.crashed()) fs.SimulateCrash();

    // Reboot on the real filesystem: exactly base + acknowledged must
    // come back — an acknowledged insert may never be lost (the policy
    // fsynced it before Insert returned), an unacknowledged one may
    // never appear (its record was torn or unsynced, so replay drops it).
    const std::vector<uint64_t> expected =
        SortedUnion(BaseOccupied(), acked);
    LoadOptions heap;
    heap.mode = LoadMode::kHeap;
    TreeLoadInfo info;
    auto recovered = LoadTreeFromFile(path, heap, &info);
    ASSERT_TRUE(recovered.ok())
        << "kill=" << kill << ": " << recovered.status().ToString();
    EXPECT_EQ(recovered.value().occupied(), expected) << "kill=" << kill;
    EXPECT_EQ(info.wal_records_replayed, acked.size()) << "kill=" << kill;

    // The two load modes must agree bit for bit on the recovered tree.
    LoadOptions mmap;
    mmap.mode = LoadMode::kMmap;
    auto recovered_mmap = LoadTreeFromFile(path, mmap);
    ASSERT_TRUE(recovered_mmap.ok()) << "kill=" << kill;
    ExpectTreesIdentical(recovered.value(), recovered_mmap.value());
  }
}

TEST(CrashMatrixTest, FailedSaveLeavesOldSnapshotByteIdentical) {
  const std::string path = TempPath("crash_save.bst");
  auto old_tree = BloomSampleTree::BuildPruned(GoldenConfig(), BaseOccupied());
  ASSERT_TRUE(old_tree.ok());
  ASSERT_TRUE(SaveTreeToFile(old_tree.value(), path).ok());
  const std::string old_image = ReadFileBytes(path);

  auto new_tree = BloomSampleTree::BuildPruned(
      GoldenConfig(), SortedUnion(BaseOccupied(), ExtraIds()));
  ASSERT_TRUE(new_tree.ok());

  // Learn the save's op count.
  uint64_t total_ops = 0;
  {
    FaultInjectingFileSystem fs;
    SaveOptions options;
    options.fs = &fs;
    ASSERT_TRUE(SaveTreeToFile(new_tree.value(), path, options).ok());
    total_ops = fs.op_count();
  }
  WriteFileBytes(path, old_image);

  for (uint64_t fail = 1; fail <= total_ops; ++fail) {
    for (bool enospc : {false, true}) {
      WriteFileBytes(path, old_image);
      std::remove((path + ".tmp").c_str());
      FaultInjectingFileSystem fs;
      fs.FailAtOp(fail, enospc);
      SaveOptions options;
      options.fs = &fs;
      const Status st = SaveTreeToFile(new_tree.value(), path, options);
      // The final ops land after the rename: once the swap happened the
      // save may legitimately succeed-or-fail late, but EVERY failure
      // must leave the destination as a complete image.
      const std::string image_now = ReadFileBytes(path);
      if (!st.ok()) {
        EXPECT_TRUE(image_now == old_image ||
                    image_now == ReadFileBytes(path))
            << "fail=" << fail;
        if (image_now != old_image) {
          // Failed after the swap (e.g. in the directory fsync): the new
          // image must still be complete and loadable.
          auto check = LoadTreeFromFile(path);
          EXPECT_TRUE(check.ok()) << "fail=" << fail;
        }
      } else {
        auto check = LoadTreeFromFile(path);
        EXPECT_TRUE(check.ok()) << "fail=" << fail;
      }
      // A failed save must never leave the destination torn: it always
      // parses as one of the two complete trees.
      auto loaded = LoadTreeFromFile(path);
      ASSERT_TRUE(loaded.ok()) << "fail=" << fail << " enospc=" << enospc
                               << ": " << loaded.status().ToString();
      const size_t got = loaded.value().occupied().size();
      EXPECT_TRUE(got == BaseOccupied().size() ||
                  got == BaseOccupied().size() + ExtraIds().size())
          << "fail=" << fail;
    }
  }
}

TEST(CrashMatrixTest, ForestCompactionDiesAtEveryKillPoint) {
  const std::string path = TempPath("crash_forest.bsf");
  for (uint32_t s = 0; s < 2; ++s) {
    const std::string shard = ForestShardPath(path, s);
    std::remove(shard.c_str());
    std::remove(WalPathFor(shard).c_str());
    std::remove((shard + ".tmp").c_str());
  }
  ForestConfig config;
  config.tree = GoldenConfig();
  config.shards = 2;
  const std::vector<uint64_t> extras = ExtraIds();

  // Pre-state: a saved 2-shard forest with per-shard logs holding the
  // records a forest pipeline ingested.
  {
    auto built = BloomSampleForest::BuildPruned(config, BaseOccupied());
    ASSERT_TRUE(built.ok());
    BloomSampleForest forest = std::move(built).value();
    ASSERT_TRUE(SaveForestToFile(forest, path).ok());
    auto pipeline =
        IngestPipeline::OpenForest(&forest, path, IngestPipelineOptions());
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    for (uint64_t id : extras) ASSERT_TRUE(pipeline.value()->Insert(id).ok());
    ASSERT_TRUE(pipeline.value()->Close().ok());
  }
  std::vector<std::string> files = {path, ForestShardPath(path, 0),
                                    ForestShardPath(path, 1),
                                    WalPathFor(ForestShardPath(path, 0)),
                                    WalPathFor(ForestShardPath(path, 1))};
  std::vector<std::string> pristine;
  for (const std::string& f : files) pristine.push_back(ReadFileBytes(f));
  const std::vector<uint64_t> expected =
      SortedUnion(BaseOccupied(), extras);

  auto run = [&](FaultInjectingFileSystem* fs) {
    LoadOptions load_options;
    load_options.fs = fs;
    ForestLoadInfo info;
    auto loaded = LoadForestFromFile(path, load_options, &info);
    if (!loaded.ok()) return;
    BloomSampleForest forest = std::move(loaded).value();
    SaveOptions save_options;
    save_options.fs = fs;
    (void)CompactForest(&forest, path, save_options);
  };

  auto restore = [&]() {
    for (size_t i = 0; i < files.size(); ++i) {
      WriteFileBytes(files[i], pristine[i]);
    }
    for (const std::string& f : files) std::remove((f + ".tmp").c_str());
  };

  restore();
  uint64_t total_ops = 0;
  {
    FaultInjectingFileSystem fs;
    run(&fs);
    total_ops = fs.op_count();
  }
  ASSERT_GT(total_ops, 0u);

  for (uint64_t kill = 1; kill <= total_ops + 1; ++kill) {
    restore();
    FaultInjectingFileSystem fs;
    fs.CrashAtOp(kill);
    run(&fs);
    if (!fs.crashed()) fs.SimulateCrash();

    ForestLoadInfo info;
    auto recovered = LoadForestFromFile(path, LoadOptions(), &info);
    ASSERT_TRUE(recovered.ok())
        << "kill=" << kill << ": " << recovered.status().ToString();
    std::vector<uint64_t> occupied;
    for (uint32_t s = 0; s < recovered.value().shard_count(); ++s) {
      const auto& shard_occ = recovered.value().shard(s).occupied();
      occupied.insert(occupied.end(), shard_occ.begin(), shard_occ.end());
    }
    std::sort(occupied.begin(), occupied.end());
    EXPECT_EQ(occupied, expected) << "kill=" << kill;
  }
}

/// Disjoint per-writer id streams for the concurrent matrix (all avoid
/// the base residue 5 mod 27 and each other by residue class mod 4).
std::vector<uint64_t> ConcurrentWriterIds(int writer) {
  std::vector<uint64_t> ids;
  for (uint64_t x = 0; x < 4096 && ids.size() < 10; ++x) {
    if (x % 4 != static_cast<uint64_t>(writer)) continue;
    if (x % 27 == 5) continue;
    ids.push_back(x * 37 % 4096 / 4 * 4 + writer);  // scatter, keep residue
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<uint64_t> filtered;
  for (uint64_t id : ids) {
    if (id % 27 != 5) filtered.push_back(id);
  }
  return filtered;
}

TEST(CrashMatrixTest, ConcurrentIngestDiesAtEveryKillPoint) {
  // The tentpole fence: 4 writer threads through the ingest pipeline,
  // killed at every filesystem operation — INCLUDING mid-group-commit,
  // since concurrent committers form multi-batch fsync groups — for every
  // sync policy. Under kEveryRecord recovery must hold EXACTLY base ∪
  // acknowledged; under kInterval/kNone the sandwich base ⊆ recovered ⊆
  // base ∪ attempted (the policy's bounded-loss window). Both load modes
  // must agree bit for bit.
  constexpr int kWriters = 4;
  const std::string path = TempPath("crash_concurrent.bst");
  const std::string wal_path = WalPathFor(path);
  auto built = BloomSampleTree::BuildPruned(GoldenConfig(), BaseOccupied());
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(SaveTreeToFile(built.value(), path).ok());
  const std::string snapshot_bytes = ReadFileBytes(path);

  std::vector<uint64_t> attempted_union;
  for (int w = 0; w < kWriters; ++w) {
    const auto ids = ConcurrentWriterIds(w);
    attempted_union.insert(attempted_union.end(), ids.begin(), ids.end());
  }
  const std::vector<uint64_t> max_state =
      SortedUnion(BaseOccupied(), attempted_union);

  for (const WalSyncPolicy policy :
       {WalSyncPolicy::kEveryRecord, WalSyncPolicy::kInterval,
        WalSyncPolicy::kNone}) {
    auto run = [&](FaultInjectingFileSystem* fs,
                   std::vector<uint64_t>* acked) {
      LoadOptions load_options;
      load_options.fs = fs;
      auto loaded = LoadTreeFromFile(path, load_options);
      if (!loaded.ok()) return;
      IngestPipelineOptions options;
      options.wal.policy = policy;
      options.wal.sync_interval = 4;
      options.wal.fs = fs;
      options.save.fs = fs;
      options.commit.max_repair_attempts = 2;
      options.commit.backoff_base = std::chrono::microseconds(1);
      auto pipeline = IngestPipeline::OpenTree(
          std::make_shared<BloomSampleTree>(std::move(loaded).value()),
          path, options);
      if (!pipeline.ok()) return;
      IngestPipeline& pipe = *pipeline.value();
      std::mutex acked_mu;
      std::vector<std::thread> writers;
      for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
          for (uint64_t id : ConcurrentWriterIds(w)) {
            if (!pipe.Insert(id).ok()) return;  // died mid-stream
            std::lock_guard<std::mutex> lock(acked_mu);
            acked->push_back(id);
          }
        });
      }
      for (auto& t : writers) t.join();
      (void)pipe.Close();  // post-crash close errors are expected
    };

    auto restore = [&]() {
      WriteFileBytes(path, snapshot_bytes);
      std::remove(wal_path.c_str());
      std::remove(OldWalPathFor(path).c_str());
    };

    restore();
    uint64_t total_ops = 0;
    {
      FaultInjectingFileSystem fs;
      std::vector<uint64_t> acked;
      run(&fs, &acked);
      ASSERT_EQ(SortedUnion({}, acked).size(), attempted_union.size());
      total_ops = fs.op_count();
    }
    ASSERT_GT(total_ops, 0u);

    // Thread interleaving varies the per-run op count; kill points past a
    // given run's end simply never fire (SimulateCrash covers them).
    for (uint64_t kill = 1; kill <= total_ops + 1; ++kill) {
      restore();
      FaultInjectingFileSystem fs;
      fs.CrashAtOp(kill);
      std::vector<uint64_t> acked;
      run(&fs, &acked);
      if (!fs.crashed()) fs.SimulateCrash();

      LoadOptions heap;
      heap.mode = LoadMode::kHeap;
      auto recovered = LoadTreeFromFile(path, heap);
      ASSERT_TRUE(recovered.ok())
          << "policy=" << WalSyncPolicyName(policy) << " kill=" << kill
          << ": " << recovered.status().ToString();
      const std::vector<uint64_t>& occupied = recovered.value().occupied();

      if (policy == WalSyncPolicy::kEveryRecord) {
        // Exactness: acknowledged ⟺ durable, nothing else.
        EXPECT_EQ(occupied, SortedUnion(BaseOccupied(), acked))
            << "policy=every kill=" << kill;
      } else {
        // Sandwich: nothing below base, nothing beyond what was tried.
        const std::vector<uint64_t> base = BaseOccupied();
        EXPECT_TRUE(std::includes(occupied.begin(), occupied.end(),
                                  base.begin(), base.end()))
            << "policy=" << WalSyncPolicyName(policy) << " kill=" << kill;
        EXPECT_TRUE(std::includes(max_state.begin(), max_state.end(),
                                  occupied.begin(), occupied.end()))
            << "policy=" << WalSyncPolicyName(policy) << " kill=" << kill;
      }

      LoadOptions mmap;
      mmap.mode = LoadMode::kMmap;
      auto recovered_mmap = LoadTreeFromFile(path, mmap);
      ASSERT_TRUE(recovered_mmap.ok()) << "kill=" << kill;
      ExpectTreesIdentical(recovered.value(), recovered_mmap.value());
    }
  }
}

/// Builds the compaction pre-state at `path`: the base image plus a log
/// of every ExtraIds record written through a pipeline. With `stale`, the
/// first half of them sits in a `.wal.old` — what a crash between a
/// compaction's rotation and its retirement of the frozen log leaves —
/// and the rest in a fresh `.wal`.
void MakeCompactionPreState(const std::string& path, bool stale) {
  auto built = BloomSampleTree::BuildPruned(GoldenConfig(), BaseOccupied());
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(SaveTreeToFile(built.value(), path).ok());
  const std::vector<uint64_t> extras = ExtraIds();
  const size_t split = stale ? extras.size() / 2 : extras.size();
  for (const auto& [begin, end] :
       {std::pair<size_t, size_t>{0, split}, {split, extras.size()}}) {
    if (begin == end) continue;
    TreeLoadInfo info;
    auto loaded = LoadTreeFromFile(path, LoadOptions(), &info);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    auto pipeline = IngestPipeline::OpenTree(
        std::make_shared<BloomSampleTree>(std::move(loaded).value()), path,
        IngestPipelineOptions(), info.wal_records_replayed + 1);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    for (size_t i = begin; i < end; ++i) {
      ASSERT_TRUE(pipeline.value()->Insert(extras[i]).ok());
    }
    ASSERT_TRUE(pipeline.value()->Close().ok());
    if (end == split && stale) {
      ASSERT_EQ(std::rename(WalPathFor(path).c_str(),
                            OldWalPathFor(path).c_str()),
                0);
    }
  }
}

TEST(CrashMatrixTest, PipelineCompactionDiesAtEveryKillPoint) {
  // Background compaction's rotate → save → delete-.wal.old sequence,
  // killed at every operation. The pre-state (image + 12 logged records)
  // must recover IN FULL at every kill point: rotation happens before the
  // snapshot, so the frozen .wal.old is always ⊆ the new image, and the
  // loaders replay .wal.old before .wal. The stale pre-state adds the
  // fold of a leftover .wal.old in front of that sequence.
  for (const bool stale : {false, true}) {
    SCOPED_TRACE(stale ? "stale .wal.old" : "one log");
    const std::string path = TempPath(stale ? "crash_pipe_compact_stale.bst"
                                            : "crash_pipe_compact.bst");
    const std::string wal_path = WalPathFor(path);
    const std::string old_wal_path = OldWalPathFor(path);
    MakeCompactionPreState(path, stale);
    const std::string old_image = ReadFileBytes(path);
    const std::string pre_wal = ReadFileBytes(wal_path);
    const std::string pre_old_wal = ReadIfExists(old_wal_path);
    ASSERT_EQ(pre_old_wal.empty(), !stale);
    const std::vector<uint64_t> expected =
        SortedUnion(BaseOccupied(), ExtraIds());

    auto run = [&](FaultInjectingFileSystem* fs) {
      LoadOptions load_options;
      load_options.fs = fs;
      TreeLoadInfo info;
      auto loaded = LoadTreeFromFile(path, load_options, &info);
      if (!loaded.ok()) return;
      IngestPipelineOptions options;
      options.wal.fs = fs;
      options.save.fs = fs;
      options.commit.max_repair_attempts = 1;
      options.commit.backoff_base = std::chrono::microseconds(1);
      auto pipeline = IngestPipeline::OpenTree(
          std::make_shared<BloomSampleTree>(std::move(loaded).value()), path,
          options, info.wal_records_replayed + 1);
      if (!pipeline.ok()) return;
      if (!pipeline.value()->TriggerCompaction().ok()) return;
      (void)pipeline.value()->WaitCompaction();
      (void)pipeline.value()->Close();
    };

    auto restore = [&]() {
      WriteFileBytes(path, old_image);
      WriteFileBytes(wal_path, pre_wal);
      if (stale) {
        WriteFileBytes(old_wal_path, pre_old_wal);
      } else {
        std::remove(old_wal_path.c_str());
      }
      std::remove((path + ".tmp").c_str());
    };

    // Fault-free run: learn the op count and capture the new image bytes
    // (the build is deterministic, so every run produces them bit for
    // bit). The frozen log is gone and the live one is header-only.
    restore();
    uint64_t total_ops = 0;
    std::string new_image;
    {
      FaultInjectingFileSystem fs;
      run(&fs);
      total_ops = fs.op_count();
      new_image = ReadFileBytes(path);
      ASSERT_NE(new_image, old_image);
      EXPECT_FALSE(FileSystem::Default()->FileExists(old_wal_path));
      auto wal_size = FileSystem::Default()->FileSize(wal_path);
      ASSERT_TRUE(wal_size.ok());
      EXPECT_EQ(wal_size.value(), kWalHeaderBytes);
    }
    ASSERT_GT(total_ops, 0u);

    for (uint64_t kill = 1; kill <= total_ops + 1; ++kill) {
      restore();
      FaultInjectingFileSystem fs;
      fs.CrashAtOp(kill);
      run(&fs);
      if (!fs.crashed()) fs.SimulateCrash();

      LoadOptions heap;
      heap.mode = LoadMode::kHeap;
      auto recovered = LoadTreeFromFile(path, heap);
      ASSERT_TRUE(recovered.ok())
          << "kill=" << kill << ": " << recovered.status().ToString();
      EXPECT_EQ(recovered.value().occupied(), expected) << "kill=" << kill;

      LoadOptions mmap;
      mmap.mode = LoadMode::kMmap;
      auto recovered_mmap = LoadTreeFromFile(path, mmap);
      ASSERT_TRUE(recovered_mmap.ok()) << "kill=" << kill;
      ExpectTreesIdentical(recovered.value(), recovered_mmap.value());

      // The on-disk matrix: the image is the complete old or the complete
      // new one (never torn). Each log is one the sequence can produce:
      // the live log is its pre-state bytes or a fresh header, the frozen
      // one a whole pre-state log — never half-truncated.
      const std::string image_now = ReadFileBytes(path);
      EXPECT_TRUE(image_now == old_image || image_now == new_image)
          << "kill=" << kill << ": torn image, " << image_now.size()
          << " bytes";
      const std::string wal_now = ReadIfExists(wal_path);
      const std::string old_wal_now = ReadIfExists(old_wal_path);
      EXPECT_TRUE(wal_now.empty() || wal_now == pre_wal ||
                  wal_now.size() == kWalHeaderBytes)
          << "kill=" << kill << ": log is " << wal_now.size() << " bytes";
      EXPECT_TRUE(old_wal_now.empty() || old_wal_now == pre_old_wal ||
                  old_wal_now == pre_wal)
          << "kill=" << kill << ": frozen log is " << old_wal_now.size()
          << " bytes";
      // And the old image never coexists with a lost log: every
      // pre-state record is still on disk, the live log possibly rotated.
      if (image_now == old_image) {
        if (stale) {
          EXPECT_TRUE(old_wal_now == pre_old_wal && wal_now == pre_wal)
              << "kill=" << kill;
        } else {
          EXPECT_TRUE(wal_now == pre_wal || old_wal_now == pre_wal)
              << "kill=" << kill;
        }
      }
    }
  }
}

}  // namespace
}  // namespace bloomsample
