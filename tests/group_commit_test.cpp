// Fences for leader–follower group commit (core/group_commit.h):
//   * a multi-record Commit under kEveryRecord costs ONE fsync, and the
//     log replays every committed record;
//   * concurrent committers all get acked and the log holds exactly their
//     union — grouping never drops or duplicates a record;
//   * a transient injected fsync failure (EIO — the fsyncgate scenario)
//     is repaired within the retry budget: the commit still acks OK and
//     nothing is lost, because Repair truncates to the durable prefix and
//     re-appends rather than re-fsyncing the poisoned descriptor;
//   * a persistent fsync failure exhausts the budget and LATCHES the
//     writer read-only — the failed commit and every later one return
//     kReadOnly, and after a crash the log replays exactly the acked set
//     (never a nacked record under kEveryRecord);
//   * Fence() forces durability under kNone;
//   * Rotate freezes the log at `.wal.old` and restarts sequence numbers
//     on a fresh `.wal`, with both halves independently replayable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/group_commit.h"
#include "src/core/tree_config.h"
#include "src/core/wal.h"
#include "src/util/fault_fs.h"

namespace bloomsample {
namespace {

std::string TempPath(const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".old").c_str());
  return path;
}

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

std::unique_ptr<GroupCommitWal> OpenCommitWal(const std::string& path,
                                              FileSystem* fs,
                                              WalSyncPolicy policy,
                                              GroupCommitOptions gc_options =
                                                  GroupCommitOptions()) {
  WalOptions options;
  options.policy = policy;
  options.fs = fs;
  auto writer =
      WalWriter::Open(path, WalConfigFingerprint(GoldenConfig()), 1, options);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  return std::make_unique<GroupCommitWal>(std::move(writer).value(),
                                          gc_options);
}

std::set<uint64_t> ReplayIds(const std::string& path, FileSystem* fs) {
  std::set<uint64_t> ids;
  auto stats = ReplayWal(path, WalConfigFingerprint(GoldenConfig()),
                         [&](const WalRecord& rec) {
                           ids.insert(rec.id);
                           return Status::OK();
                         },
                         fs);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return ids;
}

TEST(GroupCommitTest, BatchCommitCostsOneFsync) {
  FaultInjectingFileSystem fs;
  const std::string path = TempPath("gc_batch.wal");
  auto gc = OpenCommitWal(path, &fs, WalSyncPolicy::kEveryRecord);
  const uint64_t header_syncs = gc->fsync_count();

  std::vector<WalMutation> batch(64);
  for (uint64_t i = 0; i < batch.size(); ++i) batch[i].id = i;
  ASSERT_TRUE(gc->Commit(batch).ok());

  EXPECT_EQ(gc->fsync_count() - header_syncs, 1u);
  EXPECT_EQ(gc->commit_count(), 1u);
  EXPECT_EQ(ReplayIds(path, &fs).size(), 64u);
}

TEST(GroupCommitTest, ConcurrentCommittersAllAckedUnionOnDisk) {
  FaultInjectingFileSystem fs;
  const std::string path = TempPath("gc_concurrent.wal");
  auto gc = OpenCommitWal(path, &fs, WalSyncPolicy::kEveryRecord);

  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gc, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(
            gc->Commit({{WalOp::kInsert, t * kPerThread + i}}).ok());
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(gc->commit_count(), kThreads * kPerThread);
  // The whole point: groups share fences, so leader rounds (each = at
  // most one fsync) never exceed commits, and every commit is on disk.
  EXPECT_LE(gc->group_count(), gc->commit_count());
  const std::set<uint64_t> ids = ReplayIds(path, &fs);
  EXPECT_EQ(ids.size(), kThreads * kPerThread);
}

TEST(GroupCommitTest, TransientFsyncFailureIsRepairedWithoutLoss) {
  FaultInjectingFileSystem fs;
  const std::string path = TempPath("gc_transient.wal");
  GroupCommitOptions gc_options;
  gc_options.backoff_base = std::chrono::microseconds(1);
  auto gc =
      OpenCommitWal(path, &fs, WalSyncPolicy::kEveryRecord, gc_options);

  ASSERT_TRUE(gc->Commit({{WalOp::kInsert, 1}}).ok());
  // The NEXT file fsync fails once (EIO); repair must truncate+reopen+
  // re-append — the commit still acks and nothing is lost.
  fs.FailSyncsAt(fs.sync_count() + 1, 1);
  ASSERT_TRUE(gc->Commit({{WalOp::kInsert, 2}}).ok());
  EXPECT_FALSE(gc->read_only());
  ASSERT_TRUE(gc->Commit({{WalOp::kInsert, 3}}).ok());

  fs.SimulateCrash();
  fs.ClearFaults();
  EXPECT_EQ(ReplayIds(path, &fs), (std::set<uint64_t>{1, 2, 3}));
}

TEST(GroupCommitTest, PersistentFsyncFailureLatchesReadOnly) {
  FaultInjectingFileSystem fs;
  const std::string path = TempPath("gc_persistent.wal");
  GroupCommitOptions gc_options;
  gc_options.max_repair_attempts = 2;
  gc_options.backoff_base = std::chrono::microseconds(1);
  auto gc =
      OpenCommitWal(path, &fs, WalSyncPolicy::kEveryRecord, gc_options);

  ASSERT_TRUE(gc->Commit({{WalOp::kInsert, 10}}).ok());
  fs.FailSyncsAt(fs.sync_count() + 1, FaultInjectingFileSystem::kForever);

  const Status failed = gc->Commit({{WalOp::kInsert, 20}});
  EXPECT_EQ(failed.code(), Status::Code::kReadOnly) << failed.ToString();
  EXPECT_TRUE(gc->read_only());
  EXPECT_EQ(gc->read_only_status().code(), Status::Code::kReadOnly);

  // Sticky: later commits fail fast without touching the file.
  const uint64_t ops_before = fs.op_count();
  EXPECT_EQ(gc->Commit({{WalOp::kInsert, 30}}).code(),
            Status::Code::kReadOnly);
  EXPECT_EQ(fs.op_count(), ops_before);

  // kEveryRecord exactness: after a crash the log replays exactly the
  // acked set — the nacked ids 20/30 must NOT appear.
  fs.SimulateCrash();
  fs.ClearFaults();
  EXPECT_EQ(ReplayIds(path, &fs), (std::set<uint64_t>{10}));
}

TEST(GroupCommitTest, FenceForcesDurabilityUnderNoSyncPolicy) {
  FaultInjectingFileSystem fs;
  const std::string path = TempPath("gc_fence.wal");
  auto gc = OpenCommitWal(path, &fs, WalSyncPolicy::kNone);

  ASSERT_TRUE(gc->Commit({{WalOp::kInsert, 7}}).ok());
  ASSERT_TRUE(gc->Fence().ok());
  ASSERT_TRUE(gc->Commit({{WalOp::kInsert, 8}}).ok());  // unfenced tail

  fs.SimulateCrash();
  fs.ClearFaults();
  // The fence covered 7; the crash may legally drop the unfenced 8.
  const std::set<uint64_t> ids = ReplayIds(path, &fs);
  EXPECT_TRUE(ids.count(7));
  EXPECT_FALSE(ids.count(8));
}

TEST(GroupCommitTest, RotateFreezesOldEpochAndRestartsSequences) {
  FaultInjectingFileSystem fs;
  const std::string path = TempPath("gc_rotate.wal");
  const std::string old_path = path + ".old";
  auto gc = OpenCommitWal(path, &fs, WalSyncPolicy::kEveryRecord);

  ASSERT_TRUE(gc->Commit({{WalOp::kInsert, 100}}).ok());
  ASSERT_TRUE(gc->Commit({{WalOp::kInsert, 101}}).ok());
  ASSERT_TRUE(gc->Rotate(old_path).ok());
  ASSERT_TRUE(gc->Commit({{WalOp::kInsert, 200}}).ok());

  // Both epochs replay independently, each with its own dense sequence
  // space starting at 1.
  std::vector<uint64_t> old_seqs;
  EXPECT_EQ(ReplayIds(old_path, &fs), (std::set<uint64_t>{100, 101}));
  auto stats = ReplayWal(path, WalConfigFingerprint(GoldenConfig()),
                         [&](const WalRecord& rec) {
                           EXPECT_EQ(rec.seq, 1u);
                           EXPECT_EQ(rec.id, 200u);
                           return Status::OK();
                         },
                         &fs);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().records_replayed, 1u);

  // Rotation survives a crash: both files were fenced (dirsync included).
  fs.SimulateCrash();
  fs.ClearFaults();
  EXPECT_EQ(ReplayIds(old_path, &fs), (std::set<uint64_t>{100, 101}));
  EXPECT_EQ(ReplayIds(path, &fs), (std::set<uint64_t>{200}));
}

TEST(GroupCommitTest, RotateConcurrentWithCommitters) {
  FaultInjectingFileSystem fs;
  const std::string path = TempPath("gc_rotate_live.wal");
  const std::string old_path = path + ".old";
  auto gc = OpenCommitWal(path, &fs, WalSyncPolicy::kEveryRecord);

  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 40;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gc, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(
            gc->Commit({{WalOp::kInsert, t * kPerThread + i}}).ok());
      }
    });
  }
  ASSERT_TRUE(gc->Rotate(old_path).ok());
  for (auto& th : threads) th.join();

  // No record lost or duplicated across the epoch boundary.
  std::set<uint64_t> all = ReplayIds(old_path, &fs);
  size_t old_count = all.size();
  const std::set<uint64_t> fresh = ReplayIds(path, &fs);
  for (uint64_t id : fresh) {
    EXPECT_TRUE(all.insert(id).second) << "id " << id << " in both epochs";
  }
  EXPECT_EQ(old_count + fresh.size(), kThreads * kPerThread);
  EXPECT_EQ(all.size(), kThreads * kPerThread);
}

}  // namespace
}  // namespace bloomsample
