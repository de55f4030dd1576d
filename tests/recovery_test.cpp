// Fences for lane auto-recovery (the supervisor in core/ingest_pipeline):
//   * a TRANSIENT latch — fsyncs failing ENOSPC while the disk is full —
//     heals without a restart once space frees: the supervisor waits for
//     the FreeSpace watermark, probes the log with a no-op record, clears
//     the latch, and the SAME pipeline (same writer threads, same queues)
//     commits new durable writes that survive a reboot;
//   * while the disk is still full the supervisor does NOT burn its probe
//     budget — an ENOSPC latch with no headroom parks until space frees;
//   * an EIO latch is PERMANENT (fsyncgate: the kernel may have dropped
//     the dirty pages) — the supervisor refuses to probe it and reports
//     recovery_gave_up, and the latch outlives the fault being cleared;
//   * a cause that keeps failing exhausts the attempt budget and goes
//     sticky instead of probing forever;
//   * Stats() surfaces the latch reason (message AND errno) plus the
//     recovery counters the CLI's `# lane status` line prints;
//   * quarantine: Quarantine(lane) durably marks the snapshot, mutations
//     fail fast with kQuarantined, the next open refuses the image, and
//     ClearQuarantineMarker lifts it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/ingest_pipeline.h"
#include "src/core/tree_io.h"
#include "src/util/fault_fs.h"

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

std::shared_ptr<BloomSampleTree> FreshBase(const std::string& path) {
  auto built = BloomSampleTree::BuildPruned(GoldenConfig(), BaseOccupied());
  EXPECT_TRUE(built.ok());
  EXPECT_TRUE(SaveTreeToFile(built.value(), path).ok());
  auto loaded = LoadTreeFromFile(path);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::make_shared<BloomSampleTree>(std::move(loaded).value());
}

IngestPipelineOptions RecoveryOptions(FaultInjectingFileSystem* fs) {
  IngestPipelineOptions options;
  options.wal.fs = fs;
  options.save.fs = fs;
  options.commit.backoff_base = std::chrono::microseconds(1);
  options.commit.max_repair_attempts = 2;
  options.recovery.backoff_base = std::chrono::milliseconds(1);
  options.recovery.poll_interval = std::chrono::milliseconds(1);
  return options;
}

/// Spins until `pred` holds or ~5 s pass.
template <typename Pred>
bool WaitFor(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(LaneRecoveryTest, TransientEnospcLatchAutoRecoversAndCommitsDurably) {
  FaultInjectingFileSystem fs;
  const std::string path = TempPath("recover_enospc.bst");
  auto pipeline =
      IngestPipeline::OpenTree(FreshBase(path), path, RecoveryOptions(&fs));
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  IngestPipeline& pipe = *pipeline.value();

  ASSERT_TRUE(pipe.Insert(6).ok());

  // Disk fills: every fsync fails ENOSPC, the repair budget drains, the
  // lane latches. Zero free space parks the supervisor.
  fs.SetFreeSpace(0);
  fs.FailSyncsAt(fs.sync_count() + 1, FaultInjectingFileSystem::kForever,
                 /*enospc=*/true);
  EXPECT_EQ(pipe.Insert(7).code(), Status::Code::kReadOnly);
  EXPECT_TRUE(pipe.read_only());
  {
    const IngestPipelineStats stats = pipe.Stats();
    ASSERT_EQ(stats.lanes.size(), 1u);
    EXPECT_TRUE(stats.lanes[0].read_only);
    EXPECT_EQ(stats.lanes[0].latch_errno, ENOSPC);
    EXPECT_FALSE(stats.lanes[0].latch_message.empty());
    EXPECT_FALSE(stats.lanes[0].recovery_gave_up);
  }

  // Space frees and the device heals: the supervisor probes, the latch
  // clears, and the same pipeline accepts writes again — no restart.
  fs.ClearFaults();
  ASSERT_TRUE(WaitFor([&] { return !pipe.read_only(); }));
  {
    const IngestPipelineStats stats = pipe.Stats();
    EXPECT_GE(stats.lanes[0].recover_attempts, 1u);
    EXPECT_GE(stats.lanes[0].recover_successes, 1u);
    EXPECT_FALSE(stats.lanes[0].recovery_gave_up);
  }
  ASSERT_TRUE(pipe.Insert(8).ok());
  WalMutation mut;
  mut.id = 9;
  ASSERT_TRUE(pipe.PushWithAck(mut).get().ok());
  ASSERT_TRUE(pipe.Close().ok());

  // Reboot: the post-recovery writes are durable; the write the latch
  // refused never resurfaces.
  fs.SimulateCrash();
  fs.ClearFaults();
  LoadOptions load;
  load.fs = &fs;
  auto recovered = LoadTreeFromFile(path, load);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const std::vector<uint64_t> occupied = recovered.value().OccupiedIds();
  EXPECT_TRUE(std::binary_search(occupied.begin(), occupied.end(), 6u));
  EXPECT_FALSE(std::binary_search(occupied.begin(), occupied.end(), 7u));
  EXPECT_TRUE(std::binary_search(occupied.begin(), occupied.end(), 8u));
  EXPECT_TRUE(std::binary_search(occupied.begin(), occupied.end(), 9u));
}

TEST(LaneRecoveryTest, EnospcProbesWaitForFreeSpaceWatermark) {
  FaultInjectingFileSystem fs;
  const std::string path = TempPath("recover_watermark.bst");
  auto pipeline =
      IngestPipeline::OpenTree(FreshBase(path), path, RecoveryOptions(&fs));
  ASSERT_TRUE(pipeline.ok());
  IngestPipeline& pipe = *pipeline.value();

  fs.SetFreeSpace(0);
  fs.FailSyncsAt(fs.sync_count() + 1, FaultInjectingFileSystem::kForever,
                 /*enospc=*/true);
  EXPECT_EQ(pipe.Insert(7).code(), Status::Code::kReadOnly);

  // Full disk: the supervisor must neither probe nor give up — give it
  // ample time to do the wrong thing.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    const IngestPipelineStats stats = pipe.Stats();
    EXPECT_EQ(stats.lanes[0].recover_attempts, 0u);
    EXPECT_FALSE(stats.lanes[0].recovery_gave_up);
    EXPECT_TRUE(pipe.read_only());
  }

  // Space frees (sync still broken): probes start burning budget now.
  fs.SetFreeSpace(1ull << 30);
  ASSERT_TRUE(WaitFor([&] { return pipe.Stats().lanes[0].recover_attempts >=
                                   1u; }));

  // And with the device still failing every fsync, the budget drains to a
  // sticky latch instead of probing forever.
  ASSERT_TRUE(WaitFor([&] { return pipe.Stats().lanes[0].recovery_gave_up; }));
  {
    const IngestPipelineStats stats = pipe.Stats();
    EXPECT_EQ(stats.lanes[0].recover_attempts,
              RecoveryOptions(&fs).recovery.max_attempts);
    EXPECT_EQ(stats.lanes[0].recover_successes, 0u);
  }
  fs.ClearFaults();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(pipe.read_only());  // sticky: budget spent, no more probes
  pipe.Close();
}

TEST(LaneRecoveryTest, EioLatchIsPermanentlySticky) {
  FaultInjectingFileSystem fs;
  const std::string path = TempPath("recover_eio.bst");
  auto pipeline =
      IngestPipeline::OpenTree(FreshBase(path), path, RecoveryOptions(&fs));
  ASSERT_TRUE(pipeline.ok());
  IngestPipeline& pipe = *pipeline.value();

  // EIO-flavored fsync failure: per fsyncgate the kernel may already have
  // dropped the pages, so "retry and trust success" would silently lose
  // data — the supervisor must refuse to probe at all.
  fs.FailSyncsAt(fs.sync_count() + 1, FaultInjectingFileSystem::kForever);
  EXPECT_EQ(pipe.Insert(7).code(), Status::Code::kReadOnly);

  ASSERT_TRUE(WaitFor([&] { return pipe.Stats().lanes[0].recovery_gave_up; }));
  {
    const IngestPipelineStats stats = pipe.Stats();
    EXPECT_EQ(stats.lanes[0].latch_errno, EIO);
    EXPECT_EQ(stats.lanes[0].recover_attempts, 0u);  // never probed
  }

  // Even a healed device does not lift it: the acknowledged-equals-durable
  // promise was already broken once.
  fs.ClearFaults();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(pipe.read_only());
  EXPECT_EQ(pipe.Insert(8).code(), Status::Code::kReadOnly);
  pipe.Close();
}

TEST(LaneRecoveryTest, DisabledSupervisorLeavesLatchAlone) {
  FaultInjectingFileSystem fs;
  const std::string path = TempPath("recover_disabled.bst");
  IngestPipelineOptions options = RecoveryOptions(&fs);
  options.recovery.enabled = false;
  auto pipeline = IngestPipeline::OpenTree(FreshBase(path), path, options);
  ASSERT_TRUE(pipeline.ok());
  IngestPipeline& pipe = *pipeline.value();

  fs.FailSyncsAt(fs.sync_count() + 1, FaultInjectingFileSystem::kForever,
                 /*enospc=*/true);
  EXPECT_EQ(pipe.Insert(7).code(), Status::Code::kReadOnly);
  fs.ClearFaults();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(pipe.read_only());
  EXPECT_EQ(pipe.Stats().lanes[0].recover_attempts, 0u);
  pipe.Close();
}

TEST(LaneRecoveryTest, QuarantineFailsMutationsAndRefusesNextOpen) {
  const std::string path = TempPath("recover_quarantine.bst");
  IngestPipelineOptions options;
  auto pipeline = IngestPipeline::OpenTree(FreshBase(path), path, options);
  ASSERT_TRUE(pipeline.ok());
  IngestPipeline& pipe = *pipeline.value();

  ASSERT_TRUE(pipe.Insert(6).ok());
  ASSERT_TRUE(pipe.Quarantine(0, "test: unrepairable corruption").ok());
  EXPECT_TRUE(pipe.lane_quarantined(0));
  EXPECT_EQ(pipe.Insert(7).code(), Status::Code::kQuarantined);
  WalMutation mut;
  mut.id = 8;
  EXPECT_EQ(pipe.Push(mut).code(), Status::Code::kQuarantined);
  {
    const IngestPipelineStats stats = pipe.Stats();
    EXPECT_TRUE(stats.lanes[0].quarantined);
  }
  // Reads keep serving the acked state (degraded, not down).
  {
    auto guard = pipe.AcquireRead();
    const std::vector<uint64_t> occupied = guard.tree().OccupiedIds();
    EXPECT_TRUE(std::binary_search(occupied.begin(), occupied.end(), 6u));
  }
  pipe.Close();

  // The marker is durable and gates the next open…
  EXPECT_TRUE(IsQuarantined(path));
  auto refused = LoadTreeFromFile(path);
  EXPECT_EQ(refused.status().code(), Status::Code::kQuarantined);
  EXPECT_EQ(VerifySnapshotFile(path).code(), Status::Code::kQuarantined);

  // …until an operator restores the file and lifts it.
  ASSERT_TRUE(ClearQuarantineMarker(path).ok());
  auto reopened = LoadTreeFromFile(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const std::vector<uint64_t> occupied = reopened.value().OccupiedIds();
  EXPECT_TRUE(std::binary_search(occupied.begin(), occupied.end(), 6u));
}

}  // namespace
}  // namespace bloomsample
