// Fences for the concurrent ingest pipeline (core/ingest_pipeline.h):
//   * N writer threads through the sync path all get acked, the live tree
//     ends at exactly base ∪ inserted, and a reboot (image + WAL replay)
//     recovers the identical state — for heap AND mmap loads;
//   * readers overlapping writers (AcquireRead during concurrent Insert)
//     only ever observe acknowledged-prefix states: occupied is always
//     sorted/unique (never torn), always base ⊆ O ⊆ base ∪ extras, and a
//     reference tree serially rebuilt from the observed set samples
//     draw-for-draw identically — for every SIMD tier this host has;
//   * the queue path (Push/PushWithAck/Flush) delivers the same guarantee
//     with backpressure, and invalid mutations are refused BEFORE logging
//     so replay never applies what ingest rejected;
//   * a persistent fsync failure latches the pipeline read-only: writes
//     fail with kReadOnly, reads keep serving, and recovery replays
//     exactly the acked set;
//   * Remove flows end-to-end (counting-bloom leaves, WAL kRemove,
//     replay) and is refused without the counting backend;
//   * background compaction folds log into image while readers and
//     writers stay live: reader guards block the swap (never dangle),
//     retired trees stay valid through outstanding handles, a commit
//     acknowledged against the rotated-out log is drained into the
//     snapshot before the frozen log is deleted, and the on-disk
//     artifact stays recoverable at the end;
//   * forest pipelines route mutations to per-shard lanes and recover
//     shard-for-shard.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/bst_sampler.h"
#include "src/core/ingest_pipeline.h"
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

std::set<uint64_t> BaseSet() {
  const std::vector<uint64_t> base = BaseOccupied();
  return std::set<uint64_t>(base.begin(), base.end());
}

/// Ids the writers ingest, disjoint from BaseOccupied (which hits
/// 5 mod 27).
std::vector<uint64_t> WriterIds(int writer, uint64_t count) {
  std::vector<uint64_t> ids;
  for (uint64_t i = 0; ids.size() < count; ++i) {
    const uint64_t x = (writer * 1315423911u + i * 2654435761u) % 4096;
    if (x % 27 == 5) continue;
    if (std::find(ids.begin(), ids.end(), x) == ids.end()) ids.push_back(x);
  }
  return ids;
}

std::string TempPath(const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  std::remove((path + ".wal.old").c_str());
  return path;
}

/// Builds the base tree, saves it at `path`, and reloads it in `mode` —
/// the pipeline's starting state.
std::shared_ptr<BloomSampleTree> FreshBase(const std::string& path,
                                           LoadMode mode = LoadMode::kHeap) {
  auto built = BloomSampleTree::BuildPruned(GoldenConfig(), BaseOccupied());
  EXPECT_TRUE(built.ok());
  EXPECT_TRUE(SaveTreeToFile(built.value(), path).ok());
  LoadOptions load;
  load.mode = mode;
  auto loaded = LoadTreeFromFile(path, load);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::make_shared<BloomSampleTree>(std::move(loaded).value());
}

/// Draw-for-draw sampling equality: same query, same seeds, same draws.
void ExpectSamplesIdentical(const BloomSampleTree& a,
                            const BloomSampleTree& b) {
  ASSERT_EQ(a.occupied(), b.occupied());
  std::vector<uint64_t> members(a.occupied().begin(),
                                a.occupied().begin() +
                                    std::min<size_t>(a.occupied().size(), 40));
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

IngestPipelineOptions DefaultOptions(FileSystem* fs = nullptr) {
  IngestPipelineOptions options;
  options.wal.fs = fs;
  options.save.fs = fs;
  options.commit.backoff_base = std::chrono::microseconds(1);
  return options;
}

TEST(IngestPipelineTest, ConcurrentSyncWritersRecoverExactly) {
  for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
    const std::string path = TempPath("pipe_sync.bst");
    auto pipeline = IngestPipeline::OpenTree(FreshBase(path, mode), path,
                                             DefaultOptions());
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    IngestPipeline& pipe = *pipeline.value();

    constexpr int kWriters = 4;
    constexpr uint64_t kPerWriter = 64;
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&pipe, w] {
        for (uint64_t id : WriterIds(w, kPerWriter)) {
          ASSERT_TRUE(pipe.Insert(id).ok());
        }
      });
    }
    for (auto& t : writers) t.join();

    std::set<uint64_t> expected = BaseSet();
    for (int w = 0; w < kWriters; ++w) {
      for (uint64_t id : WriterIds(w, kPerWriter)) expected.insert(id);
    }
    {
      auto guard = pipe.AcquireRead();
      ASSERT_EQ(guard.tree().occupied().size(), expected.size());
      EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                             guard.tree().occupied().begin()));
    }
    const IngestPipelineStats stats = pipe.Stats();
    EXPECT_EQ(stats.committed_batches, kWriters * kPerWriter);
    EXPECT_LE(stats.commit_groups, stats.committed_batches);
    ASSERT_TRUE(pipe.Close().ok());

    // Reboot: image + WAL replay must equal the live end state,
    // draw-for-draw, in both load modes.
    for (const LoadMode reload : {LoadMode::kHeap, LoadMode::kMmap}) {
      LoadOptions load;
      load.mode = reload;
      auto recovered = LoadTreeFromFile(path, load);
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      auto reference = BloomSampleTree::BuildPruned(
          GoldenConfig(),
          std::vector<uint64_t>(expected.begin(), expected.end()));
      ASSERT_TRUE(reference.ok());
      ExpectSamplesIdentical(recovered.value(), reference.value());
    }
  }
}

TEST(IngestPipelineTest, ReadersOverlappingWritersSeeOnlyAckedPrefixes) {
  std::set<uint64_t> base = BaseSet();
  std::set<uint64_t> extras;
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 48;
  for (int w = 0; w < kWriters; ++w) {
    for (uint64_t id : WriterIds(w, kPerWriter)) extras.insert(id);
  }

  for (const simd::Level level :
       {simd::Level::kScalar, simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (!simd::LevelSupported(level)) continue;
    simd::ForceLevel(level);
    const std::string path = TempPath("pipe_overlap.bst");
    // kInterval: the mutation window is exercised at full speed instead of
    // being serialized behind per-record fsyncs.
    IngestPipelineOptions options = DefaultOptions();
    options.wal.policy = WalSyncPolicy::kInterval;
    auto pipeline = IngestPipeline::OpenTree(FreshBase(path), path, options);
    ASSERT_TRUE(pipeline.ok());
    IngestPipeline& pipe = *pipeline.value();

    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&pipe, w] {
        for (uint64_t id : WriterIds(w, kPerWriter)) {
          ASSERT_TRUE(pipe.Insert(id).ok());
        }
      });
    }
    std::vector<std::thread> readers;
    std::atomic<int> deep_checks{0};
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&] {
        while (!done.load()) {
          std::vector<uint64_t> observed;
          {
            auto guard = pipe.AcquireRead();
            observed = guard.tree().occupied();
          }
          // Never torn: strictly sorted; never anything but base ∪ a
          // subset of the acked writer ids.
          ASSERT_TRUE(std::is_sorted(observed.begin(), observed.end()));
          ASSERT_TRUE(
              std::adjacent_find(observed.begin(), observed.end()) ==
              observed.end());
          ASSERT_GE(observed.size(), base.size());
          for (uint64_t id : observed) {
            ASSERT_TRUE(base.count(id) || extras.count(id))
                << "phantom id " << id;
          }
          // Occasionally verify the strong form: the observed state is
          // draw-for-draw identical to a tree serially rebuilt from it.
          if (deep_checks.fetch_add(1) % 16 == 0) {
            auto guard = pipe.AcquireRead();
            auto reference = BloomSampleTree::BuildPruned(
                GoldenConfig(), guard.tree().occupied());
            ASSERT_TRUE(reference.ok());
            ExpectSamplesIdentical(guard.tree(), reference.value());
          }
        }
      });
    }
    for (auto& t : writers) t.join();
    done.store(true);
    for (auto& t : readers) t.join();
    ASSERT_TRUE(pipe.Close().ok());
  }
  simd::ForceLevel(simd::Level::kAvx512);  // restore widest supported
}

TEST(IngestPipelineTest, QueuePathAcksAndRecovers) {
  const std::string path = TempPath("pipe_queue.bst");
  IngestPipelineOptions options = DefaultOptions();
  options.queue_capacity = 64;  // force backpressure on the block policy
  auto pipeline = IngestPipeline::OpenTree(FreshBase(path), path, options);
  ASSERT_TRUE(pipeline.ok());
  IngestPipeline& pipe = *pipeline.value();

  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 64;
  std::vector<std::thread> producers;
  for (int w = 0; w < kProducers; ++w) {
    producers.emplace_back([&pipe, w] {
      std::vector<std::future<Status>> acks;
      for (uint64_t id : WriterIds(w, kPerProducer)) {
        WalMutation mut;
        mut.id = id;
        acks.push_back(pipe.PushWithAck(mut));
      }
      for (auto& ack : acks) ASSERT_TRUE(ack.get().ok());
    });
  }
  for (auto& t : producers) t.join();
  ASSERT_TRUE(pipe.Flush().ok());

  std::set<uint64_t> expected = BaseSet();
  for (int w = 0; w < kProducers; ++w) {
    for (uint64_t id : WriterIds(w, kPerProducer)) expected.insert(id);
  }
  {
    auto guard = pipe.AcquireRead();
    EXPECT_EQ(guard.tree().occupied().size(), expected.size());
  }
  ASSERT_TRUE(pipe.Close().ok());
  auto recovered = LoadTreeFromFile(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         recovered.value().occupied().begin()));
}

TEST(IngestPipelineTest, InvalidMutationsRefusedBeforeLogging) {
  const std::string path = TempPath("pipe_refuse.bst");
  auto pipeline =
      IngestPipeline::OpenTree(FreshBase(path), path, DefaultOptions());
  ASSERT_TRUE(pipeline.ok());
  IngestPipeline& pipe = *pipeline.value();

  // Out of range, sync path.
  EXPECT_EQ(pipe.Insert(4096).code(), Status::Code::kOutOfRange);
  // Remove without the counting backend — sync and queue paths.
  EXPECT_EQ(pipe.Remove(5).code(), Status::Code::kUnsupported);
  WalMutation bad;
  bad.op = WalOp::kRemove;
  bad.id = 5;
  // Both refusals pushed fire-and-forget: Push reports backpressure only,
  // so the Flush that fences them must report the first refusal — and
  // only once: the next Flush covers nothing that failed.
  WalMutation out_of_range;
  out_of_range.id = 4096;
  EXPECT_TRUE(pipe.Push(out_of_range).ok());
  EXPECT_TRUE(pipe.Push(bad).ok());
  EXPECT_EQ(pipe.Flush().code(), Status::Code::kOutOfRange);
  EXPECT_TRUE(pipe.Flush().ok());
  EXPECT_EQ(pipe.PushWithAck(bad).get().code(), Status::Code::kUnsupported);
  ASSERT_TRUE(pipe.Insert(6).ok());
  ASSERT_TRUE(pipe.Close().ok());

  // Exactly ONE record may be on disk: the accepted insert. The refused
  // mutations must never have been logged (replay would diverge).
  uint64_t replayed = 0;
  auto stats = ReplayWal(WalPathFor(path),
                         WalConfigFingerprint(GoldenConfig()),
                         [&](const WalRecord& rec) {
                           ++replayed;
                           EXPECT_EQ(rec.id, 6u);
                           EXPECT_EQ(rec.op, WalOp::kInsert);
                           return Status::OK();
                         });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(replayed, 1u);
}

TEST(IngestPipelineTest, PersistentFsyncFailureLatchesWritesReadsServe) {
  FaultInjectingFileSystem fs;
  const std::string path = TempPath("pipe_latch.bst");
  IngestPipelineOptions options = DefaultOptions(&fs);
  options.commit.max_repair_attempts = 2;
  auto pipeline = IngestPipeline::OpenTree(FreshBase(path), path, options);
  ASSERT_TRUE(pipeline.ok());
  IngestPipeline& pipe = *pipeline.value();

  ASSERT_TRUE(pipe.Insert(6).ok());
  fs.FailSyncsAt(fs.sync_count() + 1, FaultInjectingFileSystem::kForever);

  EXPECT_EQ(pipe.Insert(7).code(), Status::Code::kReadOnly);
  EXPECT_TRUE(pipe.read_only());
  EXPECT_EQ(pipe.read_only_status().code(), Status::Code::kReadOnly);
  WalMutation mut;
  mut.id = 8;
  EXPECT_EQ(pipe.Push(mut).code(), Status::Code::kReadOnly);

  // Degraded, not down: reads keep serving the acked state.
  {
    auto guard = pipe.AcquireRead();
    const auto& occupied = guard.tree().occupied();
    EXPECT_TRUE(std::binary_search(occupied.begin(), occupied.end(), 6u));
    EXPECT_FALSE(std::binary_search(occupied.begin(), occupied.end(), 7u));
  }
  pipe.Close();  // close status reflects the latched log; ignore here

  // Recovery replays exactly the acked set: 6 in, 7/8 out.
  fs.SimulateCrash();
  fs.ClearFaults();
  LoadOptions load;
  load.fs = &fs;
  auto recovered = LoadTreeFromFile(path, load);
  ASSERT_TRUE(recovered.ok());
  const auto& occupied = recovered.value().occupied();
  EXPECT_TRUE(std::binary_search(occupied.begin(), occupied.end(), 6u));
  EXPECT_FALSE(std::binary_search(occupied.begin(), occupied.end(), 7u));
  EXPECT_FALSE(std::binary_search(occupied.begin(), occupied.end(), 8u));
}

TEST(IngestPipelineTest, RemoveFlowsEndToEndThroughReplay) {
  const std::string path = TempPath("pipe_remove.bst");
  auto pipeline =
      IngestPipeline::OpenTree(FreshBase(path), path, DefaultOptions());
  ASSERT_TRUE(pipeline.ok());
  IngestPipeline& pipe = *pipeline.value();
  ASSERT_TRUE(pipe.EnableCountingLeaves().ok());

  ASSERT_TRUE(pipe.Insert(6).ok());
  ASSERT_TRUE(pipe.Insert(7).ok());
  ASSERT_TRUE(pipe.Remove(6).ok());
  ASSERT_TRUE(pipe.Remove(5).ok());  // a base id
  WalMutation mut;
  mut.op = WalOp::kRemove;
  mut.id = 32;  // base id (32 % 27 == 5)
  ASSERT_TRUE(pipe.PushWithAck(mut).get().ok());

  std::set<uint64_t> expected = BaseSet();
  expected.insert(7);
  expected.erase(5);
  expected.erase(32);
  {
    auto guard = pipe.AcquireRead();
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                           guard.tree().occupied().begin()));
    EXPECT_EQ(guard.tree().occupied().size(), expected.size());
  }
  ASSERT_TRUE(pipe.Close().ok());

  // Replay applies the removes too (auto-enabling counting leaves) and
  // lands draw-for-draw on the serial rebuild of the final set.
  auto recovered = LoadTreeFromFile(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto reference = BloomSampleTree::BuildPruned(
      GoldenConfig(), std::vector<uint64_t>(expected.begin(), expected.end()));
  ASSERT_TRUE(reference.ok());
  ExpectSamplesIdentical(recovered.value(), reference.value());
}

TEST(IngestPipelineTest, BackgroundCompactionUnderLiveTraffic) {
  const std::string path = TempPath("pipe_compact.bst");
  auto pipeline =
      IngestPipeline::OpenTree(FreshBase(path), path, DefaultOptions());
  ASSERT_TRUE(pipeline.ok());
  IngestPipeline& pipe = *pipeline.value();

  // Pre-compaction handle: must survive retirement (refcount keeps the
  // old tree alive even after the swap installs its successor).
  std::shared_ptr<const BloomSampleTree> before = pipe.tree_handle();

  std::atomic<bool> done{false};
  std::thread writer([&] {
    int w = 0;
    while (!done.load()) {
      for (uint64_t id : WriterIds(w % 4, 16)) {
        ASSERT_TRUE(pipe.Insert(id).ok());
      }
      ++w;
    }
  });
  std::thread reader([&] {
    while (!done.load()) {
      auto guard = pipe.AcquireRead();
      ASSERT_TRUE(std::is_sorted(guard.tree().occupied().begin(),
                                 guard.tree().occupied().end()));
    }
  });
  // Stats() polls fsync_count while commit leaders are mid-sync — the
  // counter must be readable during live ingest (TSan fences this).
  // No monotonicity check: the compaction's rotation opens a fresh
  // writer whose counter restarts.
  std::atomic<uint64_t> polled{0};
  std::thread poller([&] {
    while (!done.load()) {
      polled.fetch_add(pipe.Stats().fsyncs, std::memory_order_relaxed);
    }
  });

  ASSERT_TRUE(pipe.TriggerCompaction().ok());
  const Status compacted = pipe.WaitCompaction();
  done.store(true);
  writer.join();
  reader.join();
  poller.join();
  ASSERT_TRUE(compacted.ok()) << compacted.ToString();

  // The frozen epoch is gone, the swap installed a new tree, and the old
  // handle still reads coherently.
  EXPECT_FALSE(FileSystem::Default()->FileExists(OldWalPathFor(path)));
  EXPECT_NE(pipe.tree_handle().get(), before.get());
  EXPECT_TRUE(std::is_sorted(before->occupied().begin(),
                             before->occupied().end()));

  std::vector<uint64_t> live;
  {
    auto guard = pipe.AcquireRead();
    live = guard.tree().occupied();
  }
  ASSERT_TRUE(pipe.Close().ok());
  // On-disk = compacted image + post-rotation log ≡ the live end state.
  auto recovered = LoadTreeFromFile(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().occupied(), live);
}

TEST(IngestPipelineTest, ReadGuardBlocksCompactionSwap) {
  const std::string path = TempPath("pipe_guard.bst");
  auto pipeline =
      IngestPipeline::OpenTree(FreshBase(path), path, DefaultOptions());
  ASSERT_TRUE(pipeline.ok());
  IngestPipeline& pipe = *pipeline.value();
  ASSERT_TRUE(pipe.Insert(6).ok());

  std::atomic<bool> swapped{false};
  std::thread compactor;
  {
    auto guard = pipe.AcquireRead();
    const BloomSampleTree* held = &guard.tree();
    ASSERT_TRUE(pipe.TriggerCompaction().ok());
    compactor = std::thread([&] {
      ASSERT_TRUE(pipe.WaitCompaction().ok());
      swapped.store(true);
    });
    // The swap needs the exclusive lock; our shared hold forbids it. Give
    // the compactor ample time to reach the swap point.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(swapped.load());
    // The guarded tree is still the pre-swap one and still readable.
    EXPECT_EQ(held, &guard.tree());
    EXPECT_TRUE(std::binary_search(held->occupied().begin(),
                                   held->occupied().end(), 6u));
  }
  compactor.join();
  EXPECT_TRUE(swapped.load());
  ASSERT_TRUE(pipe.Close().ok());
}

// Regression: a writer acknowledged against the pre-rotation log but not
// yet applied to the tree must not lose its record to compaction — the
// snapshot has to absorb every .wal.old record in APPLY order before the
// frozen log (the record's only durable copy) is deleted.
TEST(IngestPipelineTest, CompactionDrainsCommittedButUnappliedWrites) {
  const std::string path = TempPath("pipe_compact_drain.bst");
  auto pipeline =
      IngestPipeline::OpenTree(FreshBase(path), path, DefaultOptions());
  ASSERT_TRUE(pipeline.ok());
  IngestPipeline& pipe = *pipeline.value();

  // Park one writer in the gap between its WAL acknowledgement (fsynced
  // into the current log) and its tree mutation.
  std::promise<void> committed;
  std::promise<void> resume;
  std::future<void> resume_fut = resume.get_future();
  std::atomic<bool> paused{false};
  pipe.set_apply_pause_for_test([&] {
    if (paused.exchange(true)) return;  // only the first Insert parks
    committed.set_value();
    resume_fut.wait();
  });
  std::thread writer([&] { ASSERT_TRUE(pipe.Insert(7).ok()); });
  committed.get_future().wait();

  // Compaction rotates the log out from under the parked ack, then must
  // block in the window drain until the mutation lands.
  ASSERT_TRUE(pipe.TriggerCompaction().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  resume.set_value();
  writer.join();
  ASSERT_TRUE(pipe.WaitCompaction().ok());
  ASSERT_TRUE(pipe.Close().ok());

  // The acknowledged insert survives a reboot: it is in the compacted
  // image (or the fresh log) — never only in the deleted .wal.old.
  auto recovered = LoadTreeFromFile(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(std::binary_search(recovered.value().occupied().begin(),
                                 recovered.value().occupied().end(), 7u));
}

// A second TriggerCompaction while one is in flight must say so
// (kResourceExhausted) — not mistake the in-flight rotation's .wal.old
// for a stale leftover and tell the operator to reopen a healthy
// artifact (kInternal).
TEST(IngestPipelineTest, SecondTriggerDuringCompactionIsResourceExhausted) {
  const std::string path = TempPath("pipe_compact_double.bst");
  auto pipeline =
      IngestPipeline::OpenTree(FreshBase(path), path, DefaultOptions());
  ASSERT_TRUE(pipeline.ok());
  IngestPipeline& pipe = *pipeline.value();

  // Park a writer inside its rotation window so the compaction is
  // guaranteed still in flight (blocked in the drain, after rotating)
  // when the second trigger lands.
  std::promise<void> committed;
  std::promise<void> resume;
  std::future<void> resume_fut = resume.get_future();
  std::atomic<bool> paused{false};
  pipe.set_apply_pause_for_test([&] {
    if (paused.exchange(true)) return;
    committed.set_value();
    resume_fut.wait();
  });
  std::thread writer([&] { ASSERT_TRUE(pipe.Insert(9).ok()); });
  committed.get_future().wait();

  ASSERT_TRUE(pipe.TriggerCompaction().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const Status again = pipe.TriggerCompaction();
  EXPECT_EQ(again.code(), Status::Code::kResourceExhausted)
      << again.ToString();

  resume.set_value();
  writer.join();
  ASSERT_TRUE(pipe.WaitCompaction().ok());
  ASSERT_TRUE(pipe.Close().ok());
}

TEST(IngestPipelineTest, ForestLanesRouteAndRecoverShardForShard) {
  const std::string path = TempPath("pipe_forest.bsf");
  for (uint32_t s = 0; s < 4; ++s) {
    const std::string shard = ForestShardPath(path, s);
    std::remove(shard.c_str());
    std::remove(WalPathFor(shard).c_str());
  }
  ForestConfig config;
  config.tree = GoldenConfig();
  config.shards = 4;
  auto forest = BloomSampleForest::BuildPruned(config, BaseOccupied());
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  ASSERT_TRUE(SaveForestToFile(forest.value(), path).ok());

  auto pipeline =
      IngestPipeline::OpenForest(&forest.value(), path, DefaultOptions());
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  IngestPipeline& pipe = *pipeline.value();
  ASSERT_EQ(pipe.lane_count(), 4u);

  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 48;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&pipe, w] {
      for (uint64_t id : WriterIds(w, kPerWriter)) {
        ASSERT_TRUE(pipe.Insert(id).ok());
      }
    });
  }
  for (auto& t : writers) t.join();
  ASSERT_TRUE(pipe.Close().ok());

  std::set<uint64_t> expected = BaseSet();
  for (int w = 0; w < kWriters; ++w) {
    for (uint64_t id : WriterIds(w, kPerWriter)) expected.insert(id);
  }
  auto recovered = LoadForestFromFile(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  std::vector<uint64_t> all;
  for (uint32_t s = 0; s < recovered.value().shard_count(); ++s) {
    const auto& occ = recovered.value().shard(s).occupied();
    all.insert(all.end(), occ.begin(), occ.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), all.begin()));
  EXPECT_EQ(all.size(), expected.size());
}

}  // namespace
}  // namespace bloomsample
