// Concurrent crash-safe ingest, and the only write path: every durable
// Insert/Remove (bsr insert/remove, bsrd, the scrubber's read-repair) goes
// through this layer, which lets them run under live query traffic. It is
// the only code that appends to a `.wal` (see core/wal.h).
//
// Topology (one LANE per shard; a bare tree is a one-lane pipeline):
//
//   producers ──Push──► IngestQueue (bounded MPSC, backpressure)
//   producers ──Insert/Remove──────────────┐       │ writer thread
//                                          ▼       ▼ drains batches
//                                       GroupCommitWal  (leader–follower,
//                                          │              one fsync per group)
//                                          ▼ after the covering fsync
//                                   tree mutation under the lane's
//                                   shared_mutex (exclusive)  ──► ack
//
// The two ingestion styles share one commit path: synchronous callers
// (Insert/Remove/Apply) and the per-lane writer thread draining the queue
// all funnel into the lane's GroupCommitWal, so concurrent writers form
// fsync groups no matter how their mutations arrived.
//
// Ordering discipline (the crash-matrix invariant): LOG → FSYNC → MUTATE
// → ACK. A mutation touches the in-memory tree only after its WAL record
// is covered per the sync policy, so at every instant the live tree holds
// exactly base ∪ committed mutations — and readers, who take the lane's
// shared lock for the duration of a pass (AcquireRead), observe exactly
// pre- or post-mutation trees, never torn ones. Under kEveryRecord,
// committed ≡ acknowledged ≡ durable; recovery replays exactly what any
// reader could have seen.
//
// Graceful degradation: when the commit layer exhausts its repair budget
// (see GroupCommitWal) the lane LATCHES READ-ONLY — queued and future
// mutations fail with Status::kReadOnly, reads keep serving, and the CLI
// surfaces the state with its own exit code. The latch is sticky until
// the artifact is reopened.
//
// Background compaction (single-tree pipelines): TriggerCompaction folds
// the log into a fresh image on a background thread while readers keep
// serving the old tree —
//
//     FOLD a stale .wal.old first, if a crashed compaction left one:
//     with the commit windows frozen, save an image rebuilt from the live
//     tree and retire that log
//   → ROTATE the log (live .wal → .wal.old, fresh .wal at seq 1)
//   → DRAIN the commit→apply windows: a writer can be acknowledged
//     against the pre-rotation log without having mutated the tree yet;
//     the snapshot must absorb every record frozen into .wal.old in
//     APPLY order, not just log order, or deleting .wal.old would drop
//     an acknowledged durable write
//   → SNAPSHOT occupied under a brief exclusive lock; start the delta
//     side-track (mutations applied during compaction are recorded)
//   → BUILD + SAVE the new image (atomic temp/fsync/rename/dirsync; no
//     lane locks held — ingest and queries proceed)
//   → DELETE .wal.old (its records are all folded into the durable image)
//   → SWAP under the exclusive lock: re-apply the delta to the fresh
//     tree, install it, retire the old one by shared_ptr refcount (a
//     reader's guard keeps its tree — and its mmap, if any — alive).
//
// Every crash point leaves image ∪ logs complete: loaders replay
// .wal.old before .wal (see core/wal.h), and both replays are idempotent.
#ifndef BLOOMSAMPLE_CORE_INGEST_PIPELINE_H_
#define BLOOMSAMPLE_CORE_INGEST_PIPELINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/bloom_sample_forest.h"
#include "src/core/bloom_sample_tree.h"
#include "src/core/group_commit.h"
#include "src/core/tree_io.h"
#include "src/core/wal.h"
#include "src/util/ingest_queue.h"
#include "src/util/status.h"

namespace bloomsample {

/// Policy for the lane recovery supervisor — the background probe loop
/// that distinguishes TRANSIENT latches (EINTR/EAGAIN hiccups, ENOSPC
/// that later frees) from PERMANENT ones (EIO: per fsyncgate, data the
/// kernel already dropped) and un-latches the former without a restart.
struct LaneRecoveryOptions {
  bool enabled = true;
  /// Probe budget PER LATCH EPISODE — but attempts accumulate across
  /// un-latch/re-latch cycles, so a flapping disk converges to sticky
  /// read-only instead of oscillating forever.
  uint64_t max_attempts = 6;
  /// Backoff before a retry after a failed probe; doubles per failure
  /// (shift capped at 10).
  std::chrono::milliseconds backoff_base{2};
  /// Supervisor wake cadence while any lane is latched.
  std::chrono::milliseconds poll_interval{2};
  /// An ENOSPC latch is probed only once FileSystem::FreeSpace reports at
  /// least this much headroom — probing a still-full disk just burns the
  /// budget that a genuinely freed disk would need.
  uint64_t min_free_bytes = 1 << 20;
};

struct IngestPipelineOptions {
  /// Bounded-queue front (per lane): capacity and what a producer
  /// experiences when the queue is full.
  size_t queue_capacity = 4096;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  std::chrono::milliseconds backpressure_timeout{10};
  /// Max mutations a writer thread drains (and commits) per group.
  size_t max_batch = 256;
  /// WAL durability policy; `wal.fs` is also the filesystem compaction
  /// uses for rotation/cleanup.
  WalOptions wal;
  /// Repair/backoff budget before a lane latches read-only.
  GroupCommitOptions commit;
  /// How background compaction writes the new image. Set `save.fs` to
  /// match `wal.fs` when running under a fault-injecting filesystem.
  SaveOptions save;
  /// Lane auto-recovery policy (see LaneRecoveryOptions).
  LaneRecoveryOptions recovery;
};

/// One lane's health, as Stats() reports it — what bsr_cli's
/// `# lane status` diagnostic line prints.
struct LaneStatusInfo {
  uint32_t lane = 0;
  bool read_only = false;
  bool quarantined = false;
  /// The ORIGINAL failure behind the latch ("" when healthy) and its
  /// captured errno (0 when the failure was not a syscall) — the reason,
  /// not just the fact.
  std::string latch_message;
  int latch_errno = 0;
  uint64_t recover_attempts = 0;   ///< probes the supervisor has run
  uint64_t recover_successes = 0;  ///< latches cleared
  bool recovery_gave_up = false;   ///< budget exhausted or permanent cause
};

/// Aggregate counters over every lane (see accessors for meaning).
struct IngestPipelineStats {
  uint64_t committed_batches = 0;  ///< Commit() calls acknowledged OK
  uint64_t commit_groups = 0;      ///< leader rounds (fsync sharing factor)
  uint64_t fsyncs = 0;             ///< successful fsyncs issued
  uint64_t shed = 0;               ///< pushes rejected by backpressure
  std::vector<LaneStatusInfo> lanes;  ///< per-lane health
};

class IngestPipeline {
 public:
  /// Single-tree pipeline (one lane). The pipeline takes shared ownership
  /// of `tree` — compaction swaps the live tree, so access it through
  /// AcquireRead()/tree_handle(), not a stale raw pointer. The tree must
  /// be pruned, and replay of both logs (`.wal.old`, then `.wal`) must
  /// already have happened — LoadTreeFromFile does it: pass the loader's
  /// `wal_records_replayed + 1` as `next_wal_seq` (1 for a fresh tree).
  static Result<std::unique_ptr<IngestPipeline>> OpenTree(
      std::shared_ptr<BloomSampleTree> tree, std::string path,
      const IngestPipelineOptions& options, uint64_t next_wal_seq = 1);

  /// Forest pipeline: one lane per shard, mutations routed by ShardOf.
  /// Shards are borrowed — the forest must outlive the pipeline — and
  /// background compaction is unsupported (quiesce via Close(), then run
  /// the offline CompactForest). `info` (from LoadForestFromFile) seeds
  /// per-shard sequence numbers; nullptr for a freshly built forest.
  static Result<std::unique_ptr<IngestPipeline>> OpenForest(
      BloomSampleForest* forest, std::string path,
      const IngestPipelineOptions& options,
      const ForestLoadInfo* info = nullptr);

  ~IngestPipeline();
  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  // --- synchronous ingest (group commit across calling threads) --------

  /// Durably logs and applies one mutation; returns after the ack rule of
  /// the sync policy is met (kEveryRecord: the covering fsync returned).
  Status Insert(uint64_t x);
  Status Remove(uint64_t x);
  Status Apply(const WalMutation& mut);

  /// Durably logs and applies a frame of mutations, in order. Validates
  /// them first and stops at the first refusal; the accepted prefix
  /// commits in chunks of up to `max_batch` mutations of one lane, each
  /// with one GroupCommitWal::Commit (one fsync under kEveryRecord) and one
  /// exclusive window. Sets *applied to the number of mutations applied
  /// and returns the first failure: a refusal, a NACKed commit or a failed
  /// apply. bsrd answers an INSERT or REMOVE frame through this.
  Status Apply(const std::vector<WalMutation>& muts, size_t* applied);

  // --- asynchronous ingest (bounded queue, backpressure) ---------------

  /// Enqueues fire-and-forget; returns the backpressure outcome, not the
  /// commit outcome — the next Flush reports that (or watch read_only()).
  Status Push(const WalMutation& mut);

  /// Enqueues and returns a future resolving to the mutation's commit+
  /// apply status — the per-item acknowledgement, delivered only after
  /// the covering fsync under kEveryRecord.
  std::future<Status> PushWithAck(const WalMutation& mut);

  /// Barrier: waits until everything enqueued before the call is
  /// committed and applied, then fences the logs. Returns the first
  /// failure among the mutations each lane dequeued since its previous
  /// Flush — a refusal before logging (out of range, quarantine), a
  /// NACKed commit (even if recovery has since cleared the latch), a
  /// failed apply — or else the fence's own status.
  /// OK means every such mutation is committed and applied.
  Status Flush();

  // --- read side -------------------------------------------------------

  /// Holds the lane's shared lock plus a refcount on the live tree: the
  /// writer's mutation window and the compaction swap both exclude it, so
  /// the guarded tree is a fully-applied acknowledged state and can never
  /// be retired (or its mmap unmapped) while the guard lives. Hold for
  /// the duration of one sampling/reconstruction pass.
  class ReadGuard {
   public:
    const BloomSampleTree& tree() const { return *tree_; }
    /// The guarded tree's refcount (null for borrowed forest lanes), for
    /// keeping the generation alive past the guard. Use it instead of
    /// tree_handle() while the guard lives: a second shared acquisition
    /// spins behind a waiting writer, who waits on this guard.
    const std::shared_ptr<const BloomSampleTree>& keepalive() const {
      return keepalive_;
    }
    ReadGuard(ReadGuard&&) = default;
    ReadGuard& operator=(ReadGuard&&) = default;

   private:
    friend class IngestPipeline;
    ReadGuard(std::shared_lock<std::shared_mutex> lock,
              std::shared_ptr<const BloomSampleTree> keepalive,
              const BloomSampleTree* tree)
        : lock_(std::move(lock)),
          keepalive_(std::move(keepalive)),
          tree_(tree) {}

    std::shared_lock<std::shared_mutex> lock_;
    /// Null for borrowed (forest) lanes — the forest owns those shards.
    std::shared_ptr<const BloomSampleTree> keepalive_;
    const BloomSampleTree* tree_;
  };

  ReadGuard AcquireRead(uint32_t lane = 0) const;
  uint32_t lane_count() const { return static_cast<uint32_t>(lanes_.size()); }
  uint32_t LaneOf(uint64_t x) const;

  /// The current live tree of a single-tree pipeline (refcounted: safe to
  /// hold across a compaction swap, but the pipeline may move on — use
  /// AcquireRead for query passes).
  std::shared_ptr<const BloomSampleTree> tree_handle() const;

  // --- degradation surface ---------------------------------------------

  /// True when any lane has latched read-only.
  bool read_only() const;
  /// OK while healthy, else the first lane's latch status.
  Status read_only_status() const;

  IngestPipelineStats Stats() const;

  /// The snapshot path a lane serves (what the scrubber walks).
  const std::string& lane_path(uint32_t lane) const;

  /// Takes a lane out of service after unrepairable corruption: durably
  /// writes the `<path>.quarantine` marker (so the NEXT open fails fast
  /// with kQuarantined) and fails this lane's future mutations with
  /// kQuarantined immediately. Sibling lanes are untouched and keep
  /// serving. Lifted by restoring the file and ClearQuarantineMarker.
  Status Quarantine(uint32_t lane, const std::string& reason);
  bool lane_quarantined(uint32_t lane) const;

  /// Test-only sync point: runs in the synchronous Apply path between
  /// the commit acknowledgement and the tree mutation — inside the
  /// rotation window, so tests can park a writer in exactly the gap a
  /// background compaction must drain. Set before spawning writers.
  void set_apply_pause_for_test(std::function<void()> hook) {
    apply_pause_ = std::move(hook);
  }

  // --- hot snapshot swap (single-tree pipelines) -----------------------

  /// Reloads the lane's snapshot (image + sidecar WAL replay) from disk
  /// and installs the fresh tree through the same refcounted swap
  /// compaction uses: in-flight readers finish their pass on the old tree
  /// (their guards hold the refcount), new readers land on the new one —
  /// never a blend. This is the SIGHUP path: an operator rebuilds or
  /// restores the artifact in place and signals the serving daemon
  /// instead of restarting it.
  ///
  /// Mutations are barriered for the duration (the commit-window drain is
  /// held exclusively) so the on-disk image ∪ log is frozen while it is
  /// re-read; the commit layer's writer is then reopened at the replayed
  /// sequence number — which also clears a read-only latch and the
  /// lane's quarantine flag when the restored artifact loads clean.
  /// kResourceExhausted when a compaction (or another swap) is in flight;
  /// kUnsupported on forest pipelines; on any load failure the old tree
  /// keeps serving untouched.
  Status HotSwapFromDisk(const LoadOptions& load = LoadOptions::FromEnv());

  // --- background compaction (single-tree pipelines) -------------------

  /// Starts a background compaction; kResourceExhausted when one is in
  /// flight (or a hot swap is), kUnsupported on forest pipelines. A
  /// `<path>.wal.old` that a crashed compaction left behind is folded
  /// first (CompactionBody step 0). `bsr compact` runs this on a tree,
  /// then WaitCompaction.
  Status TriggerCompaction();
  /// Joins the background compaction (no-op if none) and returns its
  /// result.
  Status WaitCompaction();

  /// Stops the writer threads (draining their queues), joins compaction,
  /// fences and closes every log. Idempotent; the destructor calls it.
  Status Close();

 private:
  struct Pending {
    WalMutation mut;
    std::shared_ptr<std::promise<Status>> ack;  ///< null = fire-and-forget
    bool fence = false;  ///< Flush barrier marker (mut ignored)
    bool skip = false;   ///< failed validation; already acked
  };

  struct Lane {
    std::string path;
    /// Owned tree (single-tree mode); null when the lane borrows a forest
    /// shard. `tree` is the live raw pointer either way (swapped under an
    /// exclusive tree_mu hold).
    std::shared_ptr<BloomSampleTree> owned;
    BloomSampleTree* tree = nullptr;
    std::unique_ptr<GroupCommitWal> commit;
    std::unique_ptr<IngestQueue<Pending>> queue;
    BatchPool<Pending> pool;
    std::thread writer;
    mutable std::shared_mutex tree_mu;
    /// Writers queued on tree_mu. Back-to-back read passes keep a
    /// reader-preferring shared_mutex permanently read-held and starve
    /// the writer (observed: 200 000× ingest slowdown under two sampler
    /// threads); new readers yield while this is non-zero so a waiting
    /// writer gets its exclusive window promptly.
    mutable std::atomic<uint32_t> writers_waiting{0};
    /// Compaction side-track, both guarded by tree_mu.
    bool compacting = false;
    std::vector<WalMutation> delta;
    /// Rotation barrier: every committer holds this shared across its
    /// whole LOG→FSYNC→MUTATE window; compaction drains it exclusively
    /// between rotating the log and snapshotting the occupied ids, so no
    /// record frozen into .wal.old can still be waiting to mutate the
    /// tree when the new image is built (see CompactionBody step 2).
    mutable std::shared_mutex window_mu;
    /// Same writer-priority gate as writers_waiting: new windows yield
    /// while a drain waits, so the one-shot drain cannot starve under a
    /// reader-preferring shared_mutex.
    mutable std::atomic<uint32_t> drain_waiting{0};
    /// Set by Quarantine(); mutations fail fast with kQuarantined.
    std::atomic<bool> quarantined{false};
    /// Supervisor bookkeeping, read by Stats() from other threads.
    std::atomic<uint64_t> recover_attempts{0};
    std::atomic<bool> recovery_gave_up{false};
  };

  IngestPipeline(IngestPipelineOptions options, uint64_t namespace_size,
                 uint64_t lane_width);

  static Result<std::unique_ptr<GroupCommitWal>> OpenLaneWal(
      const std::string& snapshot_path, const TreeConfig& config,
      uint64_t next_seq, const IngestPipelineOptions& options);

  /// Pre-commit validation (quarantine, range) — anything the tree would
  /// refuse AFTER logging must be refused BEFORE, or the log would replay
  /// a record the live tree rejected.
  Status Validate(const Lane& lane, const WalMutation& mut) const;
  /// Writer-priority lock acquisition: LockExclusive advertises the
  /// waiting writer via `writers_waiting`; LockShared defers to it.
  static std::unique_lock<std::shared_mutex> LockExclusive(Lane* lane);
  static std::shared_lock<std::shared_mutex> LockShared(const Lane& lane);
  /// Caller holds lane.tree_mu exclusive.
  Status ApplyToTreeLocked(Lane* lane, const WalMutation& mut);
  /// Shared hold over one commit→apply window (see Lane::window_mu).
  static std::shared_lock<std::shared_mutex> LockWindow(const Lane& lane);
  /// Exclusive hold over the windows: returns once every window open at
  /// call time has closed (its mutation reached the tree), and no new one
  /// opens while held. Caller must hold no lane locks.
  static std::unique_lock<std::shared_mutex> FreezeWindows(Lane* lane);
  void WriterLoop(Lane* lane);
  Status CompactionBody();
  /// The recovery supervisor (one thread per pipeline): polls latched
  /// lanes, classifies the latch cause by errno (transient EINTR/EAGAIN;
  /// ENOSPC gated on the free-space watermark; anything else permanent),
  /// and drives GroupCommitWal::TryRecover under capped exponential
  /// backoff until it succeeds or the attempt budget is gone.
  void SupervisorLoop();
  static void StartThreads(IngestPipeline* p);

  const IngestPipelineOptions options_;
  const uint64_t namespace_size_;
  /// ShardOf divisor (namespace_size for one lane — everything maps to 0).
  const uint64_t lane_width_;
  std::vector<std::unique_ptr<Lane>> lanes_;

  /// True from a successful TriggerCompaction CAS until the background
  /// thread has published its result — the only admission gate for a new
  /// compaction.
  std::atomic<bool> compaction_running_{false};
  /// Guards compaction_thread_ and compaction_result_: TriggerCompaction,
  /// WaitCompaction, and Close may race, and the background thread writes
  /// the result. Threads are moved out under the mutex and joined with it
  /// released (the thread's epilogue takes it to publish the result).
  mutable std::mutex compaction_mu_;
  std::thread compaction_thread_;
  Status compaction_result_;

  std::atomic<bool> closed_{false};

  /// Recovery supervisor thread + its shutdown signal (cv so Close() can
  /// wake a sleeping supervisor immediately instead of waiting out a poll
  /// interval).
  std::thread supervisor_;
  mutable std::mutex supervisor_mu_;
  std::condition_variable supervisor_cv_;
  bool stop_supervisor_ = false;

  /// See set_apply_pause_for_test.
  std::function<void()> apply_pause_;
};

}  // namespace bloomsample

#endif  // BLOOMSAMPLE_CORE_INGEST_PIPELINE_H_
