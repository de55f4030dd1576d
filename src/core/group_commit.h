// Leader–follower group commit over a WalWriter — the concurrency layer
// between many committing threads and the single-writer log.
//
// Under WalSyncPolicy::kEveryRecord a naive concurrent design pays one
// fsync per insert; at N writer threads that is N fsyncs for work one
// fence could cover. Group commit batches them: committers enqueue their
// mutations and the first one in line becomes the LEADER — it drains the
// whole queue, appends every batch through the (non-thread-safe)
// WalWriter, issues ONE policy fence covering all of them, and then wakes
// the followers with their results. Committers that arrive while a leader
// is flushing simply form the next group, so the fsync rate is decoupled
// from the commit rate — the group-commit win bench/micro_ingest.cpp
// measures.
//
// Acknowledgement rule (the crash-matrix invariant): under kEveryRecord a
// Commit() returns OK only after a successful fsync covers its records,
// so "acknowledged" always equals "durable" and recovery yields exactly
// base ∪ acknowledged. Under kInterval/kNone acknowledgement means
// appended (durability is the policy's bounded-loss window), and recovery
// yields a dense prefix: base ⊆ recovered ⊆ base ∪ acknowledged.
//
// Failure handling: a failed append or fence sends the leader into a
// bounded retry loop — exponential backoff, then WalWriter::Repair()
// (truncate to the durable prefix, reopen, re-append, re-fence; never
// re-fsync a poisoned descriptor — fsyncgate). If the retry budget runs
// out the whole object LATCHES READ-ONLY: the current group's unfenced
// batches and every later Commit() fail with Status::kReadOnly. Batches
// whose records a successful fence did cover before the latch are still
// acknowledged OK — exactly the set a post-crash recovery replays.
#ifndef BLOOMSAMPLE_CORE_GROUP_COMMIT_H_
#define BLOOMSAMPLE_CORE_GROUP_COMMIT_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "src/core/wal.h"
#include "src/util/status.h"

namespace bloomsample {

struct GroupCommitOptions {
  /// Repair attempts per commit round before latching read-only. Covers
  /// transient ENOSPC/EIO (space freed, controller hiccup); persistent
  /// failures exhaust the budget quickly and latch.
  uint64_t max_repair_attempts = 4;
  /// Backoff before the first repair attempt; doubles per attempt.
  std::chrono::microseconds backoff_base{500};
};

class GroupCommitWal {
 public:
  /// Takes ownership of an opened writer (fresh or post-replay).
  explicit GroupCommitWal(std::unique_ptr<WalWriter> wal,
                          GroupCommitOptions options = GroupCommitOptions());

  /// Durably (per policy) logs `muts` in order as one atomic batch.
  /// Thread-safe; blocks until the batch's acknowledgement rule (see file
  /// comment) is met or the writer latches. Empty batch = no-op.
  Status Commit(const std::vector<WalMutation>& muts);

  /// Single-mutation convenience.
  Status CommitOne(WalOp op, uint64_t id);

  /// Explicit durability fence regardless of policy, through the same
  /// leader discipline (safe concurrent with Commit calls).
  Status Fence();

  /// Rotates the log out for background compaction: waits for the active
  /// leader (if any) to finish, fences and closes the current file,
  /// renames it to `rotated_path` (fenced with a directory sync), and
  /// opens a fresh log at the original path — new header, sequence
  /// numbers restarting at 1. Queued committers simply land on the fresh
  /// log when the rotation releases them; their mutations belong to the
  /// post-rotation epoch by definition. Any failure latches read-only
  /// (the log tail's location would otherwise be ambiguous).
  Status Rotate(const std::string& rotated_path);

  /// True once latched; every later Commit fails fast with kReadOnly.
  bool read_only() const;
  /// OK when healthy, else the latch status (kReadOnly with the original
  /// failure in the message).
  Status read_only_status() const;
  /// OK when healthy, else the ORIGINAL failure that caused the latch —
  /// code and sys_errno() preserved, not rewrapped as kReadOnly. The lane
  /// recovery supervisor classifies transient-vs-permanent from this.
  Status latch_cause() const;

  /// Attempts to clear a read-only latch: waits for any active leader,
  /// repairs the writer on a fresh descriptor (WalWriter::Repair — never
  /// re-fsync a poisoned fd), then proves the log is writable again by
  /// appending and fsyncing one WalOp::kNoop probe record. Only on a
  /// fully round-tripped probe does the latch clear; queued committers
  /// then proceed normally. Fails with the probe's error otherwise (the
  /// latch stays, sys_errno() tells the supervisor why). No-op when not
  /// latched.
  Status TryRecover();

  /// Latches successfully cleared by TryRecover over this object's life.
  uint64_t recover_count() const;

  /// Commit() calls that returned OK / leader rounds executed — the
  /// batching factor is commit_count()/group_count().
  uint64_t commit_count() const;
  uint64_t group_count() const;
  /// Successful fsyncs issued by the underlying writer.
  uint64_t fsync_count() const;

  /// The underlying writer — for the final close only. Callers must have
  /// quiesced every committer first; the handle is unsynchronized.
  WalWriter* wal() const { return wal_.get(); }

  /// Installs a freshly opened writer and clears any read-only latch —
  /// the hot-snapshot-swap hook: after a reload picked up an externally
  /// rewritten image + log, the old writer's descriptor and sequence
  /// numbers describe a file that no longer exists. Callers must have
  /// quiesced every committer (IngestPipeline holds the commit-window
  /// barrier exclusively); waits out an active leader, then swaps under
  /// the group mutex so read_only()/stats readers never see a torn state.
  void ReplaceWal(std::unique_ptr<WalWriter> wal);

 private:
  struct Batch {
    const std::vector<WalMutation>* muts = nullptr;
    bool force_sync = false;
    size_t appended = 0;  ///< leader progress, survives repair retries
    bool fenced = false;  ///< covered by a successful fsync
    bool done = false;
    Status result;
  };

  Status CommitInternal(const std::vector<WalMutation>* muts,
                        bool force_sync);
  /// Leader context, mu_ NOT held: appends every batch, fences per policy,
  /// repairs with backoff on failure. Returns the round's overall status.
  Status RunGroup(std::vector<Batch*>* group);
  /// Backoff + Repair(); on success marks fully appended batches fenced.
  /// Exhausted budget → error (caller latches).
  Status RepairWithBackoff(uint64_t* attempts, std::vector<Batch*>* group);

  std::unique_ptr<WalWriter> wal_;
  const GroupCommitOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Batch*> queue_;
  bool leader_active_ = false;
  Status latch_;        ///< OK while healthy; kReadOnly once latched
  Status latch_cause_;  ///< the original failure behind latch_ (errno intact)
  bool rotation_latched_ = false;  ///< latch from Rotate — unrecoverable
  /// Trailing NACKed records still in the writer's unsynced tail, counted
  /// at latch time; TryRecover drops them before repairing.
  uint64_t pending_discard_records_ = 0;
  uint64_t commit_count_ = 0;
  uint64_t group_count_ = 0;
  uint64_t recover_count_ = 0;
};

}  // namespace bloomsample

#endif  // BLOOMSAMPLE_CORE_GROUP_COMMIT_H_
