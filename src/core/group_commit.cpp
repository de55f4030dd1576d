#include "src/core/group_commit.h"

#include <thread>

namespace bloomsample {

GroupCommitWal::GroupCommitWal(std::unique_ptr<WalWriter> wal,
                               GroupCommitOptions options)
    : wal_(std::move(wal)), options_(options) {
  BSR_CHECK(wal_ != nullptr, "GroupCommitWal requires an opened writer");
}

Status GroupCommitWal::Commit(const std::vector<WalMutation>& muts) {
  if (muts.empty()) return Status::OK();
  return CommitInternal(&muts, /*force_sync=*/false);
}

Status GroupCommitWal::Fence() {
  static const std::vector<WalMutation> kEmpty;
  return CommitInternal(&kEmpty, /*force_sync=*/true);
}

Status GroupCommitWal::Rotate(const std::string& rotated_path) {
  std::unique_lock<std::mutex> lock(mu_);
  // Wait out the active leader only — queued committers have not touched
  // the file yet and will open the next group on the fresh log. Holding
  // mu_ for the whole rotation keeps new leaders from starting.
  cv_.wait(lock, [&] { return !leader_active_; });
  if (!latch_.ok()) return latch_;

  FileSystem* fs = wal_->options().fs;
  const std::string path = wal_->path();
  const uint64_t fingerprint = wal_->fingerprint();
  const WalOptions options = wal_->options();

  Status st = wal_->Sync();  // fence the unsynced tail into the old epoch
  if (st.ok()) st = wal_->Close();
  if (st.ok()) st = fs->Rename(path, rotated_path);
  if (st.ok()) st = fs->SyncDirOf(path);
  if (st.ok()) {
    auto fresh = WalWriter::Open(path, fingerprint, /*next_seq=*/1, options);
    if (fresh.ok()) {
      wal_ = std::move(fresh).value();
    } else {
      st = fresh.status();
    }
  }
  if (!st.ok()) {
    latch_ = Status::ReadOnly("log rotation failed, latching read-only: " +
                              st.ToString());
    latch_cause_ = st;
    // Mid-rotation state is ambiguous (the log may be half-renamed);
    // TryRecover refuses it regardless of what errno says.
    rotation_latched_ = true;
    lock.unlock();
    cv_.notify_all();
    return st;
  }
  return Status::OK();
}

void GroupCommitWal::ReplaceWal(std::unique_ptr<WalWriter> wal) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !leader_active_; });
  // Close the old writer best-effort: its records were either fenced (in
  // which case the reload just replayed them) or NACKed under a latch the
  // fresh writer supersedes — a close failure here has nothing to latch.
  if (wal_ != nullptr) (void)wal_->Close();
  wal_ = std::move(wal);
  latch_ = Status::OK();
  latch_cause_ = Status::OK();
  rotation_latched_ = false;
  pending_discard_records_ = 0;
  lock.unlock();
  cv_.notify_all();
}

bool GroupCommitWal::read_only() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !latch_.ok();
}

Status GroupCommitWal::read_only_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latch_;
}

Status GroupCommitWal::latch_cause() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latch_cause_;
}

uint64_t GroupCommitWal::recover_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recover_count_;
}

Status GroupCommitWal::TryRecover() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !leader_active_; });
  if (latch_.ok()) return Status::OK();
  if (rotation_latched_) {
    return Status::Internal(
        "latched mid-rotation: the log's location is ambiguous, refusing "
        "automatic recovery (" + latch_cause_.ToString() + ")");
  }
  // mu_ held throughout: no leader can start (CommitInternal fails fast on
  // latch_, and a pre-latch queued waiter needs mu_ to become leader), so
  // the writer is exclusively ours — same discipline as Rotate.
  if (wal_->dead()) {
    Status st = wal_->DropUnsyncedTailRecords(pending_discard_records_);
    if (!st.ok()) return st;
    pending_discard_records_ = 0;
    st = wal_->Repair();
    if (!st.ok()) return st;
  }
  // The repaired descriptor is not trusted until a probe record round-
  // trips through append AND fsync — fsyncgate taught us a reported
  // success is the only acceptable evidence, and only for a fresh fd.
  Status st = wal_->AppendNoSync(WalOp::kNoop, 0);
  if (st.ok()) st = wal_->Sync();
  if (!st.ok()) return st;  // writer is dead again; the latch stays
  latch_ = Status::OK();
  latch_cause_ = Status::OK();
  ++recover_count_;
  lock.unlock();
  cv_.notify_all();
  return Status::OK();
}

uint64_t GroupCommitWal::commit_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return commit_count_;
}

uint64_t GroupCommitWal::group_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return group_count_;
}

uint64_t GroupCommitWal::fsync_count() const {
  // mu_ pins wal_ itself (Rotate swaps it under mu_); the count is an
  // atomic inside WalWriter because the active leader advances it with
  // mu_ released — Stats() pollers read it during live ingest.
  std::lock_guard<std::mutex> lock(mu_);
  return wal_->sync_count();
}

Status GroupCommitWal::CommitInternal(const std::vector<WalMutation>* muts,
                                      bool force_sync) {
  Batch me;
  me.muts = muts;
  me.force_sync = force_sync;

  std::unique_lock<std::mutex> lock(mu_);
  if (!latch_.ok()) return latch_;
  queue_.push_back(&me);
  // Follower until done, or leader once the slot frees up and we are the
  // oldest waiter.
  cv_.wait(lock, [&] {
    return me.done ||
           (!leader_active_ && !queue_.empty() && queue_.front() == &me);
  });
  if (me.done) return me.result;

  // Leader: this round's group is everything queued so far. Later
  // arrivals queue behind and form the next group.
  leader_active_ = true;
  ++group_count_;
  std::vector<Batch*> group(queue_.begin(), queue_.end());
  queue_.clear();
  lock.unlock();

  // The writer is exclusively ours while leader_active_; no lock held
  // across the appends/fsyncs so new committers can keep queueing.
  const Status round = RunGroup(&group);

  lock.lock();
  if (!round.ok() && latch_.ok()) {
    latch_ = Status::ReadOnly(
        "wal latched read-only after unrecoverable I/O failure: " +
        round.ToString());
    latch_cause_ = round;
  }
  const bool policy_fences =
      wal_ != nullptr &&
      wal_->options().policy == WalSyncPolicy::kEveryRecord;
  for (Batch* b : group) {
    if (round.ok()) {
      b->result = Status::OK();
    } else {
      // Latched mid-round: a batch is still acknowledged if its records
      // met the policy's acknowledgement rule before the failure — fenced
      // under kEveryRecord/force, appended otherwise. Exactly the records
      // recovery can replay.
      const bool needs_fence = b->force_sync || policy_fences;
      const bool acked =
          needs_fence ? b->fenced : b->appended == b->muts->size();
      b->result = acked ? Status::OK() : latch_;
    }
    if (b->result.ok()) ++commit_count_;
    b->done = true;
  }
  if (!round.ok()) {
    // Count the trailing run of NACKed appended records still buffered in
    // the writer's unsynced tail. TryRecover drops exactly these before
    // repairing: their committers were told "failed", so re-logging them
    // would make replay diverge from the acknowledged state. The scan
    // stops at the last acked batch with bytes in the file — records
    // before it are spoken for and must be re-appended verbatim.
    for (auto it = group.rbegin(); it != group.rend(); ++it) {
      Batch* b = *it;
      if (!b->result.ok()) {
        pending_discard_records_ += b->appended;
      } else if (b->appended > 0) {
        break;
      }
    }
  }
  leader_active_ = false;
  lock.unlock();
  cv_.notify_all();
  return me.result;
}

Status GroupCommitWal::RunGroup(std::vector<Batch*>* group) {
  uint64_t attempts = 0;

  // Append phase: every batch in arrival order, resuming through repairs
  // (a failed append consumes no sequence number, so the retry re-encodes
  // the identical record).
  for (size_t bi = 0; bi < group->size();) {
    Batch* b = (*group)[bi];
    if (b->appended == b->muts->size()) {
      ++bi;
      continue;
    }
    const WalMutation& mut = (*b->muts)[b->appended];
    const Status st = wal_->AppendNoSync(mut.op, mut.id);
    if (st.ok()) {
      ++b->appended;
      continue;
    }
    const Status repaired = RepairWithBackoff(&attempts, group);
    if (!repaired.ok()) return st;  // surface the original failure
  }

  // Fence phase: one fsync covers the whole group (the entire point).
  bool force = false;
  for (const Batch* b : *group) force = force || b->force_sync;
  const uint64_t before = wal_->sync_count();
  const Status st = force ? wal_->Sync() : wal_->MaybeSync();
  if (st.ok()) {
    if (wal_->sync_count() > before) {
      for (Batch* b : *group) b->fenced = true;
    }
    return Status::OK();
  }
  const Status repaired = RepairWithBackoff(&attempts, group);
  if (!repaired.ok()) return st;
  // A successful Repair re-appended and fsynced everything — it IS the
  // fence for this group.
  return Status::OK();
}

Status GroupCommitWal::RepairWithBackoff(uint64_t* attempts,
                                         std::vector<Batch*>* group) {
  while (*attempts < options_.max_repair_attempts) {
    ++*attempts;
    const uint64_t shift = *attempts - 1 < 10 ? *attempts - 1 : 10;
    std::this_thread::sleep_for(options_.backoff_base * (1ull << shift));
    const Status st = wal_->Repair();
    if (st.ok()) {
      // Repair fsynced the full appended content: every fully appended
      // batch is now durable.
      for (Batch* b : *group) {
        if (b->appended == b->muts->size()) b->fenced = true;
      }
      return Status::OK();
    }
  }
  return Status::ResourceExhausted("wal repair retry budget exhausted");
}

}  // namespace bloomsample
