#include "src/core/ingest_pipeline.h"

#include <cerrno>
#include <utility>

namespace bloomsample {

namespace {

FileSystem* FsOrDefault(FileSystem* fs) {
  return fs != nullptr ? fs : FileSystem::Default();
}

/// Rebuilds an image from an occupied-set snapshot — never reading the
/// live slab, which may be the corruption a read-repair is replacing —
/// and saves it durably over `path`.
Result<BloomSampleTree> RebuildImage(const TreeConfig& config,
                                     std::vector<uint64_t> occupied,
                                     std::shared_ptr<const HashFamily> family,
                                     const std::string& path,
                                     const SaveOptions& save) {
  auto fresh = BloomSampleTree::BuildPruned(config, std::move(occupied),
                                            std::move(family));
  if (!fresh.ok()) return fresh.status();
  const Status st = SaveTreeToFile(fresh.value(), path, save);
  if (!st.ok()) return st;
  return fresh;
}

/// Deletes a log an image has absorbed, fenced with a directory sync.
Status RetireLog(FileSystem* fs, const std::string& path) {
  Status st = fs->RemoveFile(path);
  if (st.ok()) st = fs->SyncDirOf(path);
  return st;
}

}  // namespace

IngestPipeline::IngestPipeline(IngestPipelineOptions options,
                               uint64_t namespace_size, uint64_t lane_width)
    : options_(std::move(options)),
      namespace_size_(namespace_size),
      lane_width_(lane_width) {
  BSR_CHECK(lane_width_ > 0, "ingest pipeline lane width must be > 0");
}

Result<std::unique_ptr<GroupCommitWal>> IngestPipeline::OpenLaneWal(
    const std::string& snapshot_path, const TreeConfig& config,
    uint64_t next_seq, const IngestPipelineOptions& options) {
  auto writer = WalWriter::Open(WalPathFor(snapshot_path),
                                WalConfigFingerprint(config), next_seq,
                                options.wal);
  if (!writer.ok()) return writer.status();
  return std::make_unique<GroupCommitWal>(std::move(writer).value(),
                                          options.commit);
}

Result<std::unique_ptr<IngestPipeline>> IngestPipeline::OpenTree(
    std::shared_ptr<BloomSampleTree> tree, std::string path,
    const IngestPipelineOptions& options, uint64_t next_wal_seq) {
  if (tree == nullptr) {
    return Status::InvalidArgument("ingest pipeline requires a tree");
  }
  if (!tree->pruned()) {
    // Refuse at open, not first-insert: by first-insert the record would
    // already be logged, and replay would fail the next load with it.
    return Status::Unsupported(
        "ingest pipeline requires a pruned tree (complete trees already "
        "store the whole namespace)");
  }
  const uint64_t ns = tree->config().namespace_size;
  std::unique_ptr<IngestPipeline> p(
      new IngestPipeline(options, ns, /*lane_width=*/ns));
  auto lane = std::make_unique<Lane>();
  lane->path = std::move(path);
  lane->owned = std::move(tree);
  lane->tree = lane->owned.get();
  auto wal = OpenLaneWal(lane->path, lane->tree->config(), next_wal_seq,
                         p->options_);
  if (!wal.ok()) return wal.status();
  lane->commit = std::move(wal).value();
  lane->queue = std::make_unique<IngestQueue<Pending>>(
      typename IngestQueue<Pending>::Options{p->options_.queue_capacity,
                                             p->options_.backpressure,
                                             p->options_.backpressure_timeout});
  p->lanes_.push_back(std::move(lane));
  StartThreads(p.get());
  return p;
}

Result<std::unique_ptr<IngestPipeline>> IngestPipeline::OpenForest(
    BloomSampleForest* forest, std::string path,
    const IngestPipelineOptions& options, const ForestLoadInfo* info) {
  if (forest == nullptr) {
    return Status::InvalidArgument("ingest pipeline requires a forest");
  }
  if (!forest->pruned()) {
    return Status::Unsupported(
        "ingest pipeline requires a pruned forest (complete forests "
        "already store the whole namespace)");
  }
  const uint64_t ns = forest->config().tree.namespace_size;
  std::unique_ptr<IngestPipeline> p(
      new IngestPipeline(options, ns, forest->shard_width()));
  for (uint32_t s = 0; s < forest->shard_count(); ++s) {
    auto lane = std::make_unique<Lane>();
    lane->path = ForestShardPath(path, s);
    lane->tree = forest->mutable_shard(s);
    const uint64_t next_seq =
        info != nullptr && s < info->shards.size()
            ? info->shards[s].wal_records_replayed + 1
            : 1;
    auto wal = OpenLaneWal(lane->path, lane->tree->config(), next_seq,
                           p->options_);
    if (!wal.ok()) return wal.status();
    lane->commit = std::move(wal).value();
    lane->queue = std::make_unique<IngestQueue<Pending>>(
        typename IngestQueue<Pending>::Options{
            p->options_.queue_capacity, p->options_.backpressure,
            p->options_.backpressure_timeout});
    p->lanes_.push_back(std::move(lane));
  }
  StartThreads(p.get());
  return p;
}

void IngestPipeline::StartThreads(IngestPipeline* p) {
  for (auto& l : p->lanes_) {
    l->writer = std::thread(&IngestPipeline::WriterLoop, p, l.get());
  }
  if (p->options_.recovery.enabled) {
    p->supervisor_ = std::thread(&IngestPipeline::SupervisorLoop, p);
  }
}

IngestPipeline::~IngestPipeline() { Close(); }

uint32_t IngestPipeline::LaneOf(uint64_t x) const {
  const uint64_t lane = x / lane_width_;
  const uint64_t last = lanes_.size() - 1;
  return static_cast<uint32_t>(lane < last ? lane : last);
}

std::unique_lock<std::shared_mutex> IngestPipeline::LockExclusive(Lane* lane) {
  lane->writers_waiting.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> lock(lane->tree_mu);
  lane->writers_waiting.fetch_sub(1, std::memory_order_relaxed);
  return lock;
}

std::shared_lock<std::shared_mutex> IngestPipeline::LockShared(
    const Lane& lane) {
  // The counter is non-zero only while a writer WAITS for the mutex, so
  // this spin is brief: once the writer gets in, readers park on the
  // mutex itself.
  while (lane.writers_waiting.load(std::memory_order_relaxed) > 0) {
    std::this_thread::yield();
  }
  return std::shared_lock<std::shared_mutex>(lane.tree_mu);
}

std::shared_lock<std::shared_mutex> IngestPipeline::LockWindow(
    const Lane& lane) {
  // Mirror of LockShared's writer-priority gate: a drain happens once
  // per compaction and must not starve behind a stream of new windows.
  while (lane.drain_waiting.load(std::memory_order_relaxed) > 0) {
    std::this_thread::yield();
  }
  return std::shared_lock<std::shared_mutex>(lane.window_mu);
}

std::unique_lock<std::shared_mutex> IngestPipeline::FreezeWindows(
    Lane* lane) {
  lane->drain_waiting.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> frozen(lane->window_mu);
  lane->drain_waiting.fetch_sub(1, std::memory_order_relaxed);
  return frozen;
}

Status IngestPipeline::Validate(const Lane& lane,
                                const WalMutation& mut) const {
  // Refusals must precede logging: a record the live tree would reject
  // must never reach the log, or replay would apply what ingest refused.
  if (lane.quarantined.load(std::memory_order_relaxed)) {
    return Status::Quarantined(
        "lane is quarantined after unrepairable snapshot corruption");
  }
  if (mut.id >= namespace_size_) {
    return Status::OutOfRange("mutation id outside the namespace");
  }
  if (mut.op == WalOp::kRemove) {
    std::shared_lock<std::shared_mutex> lock = LockShared(lane);
    if (!lane.tree->counting_leaves()) {
      return Status::Unsupported(
          "remove requires the counting-bloom leaf backend: call "
          "EnableCountingLeaves() first");
    }
  }
  return Status::OK();
}

Status IngestPipeline::ApplyToTreeLocked(Lane* lane, const WalMutation& mut) {
  const Status st = mut.op == WalOp::kRemove ? lane->tree->Remove(mut.id)
                                             : lane->tree->Insert(mut.id);
  if (st.ok() && lane->compacting) lane->delta.push_back(mut);
  return st;
}

Status IngestPipeline::Insert(uint64_t x) {
  WalMutation mut;
  mut.op = WalOp::kInsert;
  mut.id = x;
  return Apply(mut);
}

Status IngestPipeline::Remove(uint64_t x) {
  WalMutation mut;
  mut.op = WalOp::kRemove;
  mut.id = x;
  return Apply(mut);
}

Status IngestPipeline::Apply(const WalMutation& mut) {
  Lane& lane = *lanes_[LaneOf(mut.id)];
  const Status pre = Validate(lane, mut);
  if (!pre.ok()) return pre;
  // Log and fence first (concurrent callers form one fsync group), mutate
  // second: an acknowledged mutation is durable before it is visible.
  // Concurrent sync-path mutations of the SAME id have no defined order
  // (the apply order may differ from the log order); per-id streams that
  // need ordering should go through one thread or the queue path, whose
  // single writer applies in log order.
  //
  // The window hold spans the whole LOG→FSYNC→MUTATE sequence so
  // compaction's post-rotation drain waits out any acknowledgement
  // against the pre-rotation log whose mutation has not reached the
  // tree yet (see CompactionBody step 2).
  std::shared_lock<std::shared_mutex> window = LockWindow(lane);
  const Status st = lane.commit->CommitOne(mut.op, mut.id);
  if (!st.ok()) return st;
  if (apply_pause_) apply_pause_();
  std::unique_lock<std::shared_mutex> lock = LockExclusive(&lane);
  return ApplyToTreeLocked(&lane, mut);
}

Status IngestPipeline::Push(const WalMutation& mut) {
  Lane& lane = *lanes_[LaneOf(mut.id)];
  if (lane.quarantined.load(std::memory_order_relaxed)) {
    return Status::Quarantined(
        "lane is quarantined after unrepairable snapshot corruption");
  }
  if (lane.commit->read_only()) return lane.commit->read_only_status();
  Pending p;
  p.mut = mut;
  return lane.queue->Push(std::move(p));
}

std::future<Status> IngestPipeline::PushWithAck(const WalMutation& mut) {
  Lane& lane = *lanes_[LaneOf(mut.id)];
  Pending p;
  p.mut = mut;
  p.ack = std::make_shared<std::promise<Status>>();
  std::future<Status> fut = p.ack->get_future();
  auto ack = p.ack;  // Push moves `p`
  Status st = lane.commit->read_only() ? lane.commit->read_only_status()
                                       : lane.queue->Push(std::move(p));
  if (!st.ok()) ack->set_value(st);
  return fut;
}

Status IngestPipeline::Flush() {
  Status first;
  for (auto& lane : lanes_) {
    Pending marker;
    marker.fence = true;
    marker.ack = std::make_shared<std::promise<Status>>();
    std::future<Status> fut = marker.ack->get_future();
    // The barrier must land even when backpressure is shedding: retry
    // until a slot frees up, giving up only when the lane closes.
    Status pushed;
    while (true) {
      pushed = lane->queue->Push(std::move(marker));
      if (pushed.ok() || pushed.code() != Status::Code::kResourceExhausted) {
        break;
      }
      marker = Pending();
      marker.fence = true;
      marker.ack = std::make_shared<std::promise<Status>>();
      fut = marker.ack->get_future();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const Status res = pushed.ok() ? fut.get() : pushed;
    if (first.ok() && !res.ok()) first = res;
  }
  return first;
}

IngestPipeline::ReadGuard IngestPipeline::AcquireRead(uint32_t lane) const {
  BSR_CHECK(lane < lanes_.size(), "lane index out of range");
  const Lane& l = *lanes_[lane];
  std::shared_lock<std::shared_mutex> lock = LockShared(l);
  return ReadGuard(std::move(lock), l.owned, l.tree);
}

std::shared_ptr<const BloomSampleTree> IngestPipeline::tree_handle() const {
  const Lane& lane = *lanes_[0];
  std::shared_lock<std::shared_mutex> lock = LockShared(lane);
  return lane.owned;
}

Status IngestPipeline::EnableCountingLeaves() {
  for (auto& lane : lanes_) {
    std::unique_lock<std::shared_mutex> lock = LockExclusive(lane.get());
    const Status st = lane->tree->EnableCountingLeaves();
    if (!st.ok()) return st;
  }
  return Status::OK();
}

bool IngestPipeline::read_only() const {
  for (const auto& lane : lanes_) {
    if (lane->commit->read_only()) return true;
  }
  return false;
}

Status IngestPipeline::read_only_status() const {
  for (const auto& lane : lanes_) {
    Status st = lane->commit->read_only_status();
    if (!st.ok()) return st;
  }
  return Status::OK();
}

IngestPipelineStats IngestPipeline::Stats() const {
  IngestPipelineStats stats;
  for (uint32_t i = 0; i < lanes_.size(); ++i) {
    const Lane& lane = *lanes_[i];
    stats.committed_batches += lane.commit->commit_count();
    stats.commit_groups += lane.commit->group_count();
    stats.fsyncs += lane.commit->fsync_count();
    stats.shed += lane.queue->shed_count();
    LaneStatusInfo info;
    info.lane = i;
    info.read_only = lane.commit->read_only();
    info.quarantined = lane.quarantined.load(std::memory_order_relaxed);
    const Status cause = lane.commit->latch_cause();
    info.latch_message = cause.message();
    info.latch_errno = cause.sys_errno();
    info.recover_attempts =
        lane.recover_attempts.load(std::memory_order_relaxed);
    info.recover_successes = lane.commit->recover_count();
    info.recovery_gave_up =
        lane.recovery_gave_up.load(std::memory_order_relaxed);
    stats.lanes.push_back(std::move(info));
  }
  return stats;
}

const std::string& IngestPipeline::lane_path(uint32_t lane) const {
  BSR_CHECK(lane < lanes_.size(), "lane index out of range");
  return lanes_[lane]->path;
}

Status IngestPipeline::Quarantine(uint32_t lane, const std::string& reason) {
  BSR_CHECK(lane < lanes_.size(), "lane index out of range");
  Lane& l = *lanes_[lane];
  // Marker first: only once the NEXT open is guaranteed to fail fast is
  // the in-memory fail-fast turned on. The reverse order could lose the
  // quarantine to a crash and reopen a known-bad image cleanly.
  const Status st = WriteQuarantineMarker(
      l.path, reason, FsOrDefault(options_.wal.fs));
  if (!st.ok()) return st;
  l.quarantined.store(true, std::memory_order_relaxed);
  return Status::OK();
}

bool IngestPipeline::lane_quarantined(uint32_t lane) const {
  BSR_CHECK(lane < lanes_.size(), "lane index out of range");
  return lanes_[lane]->quarantined.load(std::memory_order_relaxed);
}

void IngestPipeline::SupervisorLoop() {
  struct LaneRecoveryState {
    uint64_t attempts = 0;  ///< cumulative — flapping converges to sticky
    uint32_t backoff_shift = 0;
    std::chrono::steady_clock::time_point next_probe{};
  };
  const LaneRecoveryOptions& opts = options_.recovery;
  FileSystem* fs = FsOrDefault(options_.wal.fs);
  std::vector<LaneRecoveryState> state(lanes_.size());

  std::unique_lock<std::mutex> lock(supervisor_mu_);
  while (!stop_supervisor_) {
    supervisor_cv_.wait_for(lock, opts.poll_interval,
                            [&] { return stop_supervisor_; });
    if (stop_supervisor_) break;
    lock.unlock();
    for (size_t i = 0; i < lanes_.size(); ++i) {
      Lane& lane = *lanes_[i];
      LaneRecoveryState& rec = state[i];
      if (!lane.commit->read_only() ||
          lane.recovery_gave_up.load(std::memory_order_relaxed) ||
          lane.quarantined.load(std::memory_order_relaxed)) {
        continue;
      }
      // Classify by the ORIGINAL failure's errno, never its message text.
      // EINTR/EAGAIN: scheduler/signal noise — probe right away. ENOSPC:
      // recoverable by definition once space frees, so wait (without
      // burning budget) until the watermark says a probe can pass. EIO or
      // no errno at all: per fsyncgate the kernel may have dropped dirty
      // pages already — no probe can make that data safe, stay latched.
      const int err = lane.commit->latch_cause().sys_errno();
      if (err == ENOSPC) {
        auto free_space = fs->FreeSpace(lane.path);
        if (!free_space.ok() || free_space.value() < opts.min_free_bytes) {
          continue;  // disk still full — not permanent, not probeable yet
        }
      } else if (err != EINTR && err != EAGAIN) {
        lane.recovery_gave_up.store(true, std::memory_order_relaxed);
        continue;
      }
      const auto now = std::chrono::steady_clock::now();
      if (now < rec.next_probe) continue;
      if (rec.attempts >= opts.max_attempts) {
        lane.recovery_gave_up.store(true, std::memory_order_relaxed);
        continue;
      }
      ++rec.attempts;
      lane.recover_attempts.fetch_add(1, std::memory_order_relaxed);
      const Status probed = lane.commit->TryRecover();
      if (probed.ok()) {
        // Un-latched. Backoff resets; the cumulative attempt count does
        // NOT — a disk that keeps flapping runs out of budget and sticks.
        rec.backoff_shift = 0;
      } else {
        const uint32_t shift =
            rec.backoff_shift < 10 ? rec.backoff_shift : 10;
        rec.next_probe = now + opts.backoff_base * (1ull << shift);
        ++rec.backoff_shift;
      }
    }
    lock.lock();
  }
}

void IngestPipeline::WriterLoop(Lane* lane) {
  std::vector<WalMutation> muts;
  // The first failure among the mutations queued since the last Flush
  // marker — what that marker's ack reports, so a fire-and-forget Push
  // that was refused, NACKed or failed to apply never flushes as OK.
  Status since_fence;
  const auto note = [&since_fence](const Status& st) {
    if (since_fence.ok() && !st.ok()) since_fence = st;
  };
  while (true) {
    std::vector<Pending> batch = lane->pool.Acquire();
    if (!lane->queue->PopBatch(options_.max_batch, &batch)) {
      lane->pool.Release(std::move(batch));
      return;
    }
    // Process the batch in segments split at fence markers so a Flush
    // barrier acks only after everything enqueued before it is applied.
    size_t i = 0;
    while (i < batch.size()) {
      size_t j = i;
      muts.clear();
      for (; j < batch.size() && !batch[j].fence; ++j) {
        Pending& p = batch[j];
        const Status pre = Validate(*lane, p.mut);
        if (!pre.ok()) {
          p.skip = true;
          note(pre);
          if (p.ack != nullptr) p.ack->set_value(pre);
          continue;
        }
        muts.push_back(p.mut);
      }
      if (!muts.empty()) {
        // One Commit per drained segment: under kEveryRecord the whole
        // segment shares one fsync even with a single producer — the
        // queue is itself a batching stage in front of group commit.
        // The rotation window spans commit→apply exactly like the sync
        // path: compaction cannot snapshot between this segment's
        // acknowledgement and its tree mutations.
        std::shared_lock<std::shared_mutex> window = LockWindow(*lane);
        const Status st = lane->commit->Commit(muts);
        if (st.ok()) {
          std::unique_lock<std::shared_mutex> lock = LockExclusive(lane);
          for (size_t k = i; k < j; ++k) {
            Pending& p = batch[k];
            if (p.skip) continue;
            const Status applied = ApplyToTreeLocked(lane, p.mut);
            note(applied);
            if (p.ack != nullptr) p.ack->set_value(applied);
          }
        } else {
          note(st);
          for (size_t k = i; k < j; ++k) {
            Pending& p = batch[k];
            if (!p.skip && p.ack != nullptr) p.ack->set_value(st);
          }
          // The queue deliberately stays OPEN on a latch: Push already
          // fails fast via read_only(), queued work keeps draining (and
          // nacking) here, and — the point — the recovery supervisor can
          // clear a transient latch and this same thread then commits new
          // durable writes without a restart. Closing the queue would
          // kill the writer and make every latch terminal.
        }
      }
      if (j < batch.size()) {
        note(lane->commit->Fence());
        if (batch[j].ack != nullptr) batch[j].ack->set_value(since_fence);
        since_fence = Status::OK();
        ++j;
      }
      i = j;
    }
    lane->pool.Release(std::move(batch));
  }
}

Status IngestPipeline::HotSwapFromDisk(const LoadOptions& load) {
  if (lanes_.size() != 1 || lanes_[0]->owned == nullptr) {
    return Status::Unsupported(
        "hot snapshot swap supports single-tree pipelines only");
  }
  // Swap and compaction share one admission gate: both rewrite the
  // lane's tree/log pairing and must never interleave.
  bool expected = false;
  if (!compaction_running_.compare_exchange_strong(expected, true)) {
    return Status::ResourceExhausted(
        "a compaction or snapshot swap is already in flight");
  }
  Lane& lane = *lanes_[0];

  // Freeze the artifact: hold the commit-window barrier exclusively so no
  // committer sits between its log append and its tree mutation — and no
  // new window opens — while the on-disk image ∪ log is re-read. Writes
  // stall for the reload; readers keep serving the old tree throughout.
  std::unique_lock<std::shared_mutex> window = FreezeWindows(&lane);

  const Status st = [&]() -> Status {
    LoadOptions opts = load;
    opts.replay_wal = true;
    if (opts.fs == nullptr) opts.fs = options_.wal.fs;
    TreeLoadInfo info;
    auto loaded = LoadTreeFromFile(lane.path, opts, &info);
    if (!loaded.ok()) return loaded.status();
    auto fresh =
        std::make_shared<BloomSampleTree>(std::move(loaded).value());
    if (!fresh->pruned()) {
      return Status::Unsupported(
          "hot swap requires a pruned snapshot (complete trees take no "
          "ingest)");
    }
    // The old writer's descriptor and sequence numbers describe the log
    // as it stood before the reload — an external rebuild may have reset,
    // truncated, or replaced it. Reopen at the replayed count so
    // post-swap commits extend exactly the log the next recovery will
    // replay. ReplaceWal also clears a read-only latch: the restored
    // artifact is a fresh epoch.
    auto writer = WalWriter::Open(WalPathFor(lane.path),
                                  WalConfigFingerprint(fresh->config()),
                                  info.wal_records_replayed + 1,
                                  options_.wal);
    if (!writer.ok()) return writer.status();
    lane.commit->ReplaceWal(std::move(writer).value());
    {
      // The same refcounted install as the compaction swap: a reader's
      // guard keeps the retired tree (and its mmap) alive to the end of
      // its pass, so every pass sees wholly-old or wholly-new draws.
      std::unique_lock<std::shared_mutex> lock = LockExclusive(&lane);
      lane.owned = std::move(fresh);
      lane.tree = lane.owned.get();
    }
    // Loading clean proves no quarantine marker is on disk; the restored
    // artifact lifts the in-memory latch too.
    lane.quarantined.store(false, std::memory_order_relaxed);
    lane.recovery_gave_up.store(false, std::memory_order_relaxed);
    return Status::OK();
  }();

  window.unlock();
  compaction_running_.store(false);
  return st;
}

Status IngestPipeline::TriggerCompaction() {
  if (lanes_.size() != 1 || lanes_[0]->owned == nullptr) {
    return Status::Unsupported(
        "background compaction supports single-tree pipelines only; quiesce "
        "a forest with Close() and use CompactForest");
  }
  bool expected = false;
  if (!compaction_running_.compare_exchange_strong(expected, true)) {
    return Status::ResourceExhausted("a compaction is already in flight");
  }
  // The flag is ours, so the previous compaction (if any) has finished
  // its body; reap its thread before starting a new one.
  std::thread prev;
  {
    std::lock_guard<std::mutex> lock(compaction_mu_);
    prev = std::move(compaction_thread_);
  }
  if (prev.joinable()) prev.join();
  std::lock_guard<std::mutex> lock(compaction_mu_);
  compaction_thread_ = std::thread([this] {
    const Status result = CompactionBody();
    {
      std::lock_guard<std::mutex> lock(compaction_mu_);
      compaction_result_ = result;
    }
    // Publish the result before releasing the flag: a TriggerCompaction
    // that wins the CAS after this store must observe it.
    compaction_running_.store(false);
  });
  return Status::OK();
}

Status IngestPipeline::WaitCompaction() {
  std::thread done;
  {
    std::lock_guard<std::mutex> lock(compaction_mu_);
    done = std::move(compaction_thread_);
  }
  if (done.joinable()) done.join();
  std::lock_guard<std::mutex> lock(compaction_mu_);
  return compaction_result_;
}

Status IngestPipeline::CompactionBody() {
  Lane& lane = *lanes_[0];
  FileSystem* fs = FsOrDefault(options_.wal.fs);
  const std::string old_path = OldWalPathFor(lane.path);
  Status st;

  // 0. A crash between an earlier compaction's rotation and its step 5
  // left that frozen log behind, and rotating over it would drop it. The
  // live tree already holds it (OpenTree's contract: loaders replay
  // .wal.old before .wal), so fold it first: freeze every commit→apply
  // window as HotSwapFromDisk does — the tree is then exactly image ∪
  // both logs — save an image rebuilt from its occupied set, and retire
  // the stale log. The live log keeps its records; replaying them onto
  // the new image is a no-op.
  if (fs->FileExists(old_path)) {
    std::unique_lock<std::shared_mutex> frozen = FreezeWindows(&lane);
    TreeConfig config;
    std::vector<uint64_t> occupied;
    std::shared_ptr<const HashFamily> family;
    {
      std::shared_lock<std::shared_mutex> lock = LockShared(lane);
      config = lane.tree->config();
      occupied = lane.tree->occupied();
      family = lane.tree->family_ptr();
    }
    auto image = RebuildImage(config, std::move(occupied), std::move(family),
                              lane.path, options_.save);
    st = image.ok() ? RetireLog(fs, old_path) : image.status();
    if (!st.ok()) return st;
  }

  // 1. Rotate FIRST, so nothing new lands in the frozen log.
  // (Snapshot-first would leave post-snapshot records stranded in the
  // rotated log.)
  st = lane.commit->Rotate(old_path);
  if (!st.ok()) return st;

  // 2. Drain the commit→apply windows. Rotation froze the log in LOG
  // order, but a writer can already hold an acknowledgement against the
  // frozen log without having mutated the tree: snapshotting now would
  // miss that mutation, and step 5 would delete its only durable copy.
  // After the drain every .wal.old record has been applied, so the
  // snapshot (and the image built from it) strictly absorbs the frozen
  // log and retiring it can never lose an acknowledged write. Windows
  // opened after the rotation commit to the FRESH log and are safe on
  // either side of the snapshot: in `occupied` if applied before it,
  // else in the delta and replayable from the fresh log.
  { std::unique_lock<std::shared_mutex> drained = FreezeWindows(&lane); }

  // 3. Snapshot the live state under a brief exclusive hold and open the
  // delta side-track: mutations applied while we build are recorded and
  // re-applied to the fresh tree at swap.
  TreeConfig config;
  std::vector<uint64_t> occupied;
  std::shared_ptr<const HashFamily> family;
  bool counting = false;
  {
    std::unique_lock<std::shared_mutex> lock = LockExclusive(&lane);
    config = lane.tree->config();
    occupied = lane.tree->occupied();
    family = lane.tree->family_ptr();
    counting = lane.tree->counting_leaves();
    lane.compacting = true;
    lane.delta.clear();
  }
  auto abandon = [&](Status s) {
    std::unique_lock<std::shared_mutex> lock = LockExclusive(&lane);
    lane.compacting = false;
    lane.delta.clear();
    // The old tree stays live and on-disk state stays complete: the new
    // image (if written) plus the live .wal replay to the current state.
    return s;
  };

  // 4. Build + save with no lane locks held — ingest and queries proceed.
  auto fresh = RebuildImage(config, std::move(occupied), family, lane.path,
                            options_.save);
  if (!fresh.ok()) return abandon(fresh.status());

  // 5. The image is durable (SaveTreeToFile fences) and is a superset of
  // .wal.old (step 2 made that true in apply order) — retire the frozen
  // log.
  st = RetireLog(fs, old_path);
  if (!st.ok()) return abandon(st);

  // 6. Swap under the exclusive lock: bring the fresh tree up to date
  // with the delta, install it, and let the old tree retire when the last
  // ReadGuard's refcount drops.
  {
    std::unique_lock<std::shared_mutex> lock = LockExclusive(&lane);
    BloomSampleTree next = std::move(fresh).value();
    if (counting || lane.tree->counting_leaves()) {
      st = next.EnableCountingLeaves();
      if (!st.ok()) {
        lane.compacting = false;
        lane.delta.clear();
        return st;
      }
    }
    for (const WalMutation& mut : lane.delta) {
      const Status applied = mut.op == WalOp::kRemove ? next.Remove(mut.id)
                                                      : next.Insert(mut.id);
      if (!applied.ok()) {
        lane.compacting = false;
        lane.delta.clear();
        return applied;
      }
    }
    auto installed =
        std::make_shared<BloomSampleTree>(std::move(next));
    lane.owned = installed;
    lane.tree = installed.get();
    lane.compacting = false;
    lane.delta.clear();
  }
  return Status::OK();
}

Status IngestPipeline::Close() {
  if (closed_.exchange(true)) return Status::OK();
  Status first;
  {
    std::lock_guard<std::mutex> lock(supervisor_mu_);
    stop_supervisor_ = true;
  }
  supervisor_cv_.notify_all();
  if (supervisor_.joinable()) supervisor_.join();
  for (auto& lane : lanes_) lane->queue->Close();
  for (auto& lane : lanes_) {
    if (lane->writer.joinable()) lane->writer.join();
  }
  std::thread compaction;
  {
    std::lock_guard<std::mutex> lock(compaction_mu_);
    compaction = std::move(compaction_thread_);
  }
  if (compaction.joinable()) {
    compaction.join();
    std::lock_guard<std::mutex> lock(compaction_mu_);
    if (first.ok()) first = compaction_result_;
  }
  for (auto& lane : lanes_) {
    if (!lane->commit->read_only()) {
      const Status st = lane->commit->Fence();
      if (first.ok() && !st.ok()) first = st;
    }
    WalWriter* wal = lane->commit->wal();
    if (wal != nullptr) {
      const Status st = wal->Close();
      if (first.ok() && !st.ok()) first = st;
    }
  }
  return first;
}

}  // namespace bloomsample
