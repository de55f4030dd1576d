// Write-ahead delta log for dynamic inserts (and, with counting-bloom
// leaves, removes).
//
// A v2 snapshot is an immutable bulk artifact: rewriting the whole image
// on every Insert would turn an O(depth · m) operation into an O(file)
// one. Instead, each snapshot `<path>` may carry a sidecar log at
// `<path>.wal` holding the mutations applied since the image was written.
// Recovery is replay: LoadTreeFromFile opens the image, then re-applies
// the log's records in order — Insert is idempotent (inserting a present
// id is a no-op), so replaying an already-applied prefix is harmless and
// the recovered tree is bit-identical to one that never crashed.
//
// On-disk layout (little-endian throughout):
//
//   header (32 B):  'BSTW' u32 | version u32 | config fingerprint u64 |
//                   reserved u64 | XXH64(first 24 B) u64
//   record (32 B):  payload length u32 (= 20) |
//                   payload { seq u64 | op u32 | id u64 } |
//                   XXH64(payload) u64
//
// The fingerprint hashes the tree-identity fields of TreeConfig, so a log
// can never replay into a tree with different geometry. Sequence numbers
// are dense (1, 2, 3, …): a gap, a checksum mismatch, a bad length, or a
// torn tail all mark the FIRST invalid record, and replay amputates the
// file there — everything before it is intact by construction (records
// are appended in order and fsync is a prefix fence).
//
// Online compaction rotates the log instead of truncating it: the live
// `<path>.wal` is renamed to `<path>.wal.old` (sequence space frozen) and
// a fresh `<path>.wal` starts at seq 1. A loader replays `.wal.old` first,
// then `.wal`; compaction deletes `.wal.old` only after the image that
// absorbed it is durable, so every crash point leaves image ∪ logs
// complete.
//
// One code path appends: IngestPipeline, through GroupCommitWal. The tree
// itself never logs.
//
// Sync policy is the durability/throughput dial (bench/micro_ingest.cpp
// measures it): kEveryRecord fsyncs each commit before acknowledging it
// (no acknowledged insert is ever lost), kInterval fsyncs every N appends
// (bounded loss window), kNone never fsyncs (crash loses the OS-buffered
// tail; the tree still recovers to a consistent prefix).
//
// Failure handling is fsyncgate-aware: after ANY failed append or fsync
// the writer latches dead — it never re-fsyncs a descriptor whose dirty
// pages the kernel may already have dropped. Repair() recovers the honest
// way: truncate the file back to the last provably durable byte, reopen
// the descriptor, re-append the records the failed fence did not cover
// (identical bytes — sequence numbers are preserved), and fence again.
#ifndef BLOOMSAMPLE_CORE_WAL_H_
#define BLOOMSAMPLE_CORE_WAL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/core/tree_config.h"
#include "src/util/file_system.h"
#include "src/util/status.h"

namespace bloomsample {

/// Logged mutation kinds. kRemove records replay only into trees whose
/// leaves use the counting-bloom backend (plain Bloom filters cannot
/// unset bits); replay surfaces a clear error otherwise. kNoop records
/// mutate nothing — lane recovery appends one and fsyncs it to prove a
/// reopened descriptor round-trips before un-latching; replay consumes
/// the sequence number and moves on.
enum class WalOp : uint32_t { kInsert = 1, kRemove = 2, kNoop = 3 };

struct WalRecord {
  uint64_t seq = 0;  ///< dense, 1-based
  WalOp op = WalOp::kInsert;
  uint64_t id = 0;  ///< the namespace element
};

/// An unsequenced mutation — what callers hand to the commit paths; the
/// writer assigns the sequence number at append time.
struct WalMutation {
  WalOp op = WalOp::kInsert;
  uint64_t id = 0;
};

enum class WalSyncPolicy : uint32_t {
  kEveryRecord = 0,  ///< fsync after every append
  kInterval = 1,     ///< fsync every sync_interval appends
  kNone = 2,         ///< never fsync (OS decides)
};

/// "every" / "interval" / "none".
const char* WalSyncPolicyName(WalSyncPolicy policy);

struct WalOptions {
  WalSyncPolicy policy = WalSyncPolicy::kEveryRecord;
  uint64_t sync_interval = 64;  ///< for kInterval
  /// File system the writer appends through; nullptr = FileSystem::Default().
  FileSystem* fs = nullptr;
};

/// `<snapshot path>.wal` — the sidecar convention shared by the writer,
/// replay, the loaders, and compaction.
std::string WalPathFor(const std::string& snapshot_path);

/// `<snapshot path>.wal.old` — the rotated-out log a background compaction
/// is folding into the next image. Loaders replay it BEFORE the live log.
std::string OldWalPathFor(const std::string& snapshot_path);

/// Durably removes both logs an image at `snapshot_path` replays on open
/// (`.wal.old`, then `.wal`), each fenced with a directory sync; absent
/// logs are skipped. Run once the image holds their records, or before a
/// fresh image replaces one whose records must not be replayed into it.
Status RetireLogs(FileSystem* fs, const std::string& snapshot_path);

/// XXH64 over the tree-identity fields of `config` (namespace_size, m, k,
/// hash_kind, seed, depth). Runtime policy knobs (threads, thresholds) are
/// excluded — they never change what a record means.
uint64_t WalConfigFingerprint(const TreeConfig& config);

/// Appends checksummed records to a log file. Single writer per log, NOT
/// thread-safe — GroupCommitWal owns it and funnels every append through
/// one leader at a time.
class WalWriter {
 public:
  /// Opens `path` for appending. A missing or header-less file is created
  /// fresh (header written and fsynced, creation fenced with a directory
  /// sync); an existing log must carry a valid header with a matching
  /// fingerprint. `next_seq` is the first sequence number this writer will
  /// emit — pass WalReplayStats::next_seq after replay, 1 for a new log.
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                 uint64_t fingerprint,
                                                 uint64_t next_seq,
                                                 const WalOptions& options);

  /// Appends one record (assigning it the next sequence number) without
  /// the policy sync — the group-commit building block: the leader appends
  /// a whole batch, then fences once with MaybeSync(). On error the log
  /// tail is suspect: the writer latches dead and every later append fails
  /// until Repair() — but the on-disk prefix up to the last successful
  /// sync remains replayable regardless.
  Status AppendNoSync(WalOp op, uint64_t id);

  /// The policy's sync decision for the current unsynced tail: kEveryRecord
  /// always fences, kInterval fences when the interval is due, kNone never.
  Status MaybeSync();

  /// Explicit durability fence, regardless of policy. A FAILED fence
  /// latches the writer dead: per fsyncgate, the kernel may have dropped
  /// the dirty pages, so retrying fsync on the same descriptor and
  /// believing its success would silently lose records.
  Status Sync();

  /// Recovers a dead writer without trusting a poisoned descriptor:
  /// truncates the file to the last provably durable byte, reopens it, re-
  /// appends every record the failed fence left uncovered (same bytes,
  /// same seqs — the writer buffers its unsynced tail for exactly this),
  /// and fences. On success the writer is alive again and nothing was
  /// lost; on failure it stays dead and Repair may be retried (each step
  /// is idempotent). No-op on a healthy writer.
  Status Repair();

  /// Drops the LAST `n` buffered unsynced records before a Repair — the
  /// un-latch path uses this to forget records whose commits were already
  /// NACKed (re-logging them would make replay diverge from the
  /// acknowledged state). Rewinds the sequence counter to match, so the
  /// repaired log stays dense. Only meaningful on a dead writer; the
  /// records must still be in the unsynced tail.
  Status DropUnsyncedTailRecords(uint64_t n);

  Status Close();

  bool dead() const { return dead_; }
  const WalOptions& options() const { return options_; }
  /// The config fingerprint this log was opened with (rotation reopens
  /// the fresh log under the same identity).
  uint64_t fingerprint() const { return fingerprint_; }
  uint64_t next_seq() const { return next_seq_; }
  /// Records appended through this writer (not counting replayed ones).
  uint64_t appended() const { return appended_; }
  /// Successful fsyncs issued by this writer (bench: group-commit
  /// factor). Atomic so stats pollers (GroupCommitWal::fsync_count) can
  /// read it while a commit leader is mid-sync.
  uint64_t sync_count() const {
    return sync_count_.load(std::memory_order_relaxed);
  }
  const std::string& path() const { return path_; }

 private:
  WalWriter(std::string path, std::unique_ptr<WritableFile> file,
            const WalOptions& options, uint64_t fingerprint,
            uint64_t next_seq, uint64_t base_bytes)
      : path_(std::move(path)),
        file_(std::move(file)),
        options_(options),
        fingerprint_(fingerprint),
        next_seq_(next_seq),
        durable_bytes_(base_bytes) {}

  std::string path_;
  std::unique_ptr<WritableFile> file_;
  WalOptions options_;
  uint64_t fingerprint_;
  uint64_t next_seq_;
  uint64_t appended_ = 0;
  uint64_t unsynced_ = 0;  ///< appends since the last fsync
  std::atomic<uint64_t> sync_count_{0};
  bool dead_ = false;  ///< failed append/fsync poisons the tail until Repair
  /// Byte length of the file prefix known durable (content at open +
  /// successfully fenced appends). Repair truncates here.
  uint64_t durable_bytes_;
  /// Encoded records appended but not yet covered by a successful fsync —
  /// the bytes Repair re-appends after truncating.
  std::string unsynced_tail_;
};

/// What replay found (and fixed) in a log.
struct WalReplayStats {
  bool present = false;             ///< a log file existed
  uint64_t records_replayed = 0;    ///< valid records consumed, in order
                                    ///< (kNoop probes count: they hold seqs)
  bool recovered_corruption = false;  ///< a torn/corrupt tail was cut off
  uint64_t next_seq = 1;            ///< first seq a writer should emit
};

/// Replays `path` in order, calling `apply` for each valid record. Stops
/// at the first invalid one — bad length, checksum mismatch, sequence gap,
/// torn tail, unknown op — and truncates the physical file there, so a
/// later writer appends onto a clean prefix. A missing file is not an
/// error (fresh tree). A mismatched config fingerprint IS an error: that
/// log belongs to a different tree. Errors from `apply` abort the replay
/// unchanged (a kRemove hitting a plain-Bloom tree surfaces here).
Result<WalReplayStats> ReplayWal(
    const std::string& path, uint64_t fingerprint,
    const std::function<Status(const WalRecord&)>& apply,
    FileSystem* fs = nullptr);

}  // namespace bloomsample

#endif  // BLOOMSAMPLE_CORE_WAL_H_
