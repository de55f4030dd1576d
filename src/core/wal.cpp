#include "src/core/wal.h"

#include <cstring>
#include <fstream>
#include <vector>

#include "src/util/xxhash64.h"

namespace bloomsample {

namespace {

constexpr uint32_t kWalTag = 0x57545342;  // 'BSTW' little-endian
constexpr uint32_t kWalVersion = 1;
constexpr size_t kWalHeaderBytes = 32;
constexpr uint32_t kWalPayloadBytes = 20;  // seq u64 | op u32 | id u64
constexpr size_t kWalRecordBytes = 4 + kWalPayloadBytes + 8;

void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

void PutU64(uint8_t* p, uint64_t v) {
  PutU32(p, static_cast<uint32_t>(v));
  PutU32(p + 4, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

void EncodeHeader(uint64_t fingerprint, uint8_t out[kWalHeaderBytes]) {
  PutU32(out, kWalTag);
  PutU32(out + 4, kWalVersion);
  PutU64(out + 8, fingerprint);
  PutU64(out + 16, 0);  // reserved
  PutU64(out + 24, XxHash64::Hash(out, 24));
}

void EncodeRecord(const WalRecord& rec, uint8_t out[kWalRecordBytes]) {
  PutU32(out, kWalPayloadBytes);
  uint8_t* payload = out + 4;
  PutU64(payload, rec.seq);
  PutU32(payload + 8, static_cast<uint32_t>(rec.op));
  PutU64(payload + 12, rec.id);
  PutU64(out + 4 + kWalPayloadBytes, XxHash64::Hash(payload, kWalPayloadBytes));
}

/// True when `bytes` starts with a structurally valid header carrying
/// `fingerprint`. `*fingerprint_out` reports the stored fingerprint when
/// the header is otherwise valid (for the mismatch diagnostic).
bool HeaderValid(const uint8_t* bytes, size_t len, uint64_t* fingerprint_out) {
  if (len < kWalHeaderBytes) return false;
  if (GetU32(bytes) != kWalTag || GetU32(bytes + 4) != kWalVersion) {
    return false;
  }
  if (GetU64(bytes + 24) != XxHash64::Hash(bytes, 24)) return false;
  *fingerprint_out = GetU64(bytes + 8);
  return true;
}

}  // namespace

const char* WalSyncPolicyName(WalSyncPolicy policy) {
  switch (policy) {
    case WalSyncPolicy::kEveryRecord:
      return "every";
    case WalSyncPolicy::kInterval:
      return "interval";
    case WalSyncPolicy::kNone:
      return "none";
  }
  return "unknown";
}

std::string WalPathFor(const std::string& snapshot_path) {
  return snapshot_path + ".wal";
}

std::string OldWalPathFor(const std::string& snapshot_path) {
  return snapshot_path + ".wal.old";
}

Status RetireLogs(FileSystem* fs, const std::string& snapshot_path) {
  for (const std::string& log :
       {OldWalPathFor(snapshot_path), WalPathFor(snapshot_path)}) {
    if (!fs->FileExists(log)) continue;
    Status st = fs->RemoveFile(log);
    if (st.ok()) st = fs->SyncDirOf(log);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

uint64_t WalConfigFingerprint(const TreeConfig& config) {
  uint8_t buf[44];
  PutU64(buf, config.namespace_size);
  PutU64(buf + 8, config.m);
  PutU64(buf + 16, config.k);
  PutU32(buf + 24, static_cast<uint32_t>(config.hash_kind));
  PutU64(buf + 28, config.seed);
  PutU32(buf + 36, config.depth);
  PutU32(buf + 40, 0);  // pad
  return XxHash64::Hash(buf, sizeof(buf));
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                   uint64_t fingerprint,
                                                   uint64_t next_seq,
                                                   const WalOptions& options) {
  FileSystem* fs = options.fs != nullptr ? options.fs : FileSystem::Default();

  bool fresh = true;
  if (fs->FileExists(path)) {
    // Validate the existing header before appending behind it. Replay
    // normally runs first and amputates damage, but an Open without
    // replay must not append onto garbage.
    std::ifstream in(path, std::ios::binary);
    uint8_t header[kWalHeaderBytes];
    in.read(reinterpret_cast<char*>(header), kWalHeaderBytes);
    if (in.gcount() == static_cast<std::streamsize>(kWalHeaderBytes)) {
      uint64_t stored = 0;
      if (!HeaderValid(header, kWalHeaderBytes, &stored)) {
        return Status::InvalidArgument("wal '" + path +
                                       "': corrupt header (run replay first)");
      }
      if (stored != fingerprint) {
        return Status::InvalidArgument(
            "wal '" + path + "': config fingerprint mismatch — this log "
            "belongs to a tree with different parameters");
      }
      fresh = false;
    }
    // Shorter than a header: a creation that died mid-write; rebuild it.
  }

  WalOptions opts = options;
  opts.fs = fs;
  if (fresh) {
    auto created = fs->NewWritableFile(path, WriteMode::kTruncate);
    if (!created.ok()) return created.status();
    uint8_t header[kWalHeaderBytes];
    EncodeHeader(fingerprint, header);
    Status st = created.value()->Append(header, kWalHeaderBytes);
    if (st.ok()) st = created.value()->Sync();
    if (st.ok()) st = created.value()->Close();
    if (st.ok()) st = fs->SyncDirOf(path);
    if (!st.ok()) return st;
    // Fall through to the append-mode open below: an O_APPEND descriptor
    // always lands at the inode's current end.
  }

  // Whatever the file holds at open time — header plus replayed records —
  // is the durable base Repair() may truncate back to.
  uint64_t base_bytes = kWalHeaderBytes;
  auto size = fs->FileSize(path);
  if (size.ok()) base_bytes = size.value();

  auto file = fs->NewWritableFile(path, WriteMode::kAppend);
  if (!file.ok()) return file.status();
  return std::unique_ptr<WalWriter>(new WalWriter(
      path, std::move(file).value(), opts, fingerprint, next_seq,
      base_bytes));
}

Status WalWriter::AppendNoSync(WalOp op, uint64_t id) {
  if (dead_) {
    return Status::Internal("wal '" + path_ +
                            "': writer is dead after an earlier append/fsync "
                            "failure; Repair() or reopen the tree");
  }
  WalRecord rec;
  rec.seq = next_seq_;
  rec.op = op;
  rec.id = id;
  uint8_t buf[kWalRecordBytes];
  EncodeRecord(rec, buf);
  Status st = file_->Append(buf, kWalRecordBytes);
  if (!st.ok()) {
    // The tail may be torn mid-record; no further appends behind it. The
    // failed record is NOT buffered (its seq was not consumed), so Repair
    // restores the log to exactly the pre-failure state.
    dead_ = true;
    return st;
  }
  unsynced_tail_.append(reinterpret_cast<const char*>(buf), kWalRecordBytes);
  ++next_seq_;
  ++appended_;
  ++unsynced_;
  return Status::OK();
}

Status WalWriter::MaybeSync() {
  switch (options_.policy) {
    case WalSyncPolicy::kEveryRecord:
      return Sync();
    case WalSyncPolicy::kInterval:
      if (unsynced_ >= options_.sync_interval) return Sync();
      return Status::OK();
    case WalSyncPolicy::kNone:
      return Status::OK();
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  if (dead_) return Status::Internal("wal '" + path_ + "': writer is dead");
  const Status st = file_->Sync();
  if (!st.ok()) {
    // fsyncgate: the kernel may have dropped the dirty pages while
    // reporting the error. Latch dead; Repair() re-appends the buffered
    // tail instead of re-fsyncing this descriptor.
    dead_ = true;
    return st;
  }
  unsynced_ = 0;
  durable_bytes_ += unsynced_tail_.size();
  unsynced_tail_.clear();
  ++sync_count_;
  return Status::OK();
}

Status WalWriter::DropUnsyncedTailRecords(uint64_t n) {
  if (n == 0) return Status::OK();
  if (!dead_) {
    return Status::Internal("wal '" + path_ +
                            "': can only drop tail records from a dead "
                            "writer (they may already be durable)");
  }
  const uint64_t bytes = n * kWalRecordBytes;
  if (bytes > unsynced_tail_.size() || next_seq_ < n + 1) {
    return Status::Internal("wal '" + path_ +
                            "': drop count exceeds the unsynced tail");
  }
  unsynced_tail_.resize(unsynced_tail_.size() - bytes);
  appended_ -= n;
  next_seq_ -= n;
  if (unsynced_ >= n) unsynced_ -= n;
  return Status::OK();
}

Status WalWriter::Repair() {
  if (!dead_) return Status::OK();
  FileSystem* fs = options_.fs;
  // Drop the poisoned descriptor first; its buffered state is untrusted.
  if (file_ != nullptr) {
    (void)file_->Close();
    file_.reset();
  }
  // Cut the file back to the provably durable prefix: this removes both a
  // possibly-torn tail record and appends whose only covering fsync
  // failed (which the kernel may or may not have persisted).
  Status st = fs->Truncate(path_, durable_bytes_);
  if (!st.ok()) return st;
  auto reopened = fs->NewWritableFile(path_, WriteMode::kAppend);
  if (!reopened.ok()) return reopened.status();
  file_ = std::move(reopened).value();
  // Re-append the unsynced records byte-for-byte (same seqs) and fence.
  if (!unsynced_tail_.empty()) {
    st = file_->Append(unsynced_tail_.data(), unsynced_tail_.size());
    if (!st.ok()) return st;
  }
  st = file_->Sync();
  if (!st.ok()) return st;
  durable_bytes_ += unsynced_tail_.size();
  unsynced_tail_.clear();
  unsynced_ = 0;
  ++sync_count_;
  dead_ = false;
  return Status::OK();
}

Status WalWriter::Close() {
  // A failed Repair may have dropped the descriptor already (the file is
  // closed, just not reopenable) — Close on that writer is a no-op.
  if (file_ == nullptr) return Status::OK();
  const Status st = file_->Close();
  file_.reset();
  return st;
}

Result<WalReplayStats> ReplayWal(
    const std::string& path, uint64_t fingerprint,
    const std::function<Status(const WalRecord&)>& apply, FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  WalReplayStats stats;
  if (!fs->FileExists(path)) return stats;
  stats.present = true;

  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    return Status::Internal("wal '" + path + "': cannot open for replay");
  }
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(bytes.data()), size);
    if (in.gcount() != size) {
      return Status::Internal("wal '" + path + "': short read during replay");
    }
  }

  uint64_t stored_fingerprint = 0;
  if (!HeaderValid(bytes.data(), bytes.size(), &stored_fingerprint)) {
    // No intact header: nothing in this file is trustworthy. Amputate to
    // zero bytes; WalWriter::Open rebuilds the header.
    if (!bytes.empty()) {
      stats.recovered_corruption = true;
      Status st = fs->Truncate(path, 0);
      if (!st.ok()) return st;
    }
    return stats;
  }
  if (stored_fingerprint != fingerprint) {
    return Status::InvalidArgument(
        "wal '" + path + "': config fingerprint mismatch — this log belongs "
        "to a tree with different parameters");
  }

  size_t offset = kWalHeaderBytes;
  uint64_t expected_seq = 1;
  while (true) {
    if (offset + 4 > bytes.size()) break;  // torn length prefix (or EOF)
    const uint32_t len = GetU32(bytes.data() + offset);
    if (len != kWalPayloadBytes) break;  // empty/huge/garbage length
    if (offset + 4 + len + 8 > bytes.size()) break;  // torn payload/digest
    const uint8_t* payload = bytes.data() + offset + 4;
    if (GetU64(payload + len) != XxHash64::Hash(payload, len)) break;
    WalRecord rec;
    rec.seq = GetU64(payload);
    rec.op = static_cast<WalOp>(GetU32(payload + 8));
    rec.id = GetU64(payload + 12);
    if (rec.seq != expected_seq) break;  // gap or replayed-out-of-order
    if (rec.op == WalOp::kNoop) {
      // Recovery probe: mutates nothing, but counts like any record — it
      // consumed a sequence number, and records_replayed seeds the next
      // writer's seq (IngestPipeline::OpenTree takes replayed + 1).
      ++expected_seq;
      ++stats.records_replayed;
      offset += 4 + len + 8;
      continue;
    }
    if (rec.op != WalOp::kInsert && rec.op != WalOp::kRemove) {
      break;  // unknown op: can't apply safely
    }
    Status st = apply(rec);
    if (!st.ok()) return st;  // tree-side failure, not log corruption
    ++expected_seq;
    ++stats.records_replayed;
    offset += 4 + len + 8;
  }
  stats.next_seq = expected_seq;

  if (offset < bytes.size()) {
    // First invalid record found at `offset`: cut the file there so the
    // next writer appends onto a clean prefix.
    stats.recovered_corruption = true;
    Status st = fs->Truncate(path, offset);
    if (!st.ok()) return st;
  }
  return stats;
}

}  // namespace bloomsample
