// BloomSampleTree persistence.
//
// The tree is the build-once artifact of the whole system (Section 5:
// "constructed only once and repeatedly used"); persisting it turns a
// multi-second rebuild into a file read. Two on-disk formats:
//
//   * v1 — the legacy stream format of SerializeTree/DeserializeTree: a
//     field-by-field little-endian encoding, parsed word-at-a-time on
//     load. Portable, still fully readable (and writable via
//     SerializeTree); cost: a full O(m·n) parse on every open.
//   * v2 — the snapshot format SaveTreeToFile writes by default. The
//     payload is a single 64-byte-aligned arena image — header, node
//     table, id→block index, occupancy, then the raw filter slab at a
//     page-aligned offset, every block at the arena's cache-line stride:
//
//       [header 144B][region checksums 40/48B, when flagged]
//       [chunk digests u64 each, when flagged]
//       [node table 48B/node][id→block u32/node]
//       [occupied u64 each][zero pad to 4 KiB][slab: stride·8 B/block]
//
//     The checksum block (on by default, see SaveOptions::checksums)
//     holds one XXH64 digest per region — header, node table, block
//     index, occupancy, slab — verified at open (slab verification is
//     skipped on lazy mmap opens by design; see SaveOptions). With
//     SaveOptions::chunk_checksums a sixth digest guards a per-64KiB
//     chunk digest table over the slab, placed between the checksum
//     block and the node table — the unit the online scrubber and
//     `bsr verify` walk, and the granularity read-repair localizes to.
//
//     Because the slab *is* the in-memory FilterArena layout, loading can
//     either bulk-read it (heap mode, one I/O) or mmap it (zero-copy
//     mode: every node's BitVector span points straight into a
//     MAP_PRIVATE mapping, so open cost is O(metadata) — milliseconds,
//     independent of m·n — pages fault in on first touch, and trees
//     larger than RAM stay usable). Node popcounts are persisted in the
//     node table, so neither mode touches payload words at open time.
//
// The slab can be written in either node-id order or the descent-aware
// kDescent layout (see NodeLayout in bloom_sample_tree.h); the id→block
// index keys the permutation, so logical ids — and therefore every draw
// and reconstruction — are identical across formats, layouts, and load
// modes.
//
// Metadata is encoded little-endian on every host; the slab is dumped in
// native byte order and guarded by a byte-order mark, so a v2 snapshot is
// portable between same-endian machines and cleanly rejected (use v1)
// across endianness.
#ifndef BLOOMSAMPLE_CORE_TREE_IO_H_
#define BLOOMSAMPLE_CORE_TREE_IO_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/bloom_sample_tree.h"
#include "src/core/wal.h"
#include "src/util/file_system.h"
#include "src/util/status.h"

namespace bloomsample {

/// How SaveTreeToFile lays the file out.
struct SaveOptions {
  /// 2 = flat snapshot (the default), 1 = legacy stream format.
  uint32_t version = 2;
  /// Slab block order (v2 only; v1 is inherently id-ordered).
  NodeLayout layout = NodeLayout::kDescent;
  /// File system the save writes through; nullptr = FileSystem::Default().
  /// Tests pass a FaultInjectingFileSystem here to kill the save at every
  /// kill point and assert the old snapshot always survives.
  FileSystem* fs = nullptr;
  /// Emit per-region XXH64 checksums (v2 only): header, node table,
  /// id→block index, occupancy, and filter slab each get an 8-byte digest
  /// in an extended header, verified at open so bit rot fails loudly
  /// instead of skewing estimates. Flagged in the file, so readers accept
  /// both flavors; `false` reproduces the PR-5 on-disk layout byte for
  /// byte. Verification policy on load: the four metadata regions are
  /// always verified; the slab is verified on heap loads and prewarmed
  /// mmap loads, and intentionally skipped on lazy mmap opens (hashing the
  /// slab would fault in every page and destroy the O(metadata) open).
  bool checksums = true;
  /// Also emit a per-chunk digest table over the filter slab (one XXH64
  /// per 64 KiB chunk, flag-gated like `checksums` and requiring it).
  /// The whole-slab digest detects corruption; the chunk table LOCATES it
  /// — the online scrubber walks chunks incrementally (mmap-safe: it
  /// preads the file, never the mapping) and read-repair targets the one
  /// damaged range. `false` reproduces the PR-8 layout byte for byte.
  bool chunk_checksums = true;
};

/// How LoadTreeFromFile materializes a v2 snapshot's slab.
enum class LoadMode : uint32_t {
  kAuto = 0,  ///< mmap when the platform supports it, else heap
  kHeap = 1,  ///< bulk-read the slab into a freshly allocated arena
  kMmap = 2,  ///< zero-copy: spans point into a MAP_PRIVATE mapping
};

struct LoadOptions {
  LoadMode mode = LoadMode::kAuto;
  /// Prewarm the mapping at open time (MAP_POPULATE where available):
  /// trades the O(ms) lazy open for fault-free first queries.
  bool prewarm = false;
  /// Optional shared hash family to build the loaded tree around instead
  /// of a freshly created instance. Filter compatibility is pointer
  /// identity on the family, so a forest loader passes one family here for
  /// every shard image and a single query filter then serves all of them.
  /// Must match the file's (kind, k, m, seed) — validated; null (the
  /// default) creates a fresh family from the file's config.
  std::shared_ptr<const HashFamily> family;
  /// Replay the sidecar write-ahead log (`<path>.wal`, see core/wal.h)
  /// after the image opens, re-applying logged inserts in order and
  /// amputating any torn/corrupt tail. The recovered tree is identical to
  /// one that never crashed; TreeLoadInfo reports what replay did. Off =
  /// open the image exactly as written (bench/debug use).
  bool replay_wal = true;
  /// File system replay truncates the log through; nullptr = Default().
  FileSystem* fs = nullptr;

  /// Defaults overridden by the environment: BSR_LOAD=heap|mmap|auto picks
  /// the mode (unknown values keep kAuto), BSR_LOAD_PREWARM=1 sets
  /// prewarm. Lets the whole test suite / a deployment flip load paths
  /// without a rebuild.
  static LoadOptions FromEnv();
};

/// What LoadTreeFromFile actually did — for CLI/bench load-time lines.
struct TreeLoadInfo {
  enum class Method : uint32_t { kStreamV1 = 1, kHeapV2 = 2, kMmapV2 = 3 };
  Method method = Method::kStreamV1;
  uint32_t version = 0;
  NodeLayout layout = NodeLayout::kIdOrder;
  /// Bytes of slab mapped zero-copy (0 for heap/stream loads).
  uint64_t mapped_bytes = 0;
  /// Sidecar WAL results (meaningful when LoadOptions::replay_wal is on).
  /// wal_records_replayed counts the CURRENT log (`<path>.wal`) — it seeds
  /// the writer's sequence numbers; records from a rotated-out
  /// `<path>.wal.old` (background compaction in flight at crash time) are
  /// reported separately.
  bool wal_present = false;
  uint64_t wal_records_replayed = 0;
  uint64_t wal_old_records_replayed = 0;
  /// A torn or corrupt log tail was found and cut off — everything before
  /// it replayed fine. The snapshot itself was intact.
  bool wal_recovered_corruption = false;
};

const char* TreeLoadMethodName(TreeLoadInfo::Method method);

/// Chunk-digest geometry of a v2 snapshot — everything the scrubber needs
/// to walk a file incrementally without parsing the payload regions.
struct SnapshotChunkInfo {
  uint64_t file_bytes = 0;
  uint64_t slab_offset = 0;   ///< page-aligned start of the filter slab
  uint64_t slab_bytes = 0;
  uint64_t chunk_bytes = 0;   ///< 64 KiB (last chunk may be shorter)
  bool has_checksums = false;        ///< whole-slab digest present
  bool has_chunk_checksums = false;  ///< per-chunk table present
  uint64_t slab_digest = 0;   ///< whole-slab XXH64 (when has_checksums)
  /// One XXH64 per chunk, in file order; empty when not flagged.
  std::vector<uint64_t> chunk_digests;
};

/// Parses and verifies a v2 snapshot's metadata (header, digests, regions)
/// and returns its chunk geometry. Fails with the same statuses
/// LoadTreeFromFile would (kInvalidArgument on a digest mismatch, etc.) —
/// a cheap O(metadata) pre-flight that never touches the slab. v1 streams
/// fail with kUnsupported (no chunk geometry exists to report).
Result<SnapshotChunkInfo> ReadSnapshotChunkInfo(const std::string& path,
                                                FileSystem* fs = nullptr);

/// Full offline integrity walk — what `bsr verify` runs. Verifies the
/// metadata digests, then preads the slab and checks it chunk-by-chunk
/// (whole-slab digest when the file predates chunk checksums; clean pass
/// when it predates checksums entirely). On a chunk mismatch returns
/// kInvalidArgument and reports the first bad chunk index via
/// `first_bad_chunk` (optional; UINT64_MAX when the failure was not a
/// specific chunk). A quarantine marker next to the file short-circuits
/// to kQuarantined. v1 streams get a clean pass (nothing to verify
/// against).
Status VerifySnapshotFile(const std::string& path, FileSystem* fs = nullptr,
                          uint64_t* first_bad_chunk = nullptr);

/// `<path>.quarantine` — the sidecar marker a failed repair leaves behind.
/// While present, LoadTreeFromFile and VerifySnapshotFile fail fast with
/// kQuarantined instead of serving (or crashing on) a known-bad image;
/// forest siblings keep serving. Remove the marker (ClearQuarantineMarker)
/// after restoring the file to lift the quarantine.
std::string QuarantinePathFor(const std::string& snapshot_path);
bool IsQuarantined(const std::string& snapshot_path,
                   FileSystem* fs = nullptr);
/// Writes the marker durably (content = reason, fsynced, dir-fenced).
Status WriteQuarantineMarker(const std::string& snapshot_path,
                             const std::string& reason,
                             FileSystem* fs = nullptr);
Status ClearQuarantineMarker(const std::string& snapshot_path,
                             FileSystem* fs = nullptr);

/// Writes the tree in the legacy v1 stream format (byte-identical to
/// pre-snapshot releases).
Status SerializeTree(const BloomSampleTree& tree, std::ostream* out);

/// Reads a tree from a stream holding either format (version-dispatched on
/// the magic tag). v2 payloads are materialized on the heap — streams
/// cannot be mmap'ed; use LoadTreeFromFile for the zero-copy path.
Result<BloomSampleTree> DeserializeTree(std::istream* in);

/// Writes a v2 snapshot in the descent layout (see SaveOptions defaults).
/// Durable and atomic: the image lands at `path + ".tmp"`, is fsynced,
/// renamed over `path`, and the rename is fenced with a directory fsync —
/// a crash at any point leaves either the complete old file or the
/// complete new one, never a torn mix. A failed save removes the temp
/// (best effort) and leaves `path` untouched.
Status SaveTreeToFile(const BloomSampleTree& tree, const std::string& path);
Status SaveTreeToFile(const BloomSampleTree& tree, const std::string& path,
                      const SaveOptions& options);

/// Loads either format; mode/prewarm default from LoadOptions::FromEnv().
/// `info` (optional) reports the load method, format version, layout, and
/// mapped bytes.
Result<BloomSampleTree> LoadTreeFromFile(const std::string& path);
Result<BloomSampleTree> LoadTreeFromFile(const std::string& path,
                                         const LoadOptions& options,
                                         TreeLoadInfo* info = nullptr);

}  // namespace bloomsample

#endif  // BLOOMSAMPLE_CORE_TREE_IO_H_
