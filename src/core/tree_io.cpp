#include "src/core/tree_io.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

#include <sstream>

#include "src/bloom/bloom_io.h"
#include "src/core/wal.h"
#include "src/util/serialize.h"
#include "src/util/xxhash64.h"

#if defined(__unix__) || defined(__APPLE__)
#define BSR_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define BSR_HAVE_MMAP 0
#endif

namespace bloomsample {

namespace {
constexpr char kTreeTag[4] = {'B', 'S', 'T', 'R'};      // v1 stream
constexpr char kSnapshotTag[4] = {'B', 'S', 'T', '2'};  // v2 arena image
constexpr uint32_t kTreeVersion = 1;
constexpr uint32_t kSnapshotVersion = 2;
/// Written in NATIVE byte order (unlike the little-endian metadata), so a
/// reader whose endianness differs from the writer's sees a scrambled
/// value and rejects the file instead of mis-reading the raw slab.
constexpr uint32_t kEndianMark = 0x01020304u;
constexpr uint64_t kHeaderBytes = 144;
constexpr uint64_t kNodeEntryBytes = 48;
/// Snapshot flag bit 1: a 40-byte block of per-region XXH64 digests
/// (header, node table, block index, occupancy, slab — in that order)
/// follows the 144-byte core header, and every region offset shifts by
/// kChecksumBytes. Files without the bit (pre-checksum writers, or
/// SaveOptions::checksums = false) load unverified.
constexpr uint32_t kFlagChecksums = 0x2u;
constexpr uint64_t kChecksumBytes = 5 * sizeof(uint64_t);
/// Snapshot flag bit 2 (valid only together with kFlagChecksums): the
/// digest block grows to six entries — the sixth guards a per-chunk digest
/// table over the slab (one XXH64 per kSlabChunkBytes, last chunk short)
/// that sits between the digest block and the node table. The chunk table
/// is what the online scrubber and `bsr verify` walk: it localizes slab
/// corruption to one 64 KiB range instead of one all-or-nothing verdict.
constexpr uint32_t kFlagChunkChecksums = 0x4u;
constexpr uint64_t kChecksumBytesChunked = 6 * sizeof(uint64_t);
constexpr uint64_t kSlabChunkBytes = 64 * 1024;
/// Slab alignment in the file. A page multiple on every mainstream
/// platform, so the mmap path can map the slab at (or just below) this
/// offset, and comfortably beyond the arena's 64-byte line alignment.
constexpr uint64_t kSlabAlign = 4096;

/// Parsed v2 metadata — everything before the slab.
struct SnapshotMeta {
  TreeConfig config;
  bool pruned = false;
  NodeLayout layout = NodeLayout::kIdOrder;
  uint64_t node_count = 0;
  uint64_t words_per_block = 0;
  uint64_t stride_words = 0;
  uint64_t node_table_offset = 0;
  uint64_t block_index_offset = 0;
  uint64_t occupied_offset = 0;
  uint64_t metadata_end = 0;
  uint64_t slab_offset = 0;
  uint64_t slab_bytes = 0;
  uint64_t file_bytes = 0;
  /// Region digests (meaningful only when has_checksums): header core,
  /// node table, block index, occupancy, slab — plus, when
  /// has_chunk_checksums, a sixth over the chunk digest table.
  bool has_checksums = false;
  bool has_chunk_checksums = false;
  uint64_t checksum[6] = {0, 0, 0, 0, 0, 0};
  /// One XXH64 per kSlabChunkBytes slab chunk (empty unless flagged).
  std::vector<uint64_t> chunk_digests;

  struct NodeMeta {
    uint64_t lo = 0;
    uint64_t hi = 0;
    uint32_t level = 0;
    int64_t left = 0;
    int64_t right = 0;
    uint64_t set_bits = 0;
  };
  std::vector<NodeMeta> nodes;
  std::vector<uint32_t> block_of;  ///< id → slab block index (permutation)
  std::vector<uint64_t> occupied;
};

/// Streams the slab bytes once and produces BOTH the whole-slab digest and
/// the per-chunk digest table, splitting the stream at kSlabChunkBytes
/// boundaries regardless of how callers slice their Update calls (the
/// writer feeds block-sized pieces that straddle chunk edges).
class ChunkedSlabHasher {
 public:
  void Update(const void* data, size_t len) {
    whole_.Update(data, len);
    const char* p = static_cast<const char*>(data);
    while (len > 0) {
      const uint64_t room = kSlabChunkBytes - in_chunk_;
      const size_t take =
          len < room ? len : static_cast<size_t>(room);
      chunk_.Update(p, take);
      in_chunk_ += take;
      p += take;
      len -= take;
      if (in_chunk_ == kSlabChunkBytes) FlushChunk();
    }
  }

  uint64_t WholeDigest() const { return whole_.Digest(); }

  /// Digest table including the trailing short chunk, if any. Call once.
  std::vector<uint64_t> TakeChunkDigests() {
    if (in_chunk_ > 0) FlushChunk();
    return std::move(chunk_digests_);
  }

 private:
  void FlushChunk() {
    chunk_digests_.push_back(chunk_.Digest());
    chunk_.Reset();
    in_chunk_ = 0;
  }

  XxHash64 whole_;
  XxHash64 chunk_;
  uint64_t in_chunk_ = 0;
  std::vector<uint64_t> chunk_digests_;
};

/// Child-topology invariant shared by both formats: node 0 is the level-0
/// root, a child sits exactly one level deeper than its parent with a
/// nested range, and every other node is referenced as a child exactly
/// once. Together these force the child graph to be precisely a tree over
/// all nodes — no cycles (levels strictly increase along any walk), no
/// shared children, no orphans — so a corrupt pointer can neither hang a
/// traversal nor break the save path's layout permutation.
template <typename Nodes>
Status ValidateChildTopology(const Nodes& nodes) {
  if (nodes.empty()) return Status::OK();
  if (nodes[0].level != 0) {
    return Status::InvalidArgument("root node is not at level 0");
  }
  std::vector<bool> referenced(nodes.size(), false);
  for (size_t id = 0; id < nodes.size(); ++id) {
    const auto& node = nodes[id];
    for (int64_t child_id : {node.left, node.right}) {
      if (child_id == BloomSampleTree::kNoNode) continue;
      const auto& child = nodes[static_cast<size_t>(child_id)];
      if (child.level != node.level + 1 || child.lo < node.lo ||
          child.hi > node.hi) {
        return Status::InvalidArgument("corrupt child topology");
      }
      if (referenced[static_cast<size_t>(child_id)]) {
        return Status::InvalidArgument("node referenced by two parents");
      }
      referenced[static_cast<size_t>(child_id)] = true;
    }
  }
  for (size_t id = 1; id < nodes.size(); ++id) {
    if (!referenced[id]) {
      return Status::InvalidArgument("orphan node outside the tree");
    }
  }
  return Status::OK();
}

/// Bytes from `data_start` to the end of a seekable stream; 0 if the
/// stream cannot be sized. Restores the read position.
uint64_t StreamBytesFrom(std::istream* in, std::streampos data_start) {
  if (data_start == std::streampos(-1)) return 0;
  const std::streampos here = in->tellg();
  if (here == std::streampos(-1)) return 0;
  in->seekg(0, std::ios::end);
  const std::streampos end = in->tellg();
  in->seekg(here);
  if (end == std::streampos(-1) || end < data_start) return 0;
  return static_cast<uint64_t>(end - data_start);
}

}  // namespace

/// Befriended by BloomSampleTree; does the actual field surgery.
class TreeSerializer {
 public:
  // -------------------------------------------------------------------------
  // v1: legacy field-by-field stream format (unchanged bytes).
  // -------------------------------------------------------------------------

  static Status Write(const BloomSampleTree& tree, std::ostream* out) {
    BinaryWriter writer(out);
    writer.WriteTag(kTreeTag);
    writer.WriteU32(kTreeVersion);

    const TreeConfig& config = tree.config_;
    writer.WriteU64(config.namespace_size);
    writer.WriteU64(config.m);
    writer.WriteU64(config.k);
    writer.WriteU32(static_cast<uint32_t>(config.hash_kind));
    writer.WriteU64(config.seed);
    writer.WriteU32(config.depth);
    writer.WriteDouble(config.intersection_threshold);

    writer.WriteU32(tree.pruned_ ? 1 : 0);
    writer.WriteU64Vector(tree.occupied_);

    writer.WriteU64(tree.nodes_.size());
    for (const BloomSampleTree::Node& node : tree.nodes_) {
      writer.WriteU64(node.lo);
      writer.WriteU64(node.hi);
      writer.WriteU32(node.level);
      writer.WriteI64(node.left);
      writer.WriteI64(node.right);
      writer.WriteU64Array(node.filter.bits().word_data(),
                           node.filter.bits().word_count());
    }
    return writer.ok() ? Status::OK()
                       : Status::Internal("stream write failed");
  }

#define BSR_READ_OR_RETURN(field, expr)             \
  do {                                              \
    auto result = (expr);                           \
    if (!result.ok()) return result.status();       \
    field = result.value();                         \
  } while (0)

  /// v1 body, with the 4-byte tag already consumed by the dispatcher.
  /// `shared_family` as in MakeEmptyTree (null = create from the stream's
  /// config).
  static Result<BloomSampleTree> ReadV1Body(
      std::istream* in,
      std::shared_ptr<const HashFamily> shared_family = nullptr) {
    BinaryReader reader(in);
    Result<uint32_t> version = reader.ReadU32();
    if (!version.ok()) return version.status();
    if (version.value() != kTreeVersion) {
      return Status::Unsupported("unknown tree format version");
    }

    TreeConfig config;
    BSR_READ_OR_RETURN(config.namespace_size, reader.ReadU64());
    BSR_READ_OR_RETURN(config.m, reader.ReadU64());
    BSR_READ_OR_RETURN(config.k, reader.ReadU64());
    uint32_t kind_raw;
    BSR_READ_OR_RETURN(kind_raw, reader.ReadU32());
    if (kind_raw > static_cast<uint32_t>(HashFamilyKind::kMd5)) {
      return Status::InvalidArgument("unknown hash family kind in stream");
    }
    config.hash_kind = static_cast<HashFamilyKind>(kind_raw);
    BSR_READ_OR_RETURN(config.seed, reader.ReadU64());
    BSR_READ_OR_RETURN(config.depth, reader.ReadU32());
    BSR_READ_OR_RETURN(config.intersection_threshold, reader.ReadDouble());
    Status st = config.Validate();
    if (!st.ok()) return st;

    uint32_t pruned_flag;
    BSR_READ_OR_RETURN(pruned_flag, reader.ReadU32());
    if (pruned_flag > 1) {
      return Status::InvalidArgument("corrupt pruned flag");
    }
    std::vector<uint64_t> occupied;
    BSR_READ_OR_RETURN(occupied,
                       reader.ReadU64Vector(config.namespace_size));

    std::shared_ptr<const HashFamily> family;
    if (shared_family != nullptr) {
      if (shared_family->k() != config.k || shared_family->m() != config.m ||
          shared_family->seed() != config.seed ||
          shared_family->Name() != HashFamilyKindName(config.hash_kind)) {
        return Status::InvalidArgument(
            "shared hash family does not match the stream's config");
      }
      family = std::move(shared_family);
    } else {
      auto made = MakeHashFamily(config.hash_kind,
                                 static_cast<size_t>(config.k), config.m,
                                 config.seed, config.namespace_size);
      if (!made.ok()) return made.status();
      family = std::move(made).value();
    }

    BloomSampleTree tree(config, std::move(family), pruned_flag == 1);
    tree.occupied_ = std::move(occupied);

    uint64_t node_count;
    BSR_READ_OR_RETURN(node_count, reader.ReadU64());
    if (node_count > config.CompleteNodeCount()) {
      return Status::InvalidArgument("node count exceeds complete tree");
    }
    const uint64_t words_per_filter = (config.m + 63) / 64;
    tree.arena_.Reserve(static_cast<size_t>(node_count));
    tree.nodes_.reserve(static_cast<size_t>(node_count));
    for (uint64_t i = 0; i < node_count; ++i) {
      uint64_t lo;
      uint64_t hi;
      uint32_t level;
      int64_t left;
      int64_t right;
      BSR_READ_OR_RETURN(lo, reader.ReadU64());
      BSR_READ_OR_RETURN(hi, reader.ReadU64());
      BSR_READ_OR_RETURN(level, reader.ReadU32());
      BSR_READ_OR_RETURN(left, reader.ReadI64());
      BSR_READ_OR_RETURN(right, reader.ReadI64());
      if (level > config.depth || hi > config.namespace_size || lo > hi) {
        return Status::InvalidArgument("corrupt node geometry");
      }
      const auto valid_child = [node_count](int64_t child) {
        return child == BloomSampleTree::kNoNode ||
               (child >= 0 && static_cast<uint64_t>(child) < node_count);
      };
      if (!valid_child(left) || !valid_child(right)) {
        return Status::InvalidArgument("corrupt child pointer");
      }
      std::vector<uint64_t> words;
      BSR_READ_OR_RETURN(words, reader.ReadU64Vector(words_per_filter));
      if (words.size() != words_per_filter) {
        return Status::InvalidArgument("node payload has wrong word count");
      }

      BloomSampleTree::Node node(lo, hi, level, tree.family_, &tree.arena_);
      BitVector& bits = node.filter.mutable_bits();
      for (size_t w = 0; w < words.size(); ++w) {
        uint64_t word = words[w];
        while (word != 0) {
          const int bit = __builtin_ctzll(word);
          const size_t index = w * 64 + static_cast<size_t>(bit);
          if (index >= bits.size()) {
            return Status::InvalidArgument("node payload has stray bits");
          }
          bits.Set(index);
          word &= word - 1;
        }
      }
      node.left = left;
      node.right = right;
      node.set_bits = node.filter.SetBitCount();
      tree.nodes_.push_back(std::move(node));
    }
    st = ValidateChildTopology(tree.nodes_);
    if (!st.ok()) return st;
    return tree;
  }

  // -------------------------------------------------------------------------
  // v2: flat snapshot — header + node table + id→block index + occupancy,
  // then the raw filter slab at a page-aligned offset.
  // -------------------------------------------------------------------------

  static Status WriteV2(const BloomSampleTree& tree, std::ostream* out,
                        const SaveOptions& options) {
    const NodeLayout layout = options.layout;
    const TreeConfig& config = tree.config_;
    const uint64_t node_count = tree.nodes_.size();
    if (node_count > std::numeric_limits<uint32_t>::max()) {
      return Status::Unsupported("tree too large for the snapshot format");
    }
    const uint64_t words_per_block = (config.m + 63) / 64;
    const uint64_t stride_words = (words_per_block + 7) / 8 * 8;

    std::vector<uint32_t> block_of;
    if (layout == NodeLayout::kDescent) {
      block_of = tree.ComputeDescentOrder();
    } else {
      block_of.resize(static_cast<size_t>(node_count));
      for (size_t id = 0; id < block_of.size(); ++id) {
        block_of[id] = static_cast<uint32_t>(id);
      }
    }

    const uint64_t slab_bytes = node_count * stride_words * sizeof(uint64_t);
    const bool chunked = options.checksums && options.chunk_checksums;
    const uint64_t chunk_count =
        chunked ? (slab_bytes + kSlabChunkBytes - 1) / kSlabChunkBytes : 0;
    const uint64_t node_table_offset =
        kHeaderBytes +
        (options.checksums
             ? (chunked ? kChecksumBytesChunked : kChecksumBytes)
             : 0) +
        chunk_count * sizeof(uint64_t);
    const uint64_t block_index_offset =
        node_table_offset + node_count * kNodeEntryBytes;
    const uint64_t occupied_offset =
        block_index_offset + node_count * sizeof(uint32_t);
    const uint64_t metadata_end =
        occupied_offset + tree.occupied_.size() * sizeof(uint64_t);
    const uint64_t slab_offset =
        (metadata_end + kSlabAlign - 1) / kSlabAlign * kSlabAlign;
    const uint64_t file_bytes = slab_offset + slab_bytes;

    // Each metadata region is staged in memory so its digest can precede
    // it in the file; the slab — the one region too big to stage — is
    // hashed in a streaming pre-pass straight off the node filters.
    std::ostringstream header_buf;
    {
      BinaryWriter header(&header_buf);
      header.WriteTag(kSnapshotTag);
      header.WriteU32(kSnapshotVersion);
      // The byte-order mark is dumped natively on purpose (kEndianMark).
      header_buf.write(reinterpret_cast<const char*>(&kEndianMark),
                       sizeof(kEndianMark));
      const uint32_t flags = (tree.pruned_ ? 1u : 0u) |
                             (options.checksums ? kFlagChecksums : 0u) |
                             (chunked ? kFlagChunkChecksums : 0u) |
                             (static_cast<uint32_t>(layout) << 8);
      header.WriteU32(flags);
      header.WriteU32(static_cast<uint32_t>(config.hash_kind));
      header.WriteU32(config.depth);
      header.WriteU64(config.namespace_size);
      header.WriteU64(config.m);
      header.WriteU64(config.k);
      header.WriteU64(config.seed);
      header.WriteDouble(config.intersection_threshold);
      header.WriteU64(node_count);
      header.WriteU64(tree.occupied_.size());
      header.WriteU64(words_per_block);
      header.WriteU64(stride_words);
      header.WriteU64(node_table_offset);
      header.WriteU64(block_index_offset);
      header.WriteU64(occupied_offset);
      header.WriteU64(slab_offset);
      header.WriteU64(slab_bytes);
      header.WriteU64(file_bytes);
      if (!header.ok()) return Status::Internal("stream write failed");
    }

    std::ostringstream node_table_buf;
    {
      BinaryWriter nodes(&node_table_buf);
      for (const BloomSampleTree::Node& node : tree.nodes_) {
        nodes.WriteU64(node.lo);
        nodes.WriteU64(node.hi);
        nodes.WriteU32(node.level);
        nodes.WriteU32(0);  // reserved
        nodes.WriteI64(node.left);
        nodes.WriteI64(node.right);
        nodes.WriteU64(node.set_bits);
      }
      if (!nodes.ok()) return Status::Internal("stream write failed");
    }

    std::ostringstream block_index_buf;
    {
      BinaryWriter blocks(&block_index_buf);
      for (uint32_t block : block_of) blocks.WriteU32(block);
      if (!blocks.ok()) return Status::Internal("stream write failed");
    }

    std::ostringstream occupied_buf;
    {
      BinaryWriter occupied(&occupied_buf);
      for (uint64_t id : tree.occupied_) occupied.WriteU64(id);
      if (!occupied.ok()) return Status::Internal("stream write failed");
    }

    std::vector<uint32_t> id_at_block(static_cast<size_t>(node_count));
    for (size_t id = 0; id < block_of.size(); ++id) {
      id_at_block[block_of[id]] = static_cast<uint32_t>(id);
    }

    const std::string header_bytes = header_buf.str();
    const std::string node_table_bytes = node_table_buf.str();
    const std::string block_index_bytes = block_index_buf.str();
    const std::string occupied_bytes = occupied_buf.str();

    BinaryWriter writer(out);
    out->write(header_bytes.data(),
               static_cast<std::streamsize>(header_bytes.size()));
    if (options.checksums) {
      // Slab digest pre-pass: hash exactly the bytes the dump loop below
      // will emit — payload words then zeroed stride padding per block.
      // One pass yields both the whole-slab digest and the chunk table.
      ChunkedSlabHasher slab_hash;
      const std::vector<uint64_t> zeros(
          static_cast<size_t>(stride_words - words_per_block), 0);
      for (uint64_t b = 0; b < node_count; ++b) {
        const BloomSampleTree::Node& node =
            tree.nodes_[id_at_block[static_cast<size_t>(b)]];
        slab_hash.Update(node.filter.bits().word_data(),
                         static_cast<size_t>(words_per_block) *
                             sizeof(uint64_t));
        slab_hash.Update(zeros.data(), zeros.size() * sizeof(uint64_t));
      }
      std::string chunk_table_bytes;
      if (chunked) {
        std::ostringstream chunk_buf;
        BinaryWriter chunks(&chunk_buf);
        for (uint64_t digest : slab_hash.TakeChunkDigests()) {
          chunks.WriteU64(digest);
        }
        if (!chunks.ok()) return Status::Internal("stream write failed");
        chunk_table_bytes = chunk_buf.str();
        BSR_CHECK(chunk_table_bytes.size() ==
                      chunk_count * sizeof(uint64_t),
                  "chunk table size mismatch");
      }
      writer.WriteU64(XxHash64::Hash(header_bytes.data(),
                                     header_bytes.size()));
      writer.WriteU64(XxHash64::Hash(node_table_bytes.data(),
                                     node_table_bytes.size()));
      writer.WriteU64(XxHash64::Hash(block_index_bytes.data(),
                                     block_index_bytes.size()));
      writer.WriteU64(XxHash64::Hash(occupied_bytes.data(),
                                     occupied_bytes.size()));
      writer.WriteU64(slab_hash.WholeDigest());
      if (chunked) {
        // Sixth digest guards the chunk table itself, then the table.
        writer.WriteU64(XxHash64::Hash(chunk_table_bytes.data(),
                                       chunk_table_bytes.size()));
        out->write(chunk_table_bytes.data(),
                   static_cast<std::streamsize>(chunk_table_bytes.size()));
      }
    }
    out->write(node_table_bytes.data(),
               static_cast<std::streamsize>(node_table_bytes.size()));
    out->write(block_index_bytes.data(),
               static_cast<std::streamsize>(block_index_bytes.size()));
    out->write(occupied_bytes.data(),
               static_cast<std::streamsize>(occupied_bytes.size()));

    // Zero pad to the page-aligned slab, then bulk-dump the blocks in slab
    // order (the inverse permutation), each padded to the arena stride so
    // the file image byte-for-byte matches a freshly packed FilterArena.
    std::vector<char> pad(static_cast<size_t>(slab_offset - metadata_end), 0);
    out->write(pad.data(), static_cast<std::streamsize>(pad.size()));

    std::vector<uint64_t> block(static_cast<size_t>(stride_words), 0);
    for (uint64_t b = 0; b < node_count; ++b) {
      const BloomSampleTree::Node& node =
          tree.nodes_[id_at_block[static_cast<size_t>(b)]];
      std::memcpy(block.data(), node.filter.bits().word_data(),
                  static_cast<size_t>(words_per_block) * sizeof(uint64_t));
      out->write(reinterpret_cast<const char*>(block.data()),
                 static_cast<std::streamsize>(stride_words *
                                              sizeof(uint64_t)));
    }
    return writer.ok() && out->good()
               ? Status::OK()
               : Status::Internal("stream write failed");
  }

  /// Streams region [base + offset, base + offset + bytes) through XXH64
  /// and compares against the recorded digest. Leaves the read position
  /// wherever the last chunk ended — callers reposition explicitly.
  static Status VerifyRegion(std::istream* in, std::streampos base,
                             uint64_t offset, uint64_t bytes,
                             uint64_t expected, const char* what) {
    in->clear();
    in->seekg(base + static_cast<std::streamoff>(offset));
    if (!in->good()) {
      return Status::OutOfRange(std::string("snapshot truncated (") + what +
                                ")");
    }
    XxHash64 hash;
    char buf[65536];
    uint64_t remaining = bytes;
    while (remaining > 0) {
      const size_t chunk = remaining < sizeof(buf)
                               ? static_cast<size_t>(remaining)
                               : sizeof(buf);
      in->read(buf, static_cast<std::streamsize>(chunk));
      if (in->gcount() != static_cast<std::streamsize>(chunk)) {
        return Status::OutOfRange(std::string("snapshot truncated (") + what +
                                  ")");
      }
      hash.Update(buf, chunk);
      remaining -= chunk;
    }
    if (hash.Digest() != expected) {
      return Status::InvalidArgument(std::string("snapshot ") + what +
                                     " checksum mismatch");
    }
    return Status::OK();
  }

  /// Parses and validates everything before the slab; the 4-byte tag is
  /// already consumed. `stream_bytes` is the number of bytes the stream
  /// holds from the tag onward (0 = unknown): when known, the declared
  /// file size is cross-checked BEFORE any size-proportional allocation,
  /// so a corrupt header cannot trigger a huge allocation or a partial
  /// parse of garbage. `base` is the stream position of the tag — region
  /// checksums (when present) are verified against it before the regions
  /// they guard are parsed.
  static Result<SnapshotMeta> ReadV2Meta(std::istream* in,
                                         uint64_t stream_bytes,
                                         std::streampos base) {
    BinaryReader reader(in);
    SnapshotMeta meta;

    Result<uint32_t> version = reader.ReadU32();
    if (!version.ok()) return version.status();
    if (version.value() != kSnapshotVersion) {
      return Status::Unsupported("unknown snapshot format version");
    }
    uint32_t endian_mark;
    in->read(reinterpret_cast<char*>(&endian_mark), sizeof(endian_mark));
    if (!in->good()) return Status::OutOfRange("truncated snapshot header");
    if (endian_mark != kEndianMark) {
      return Status::Unsupported(
          "snapshot byte order does not match this host (use the v1 stream "
          "format for cross-endian transport)");
    }

    uint32_t flags;
    BSR_READ_OR_RETURN(flags, reader.ReadU32());
    if ((flags &
         ~(0x1u | kFlagChecksums | kFlagChunkChecksums | 0xff00u)) != 0) {
      return Status::InvalidArgument("unknown snapshot flags");
    }
    meta.pruned = (flags & 1u) != 0;
    meta.has_checksums = (flags & kFlagChecksums) != 0;
    meta.has_chunk_checksums = (flags & kFlagChunkChecksums) != 0;
    if (meta.has_chunk_checksums && !meta.has_checksums) {
      // The chunk table rides inside the checksum block; alone it is
      // unanchored — no writer emits this combination.
      return Status::InvalidArgument("snapshot chunk checksums without "
                                     "region checksums");
    }
    const uint32_t layout_raw = (flags >> 8) & 0xffu;
    if (layout_raw > static_cast<uint32_t>(NodeLayout::kDescent)) {
      return Status::InvalidArgument("unknown snapshot node layout");
    }
    meta.layout = static_cast<NodeLayout>(layout_raw);

    uint32_t kind_raw;
    BSR_READ_OR_RETURN(kind_raw, reader.ReadU32());
    if (kind_raw > static_cast<uint32_t>(HashFamilyKind::kMd5)) {
      return Status::InvalidArgument("unknown hash family kind in snapshot");
    }
    meta.config.hash_kind = static_cast<HashFamilyKind>(kind_raw);
    BSR_READ_OR_RETURN(meta.config.depth, reader.ReadU32());
    BSR_READ_OR_RETURN(meta.config.namespace_size, reader.ReadU64());
    BSR_READ_OR_RETURN(meta.config.m, reader.ReadU64());
    BSR_READ_OR_RETURN(meta.config.k, reader.ReadU64());
    BSR_READ_OR_RETURN(meta.config.seed, reader.ReadU64());
    BSR_READ_OR_RETURN(meta.config.intersection_threshold,
                       reader.ReadDouble());
    const Status st = meta.config.Validate();
    if (!st.ok()) return st;

    uint64_t occupied_count;
    BSR_READ_OR_RETURN(meta.node_count, reader.ReadU64());
    BSR_READ_OR_RETURN(occupied_count, reader.ReadU64());
    BSR_READ_OR_RETURN(meta.words_per_block, reader.ReadU64());
    BSR_READ_OR_RETURN(meta.stride_words, reader.ReadU64());
    BSR_READ_OR_RETURN(meta.node_table_offset, reader.ReadU64());
    BSR_READ_OR_RETURN(meta.block_index_offset, reader.ReadU64());
    BSR_READ_OR_RETURN(meta.occupied_offset, reader.ReadU64());
    BSR_READ_OR_RETURN(meta.slab_offset, reader.ReadU64());
    BSR_READ_OR_RETURN(meta.slab_bytes, reader.ReadU64());
    BSR_READ_OR_RETURN(meta.file_bytes, reader.ReadU64());
    if (meta.has_checksums) {
      const int digest_count = meta.has_chunk_checksums ? 6 : 5;
      for (int i = 0; i < digest_count; ++i) {
        BSR_READ_OR_RETURN(meta.checksum[i], reader.ReadU64());
      }
    }

    // Geometry validation. Every derived quantity is recomputed with
    // overflow checks and compared against the header's claim — the file
    // offers no layout freedom, so any mismatch is corruption.
    if (meta.node_count > meta.config.CompleteNodeCount() ||
        meta.node_count > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument("snapshot node count out of range");
    }
    if (meta.words_per_block != (meta.config.m + 63) / 64 ||
        meta.stride_words != (meta.words_per_block + 7) / 8 * 8) {
      return Status::InvalidArgument("snapshot block geometry mismatch");
    }
    if (occupied_count > meta.config.namespace_size ||
        (!meta.pruned && occupied_count != 0)) {
      return Status::InvalidArgument("snapshot occupancy out of range");
    }
    // Recompute the slab size first: the chunk table's length — and with
    // it every metadata offset — derives from it, and it must come from
    // validated geometry (node_count × stride), never the header's claim.
    // stride_words matched (wpb+7)/8*8 above, so stride_words * 8 cannot
    // itself overflow (wpb ≤ 2^58); only the per-node product can.
    uint64_t slab_bytes;
    if (__builtin_mul_overflow(meta.node_count,
                               meta.stride_words * sizeof(uint64_t),
                               &slab_bytes)) {
      return Status::InvalidArgument("snapshot slab size overflows");
    }
    if (meta.slab_bytes != slab_bytes) {
      return Status::InvalidArgument("snapshot slab size mismatch");
    }
    const uint64_t chunk_count =
        meta.has_chunk_checksums
            ? (slab_bytes + kSlabChunkBytes - 1) / kSlabChunkBytes
            : 0;
    uint64_t expect =
        kHeaderBytes +
        (meta.has_checksums
             ? (meta.has_chunk_checksums ? kChecksumBytesChunked
                                         : kChecksumBytes)
             : 0) +
        chunk_count * sizeof(uint64_t);
    if (meta.node_table_offset != expect) {
      return Status::InvalidArgument("snapshot node table offset mismatch");
    }
    expect += meta.node_count * kNodeEntryBytes;  // count < 2^32: no overflow
    if (meta.block_index_offset != expect) {
      return Status::InvalidArgument("snapshot block index offset mismatch");
    }
    expect += meta.node_count * sizeof(uint32_t);
    if (meta.occupied_offset != expect) {
      return Status::InvalidArgument("snapshot occupancy offset mismatch");
    }
    uint64_t occupied_bytes;
    if (__builtin_mul_overflow(occupied_count, sizeof(uint64_t),
                               &occupied_bytes) ||
        __builtin_add_overflow(expect, occupied_bytes, &meta.metadata_end)) {
      return Status::InvalidArgument("snapshot metadata size overflows");
    }
    uint64_t slab_offset;
    if (__builtin_add_overflow(meta.metadata_end, kSlabAlign - 1,
                               &slab_offset)) {
      return Status::InvalidArgument("snapshot slab offset overflows");
    }
    slab_offset = slab_offset / kSlabAlign * kSlabAlign;
    if (meta.slab_offset != slab_offset) {
      return Status::InvalidArgument("snapshot slab offset mismatch");
    }
    uint64_t file_bytes;
    if (__builtin_add_overflow(meta.slab_offset, meta.slab_bytes,
                               &file_bytes)) {
      return Status::InvalidArgument("snapshot file size overflows");
    }
    if (meta.file_bytes != file_bytes) {
      return Status::InvalidArgument("snapshot file size mismatch");
    }
    if (stream_bytes != 0 && stream_bytes != meta.file_bytes) {
      return Status::OutOfRange("snapshot truncated or padded on disk");
    }

    // Chunk digest table — read only AFTER the full geometry validation
    // above, so chunk_count is bounded by the file's real size and a
    // forged header cannot demand a huge allocation. The stream is still
    // positioned right after the digest block (validation is pure
    // computation), which is exactly where the table lives.
    if (meta.has_chunk_checksums) {
      meta.chunk_digests.reserve(static_cast<size_t>(chunk_count));
      for (uint64_t i = 0; i < chunk_count; ++i) {
        uint64_t digest;
        BSR_READ_OR_RETURN(digest, reader.ReadU64());
        meta.chunk_digests.push_back(digest);
      }
    }

    // Verify the metadata-region digests BEFORE parsing the regions they
    // guard, so corruption surfaces as a checksum mismatch rather than as
    // whichever downstream invariant happens to trip (or, worse, as a
    // silently skewed estimate). The slab digest is checked later, by the
    // materialization path that actually touches slab bytes.
    if (meta.has_checksums) {
      Status vst = VerifyRegion(in, base, 0, kHeaderBytes, meta.checksum[0],
                                "header");
      if (vst.ok() && meta.has_chunk_checksums) {
        vst = VerifyRegion(in, base, kHeaderBytes + kChecksumBytesChunked,
                           chunk_count * sizeof(uint64_t), meta.checksum[5],
                           "chunk table");
      }
      if (vst.ok()) {
        vst = VerifyRegion(in, base, meta.node_table_offset,
                           meta.block_index_offset - meta.node_table_offset,
                           meta.checksum[1], "node table");
      }
      if (vst.ok()) {
        vst = VerifyRegion(in, base, meta.block_index_offset,
                           meta.occupied_offset - meta.block_index_offset,
                           meta.checksum[2], "block index");
      }
      if (vst.ok()) {
        vst = VerifyRegion(in, base, meta.occupied_offset,
                           meta.metadata_end - meta.occupied_offset,
                           meta.checksum[3], "occupancy");
      }
      if (!vst.ok()) return vst;
      in->clear();
      in->seekg(base + static_cast<std::streamoff>(meta.node_table_offset));
      if (!in->good()) {
        return Status::OutOfRange("truncated snapshot header");
      }
    }

    // Node table.
    meta.nodes.reserve(static_cast<size_t>(meta.node_count));
    for (uint64_t i = 0; i < meta.node_count; ++i) {
      SnapshotMeta::NodeMeta node;
      uint32_t reserved;
      BSR_READ_OR_RETURN(node.lo, reader.ReadU64());
      BSR_READ_OR_RETURN(node.hi, reader.ReadU64());
      BSR_READ_OR_RETURN(node.level, reader.ReadU32());
      BSR_READ_OR_RETURN(reserved, reader.ReadU32());
      BSR_READ_OR_RETURN(node.left, reader.ReadI64());
      BSR_READ_OR_RETURN(node.right, reader.ReadI64());
      BSR_READ_OR_RETURN(node.set_bits, reader.ReadU64());
      if (reserved != 0) {
        return Status::InvalidArgument("snapshot node entry reserved bits");
      }
      if (node.level > meta.config.depth ||
          node.hi > meta.config.namespace_size || node.lo > node.hi) {
        return Status::InvalidArgument("corrupt node geometry");
      }
      const auto valid_child = [&meta](int64_t child) {
        return child == BloomSampleTree::kNoNode ||
               (child >= 0 &&
                static_cast<uint64_t>(child) < meta.node_count);
      };
      if (!valid_child(node.left) || !valid_child(node.right)) {
        return Status::InvalidArgument("corrupt child pointer");
      }
      if (node.set_bits > meta.config.m) {
        return Status::InvalidArgument("corrupt node popcount");
      }
      meta.nodes.push_back(node);
    }
    const Status topology = ValidateChildTopology(meta.nodes);
    if (!topology.ok()) return topology;

    // id→block index: must be a permutation of [0, node_count).
    meta.block_of.reserve(static_cast<size_t>(meta.node_count));
    std::vector<bool> seen(static_cast<size_t>(meta.node_count), false);
    for (uint64_t i = 0; i < meta.node_count; ++i) {
      uint32_t block;
      BSR_READ_OR_RETURN(block, reader.ReadU32());
      if (block >= meta.node_count || seen[block]) {
        return Status::InvalidArgument("snapshot block index is not a "
                                       "permutation");
      }
      seen[block] = true;
      meta.block_of.push_back(block);
    }

    // Occupancy (pruned trees): sorted, unique, in range.
    meta.occupied.reserve(static_cast<size_t>(occupied_count));
    for (uint64_t i = 0; i < occupied_count; ++i) {
      uint64_t id;
      BSR_READ_OR_RETURN(id, reader.ReadU64());
      if (id >= meta.config.namespace_size ||
          (!meta.occupied.empty() && id <= meta.occupied.back())) {
        return Status::InvalidArgument("corrupt occupancy list");
      }
      meta.occupied.push_back(id);
    }
    return meta;
  }
#undef BSR_READ_OR_RETURN

  /// Builds the tree around an arena whose first meta.node_count blocks
  /// already hold the slab (heap-read or mmap'ed): wires each node's
  /// filter span to block block_of[id] and seeds the persisted popcounts,
  /// touching no payload words. `checked_spans` selects SpanOf (heap
  /// payloads, invariant restored by the loader) vs SpanOfUnchecked
  /// (mmap'ed payloads, untrusted bytes must not trip debug asserts).
  static Result<BloomSampleTree> AssembleNodes(SnapshotMeta&& meta,
                                               BloomSampleTree&& tree,
                                               uint64_t* slab_base,
                                               bool checked_spans) {
    tree.occupied_ = std::move(meta.occupied);
    tree.node_layout_ = meta.layout;
    tree.nodes_.reserve(static_cast<size_t>(meta.node_count));
    for (uint64_t id = 0; id < meta.node_count; ++id) {
      const SnapshotMeta::NodeMeta& nm = meta.nodes[static_cast<size_t>(id)];
      uint64_t* block =
          slab_base + static_cast<size_t>(meta.block_of[id]) *
                          static_cast<size_t>(meta.stride_words);
      BitVector bits =
          checked_spans
              ? BitVector::SpanOf(block, static_cast<size_t>(meta.config.m))
              : BitVector::SpanOfUnchecked(
                    block, static_cast<size_t>(meta.config.m));
      BloomSampleTree::Node node(nm.lo, nm.hi, nm.level, tree.family_,
                                 std::move(bits));
      node.left = nm.left;
      node.right = nm.right;
      node.set_bits = nm.set_bits;
      node.filter.SeedSetBitCount(static_cast<size_t>(nm.set_bits));
      tree.nodes_.push_back(std::move(node));
    }
    return std::move(tree);
  }

  /// `shared_family` (optional) becomes the loaded tree's family after a
  /// compatibility check against the file's config — the forest loader's
  /// way of making every shard share one family instance (compatibility
  /// between filters is pointer identity on the family).
  static Result<BloomSampleTree> MakeEmptyTree(
      const SnapshotMeta& meta,
      std::shared_ptr<const HashFamily> shared_family) {
    if (shared_family != nullptr) {
      if (shared_family->k() != meta.config.k ||
          shared_family->m() != meta.config.m ||
          shared_family->seed() != meta.config.seed ||
          shared_family->Name() != HashFamilyKindName(meta.config.hash_kind)) {
        return Status::InvalidArgument(
            "shared hash family does not match the snapshot's config");
      }
      return BloomSampleTree(meta.config, std::move(shared_family),
                             meta.pruned);
    }
    auto family = MakeHashFamily(meta.config.hash_kind,
                                 static_cast<size_t>(meta.config.k),
                                 meta.config.m, meta.config.seed,
                                 meta.config.namespace_size);
    if (!family.ok()) return family.status();
    return BloomSampleTree(meta.config, family.value(), meta.pruned);
  }

  /// Heap materialization: the stream is positioned at metadata_end; skip
  /// the pad, bulk-read the slab into a fresh arena, restore the
  /// trailing-bit/padding-word invariants, and wire up the nodes.
  static Result<BloomSampleTree> ReadV2Heap(
      SnapshotMeta&& meta, std::istream* in,
      std::shared_ptr<const HashFamily> shared_family) {
    auto tree = MakeEmptyTree(meta, std::move(shared_family));
    if (!tree.ok()) return tree;

    const uint64_t pad = meta.slab_offset - meta.metadata_end;
    in->ignore(static_cast<std::streamsize>(pad));
    if (meta.node_count == 0) {
      return AssembleNodes(std::move(meta), std::move(tree).value(), nullptr,
                           /*checked_spans=*/true);
    }
    if (!in->good()) return Status::OutOfRange("snapshot truncated (pad)");

    tree.value().arena_.Reserve(static_cast<size_t>(meta.node_count));
    uint64_t* base = tree.value().arena_.AllocateBlocks(
        static_cast<size_t>(meta.node_count));
    in->read(reinterpret_cast<char*>(base),
             static_cast<std::streamsize>(meta.slab_bytes));
    if (in->gcount() != static_cast<std::streamsize>(meta.slab_bytes)) {
      return Status::OutOfRange("snapshot truncated (slab)");
    }
    // Verify the slab digest over the raw file bytes, before the invariant
    // restoration below rewrites any of them.
    if (meta.has_checksums &&
        XxHash64::Hash(base, static_cast<size_t>(meta.slab_bytes)) !=
            meta.checksum[4]) {
      return Status::InvalidArgument("snapshot filter slab checksum mismatch");
    }
    // Restore the invariants BitVector relies on: zero the padding words
    // of every block and the trailing bits of the last payload word, so a
    // corrupt slab can skew results but never break popcount/equality
    // contracts. (The mmap path leaves bytes untouched by design; its
    // spans are created unchecked.)
    const size_t wpb = static_cast<size_t>(meta.words_per_block);
    const size_t stride = static_cast<size_t>(meta.stride_words);
    const size_t tail = static_cast<size_t>(meta.config.m % 64);
    for (uint64_t b = 0; b < meta.node_count; ++b) {
      uint64_t* block = base + static_cast<size_t>(b) * stride;
      if (tail != 0) block[wpb - 1] &= (~0ULL >> (64 - tail));
      for (size_t w = wpb; w < stride; ++w) block[w] = 0;
    }
    return AssembleNodes(std::move(meta), std::move(tree).value(), base,
                         /*checked_spans=*/true);
  }

#if BSR_HAVE_MMAP
  /// Zero-copy materialization: map the slab MAP_PRIVATE (so dynamic
  /// Insert copy-on-writes pages instead of touching the file) and hand
  /// the mapping to the arena; node spans point straight into it. Open
  /// cost is O(metadata) — payload pages fault in on first intersection.
  static Result<BloomSampleTree> ReadV2Mmap(
      SnapshotMeta&& meta, const std::string& path, bool prewarm,
      TreeLoadInfo* info, std::shared_ptr<const HashFamily> shared_family,
      FileSystem* fs) {
    auto tree = MakeEmptyTree(meta, std::move(shared_family));
    if (!tree.ok()) return tree;
    if (meta.node_count == 0) {
      return AssembleNodes(std::move(meta), std::move(tree).value(), nullptr,
                           /*checked_spans=*/true);
    }

    // SIGBUS safety, part 1: pread the LAST slab byte through the
    // FileSystem interface. Touching a mapped page past the file's current
    // EOF raises SIGBUS — a pread of the same byte just comes back short.
    // A short probe means the file shrank between the metadata parse and
    // now (truncated by another process, or a fault test saying it was):
    // quarantine instead of handing out a mapping that detonates on first
    // intersection. Going through `fs` makes the probe injectable.
    {
      auto probe = fs->NewRandomAccessFile(path);
      if (!probe.ok()) return probe.status();
      char last;
      size_t got = 0;
      const Status pst =
          probe.value()->Read(meta.file_bytes - 1, 1, &last, &got);
      if (!pst.ok()) return pst;
      if (got != 1) {
        return Status::Quarantined(
            "snapshot '" + path + "' shrank beneath its declared size; "
            "refusing to map (a page fault past EOF would raise SIGBUS)");
      }
    }

    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::NotFound("cannot open '" + path + "' for mapping");
    }
    // SIGBUS safety, part 2: revalidate the length of the descriptor being
    // mapped (the probe raced; this fd is what the mapping binds to).
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::Internal(std::string("fstat failed: ") +
                              std::strerror(errno));
    }
    if (st.st_size < static_cast<off_t>(meta.file_bytes)) {
      ::close(fd);
      return Status::Quarantined(
          "snapshot '" + path + "' shrank beneath its declared size; "
          "refusing to map (a page fault past EOF would raise SIGBUS)");
    }
    if (st.st_size != static_cast<off_t>(meta.file_bytes)) {
      ::close(fd);
      return Status::OutOfRange("snapshot truncated or padded on disk");
    }

    // The slab offset is kSlabAlign-ed; map from the enclosing page
    // boundary in case the system page size exceeds kSlabAlign.
    const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
    const uint64_t map_offset = meta.slab_offset / page * page;
    const size_t delta = static_cast<size_t>(meta.slab_offset - map_offset);
    const size_t map_len = static_cast<size_t>(meta.slab_bytes) + delta;
    int mmap_flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
    if (prewarm) mmap_flags |= MAP_POPULATE;
#else
    (void)prewarm;
#endif
    void* map = ::mmap(nullptr, map_len, PROT_READ | PROT_WRITE, mmap_flags,
                       fd, static_cast<off_t>(map_offset));
    ::close(fd);  // the mapping keeps its own reference
    if (map == MAP_FAILED) {
      return Status::Internal(std::string("mmap failed: ") +
                              std::strerror(errno));
    }
    // Advisory hints: kick off readahead for the descent-ordered slab and
    // ask for transparent huge pages (a 1.25 MB filter block spans 320
    // 4 KiB pages; THP cuts the TLB cost of a cold dense intersection).
    ::madvise(map, map_len, MADV_WILLNEED);
#ifdef MADV_HUGEPAGE
    ::madvise(map, map_len, MADV_HUGEPAGE);
#endif
    uint64_t* base =
        reinterpret_cast<uint64_t*>(static_cast<char*>(map) + delta);
    // Slab verification faults in every page, so it only runs when the
    // caller asked for a prewarmed mapping anyway; a lazy open keeps its
    // O(metadata) cost and trusts the (always-verified) metadata regions.
    if (meta.has_checksums && prewarm &&
        XxHash64::Hash(base, static_cast<size_t>(meta.slab_bytes)) !=
            meta.checksum[4]) {
      ::munmap(map, map_len);
      return Status::InvalidArgument("snapshot filter slab checksum mismatch");
    }
    tree.value().arena_.AdoptExternal(
        base, static_cast<size_t>(meta.node_count),
        [map, map_len](uint64_t*) { ::munmap(map, map_len); });
    if (info != nullptr) info->mapped_bytes = meta.slab_bytes;
    return AssembleNodes(std::move(meta), std::move(tree).value(), base,
                         /*checked_spans=*/false);
  }
#endif  // BSR_HAVE_MMAP
};

Status SerializeTree(const BloomSampleTree& tree, std::ostream* out) {
  if (out == nullptr) return Status::InvalidArgument("null output stream");
  return TreeSerializer::Write(tree, out);
}

Result<BloomSampleTree> DeserializeTree(std::istream* in) {
  if (in == nullptr) return Status::InvalidArgument("null input stream");
  const std::streampos start = in->tellg();
  char tag[4];
  in->read(tag, 4);
  if (!in->good()) return Status::OutOfRange("truncated stream (tag)");
  if (std::memcmp(tag, kTreeTag, 4) == 0) {
    return TreeSerializer::ReadV1Body(in);
  }
  if (std::memcmp(tag, kSnapshotTag, 4) == 0) {
    const uint64_t stream_bytes = StreamBytesFrom(in, start);
    if (stream_bytes == 0) {
      // Without a sizeable stream the header's slab size cannot be
      // cross-checked before the slab allocation it dictates — a forged
      // header could demand petabytes. v1 streams stay fine (their reads
      // are bounded per node); v2 consumers should load from a file.
      return Status::Unsupported(
          "v2 snapshots require a seekable stream (use LoadTreeFromFile)");
    }
    auto meta = TreeSerializer::ReadV2Meta(in, stream_bytes, start);
    if (!meta.ok()) return meta.status();
    return TreeSerializer::ReadV2Heap(std::move(meta).value(), in, nullptr);
  }
  return Status::InvalidArgument("bad magic tag; expected 'BSTR' or 'BST2'");
}

Status SaveTreeToFile(const BloomSampleTree& tree, const std::string& path) {
  return SaveTreeToFile(tree, path, SaveOptions());
}

Status SaveTreeToFile(const BloomSampleTree& tree, const std::string& path,
                      const SaveOptions& options) {
  if (options.version != kTreeVersion && options.version != kSnapshotVersion) {
    return Status::InvalidArgument("unknown snapshot version requested");
  }
  FileSystem* fs = options.fs != nullptr ? options.fs : FileSystem::Default();
  const std::string tmp = path + ".tmp";
  auto file = fs->NewWritableFile(tmp, WriteMode::kTruncate);
  if (!file.ok()) return file.status();
  Status st;
  {
    WritableFileStreamBuf buf(file.value().get());
    std::ostream out(&buf);
    st = options.version == kTreeVersion
             ? TreeSerializer::Write(tree, &out)
             : TreeSerializer::WriteV2(tree, &out, options);
    if (st.ok() && !buf.FlushBuffered()) st = buf.error();
    // An injected/real write error surfaces through the streambuf with
    // more detail than the serializer's generic stream-state check.
    if (buf.bad()) st = buf.error();
  }
  if (st.ok()) st = file.value()->Sync();
  const Status closed = file.value()->Close();
  if (st.ok()) st = closed;
  if (st.ok()) st = fs->Rename(tmp, path);
  if (!st.ok()) {
    (void)fs->RemoveFile(tmp);  // best effort; `path` is untouched
    return st;
  }
  return fs->SyncDirOf(path);
}

LoadOptions LoadOptions::FromEnv() {
  LoadOptions options;
  if (const char* mode = std::getenv("BSR_LOAD")) {
    if (std::strcmp(mode, "heap") == 0) options.mode = LoadMode::kHeap;
    if (std::strcmp(mode, "mmap") == 0) options.mode = LoadMode::kMmap;
  }
  if (const char* prewarm = std::getenv("BSR_LOAD_PREWARM")) {
    options.prewarm = prewarm[0] == '1';
  }
  return options;
}

const char* TreeLoadMethodName(TreeLoadInfo::Method method) {
  switch (method) {
    case TreeLoadInfo::Method::kStreamV1: return "stream-v1";
    case TreeLoadInfo::Method::kHeapV2: return "heap-v2";
    case TreeLoadInfo::Method::kMmapV2: return "mmap-v2";
  }
  return "unknown";
}

Result<BloomSampleTree> LoadTreeFromFile(const std::string& path) {
  return LoadTreeFromFile(path, LoadOptions::FromEnv());
}

namespace {

/// Replays `path`'s sidecar log into the freshly opened tree (the last
/// step of every load path). Safe across load modes: mmap opens are
/// MAP_PRIVATE, so the replayed Inserts copy-on-write in memory and never
/// touch the snapshot file.
Result<BloomSampleTree> FinishLoad(Result<BloomSampleTree> tree,
                                   const std::string& path,
                                   const LoadOptions& options,
                                   TreeLoadInfo* info) {
  if (!tree.ok() || !options.replay_wal) return tree;
  BloomSampleTree& t = tree.value();
  // kInsert applies directly; kRemove needs the counting-bloom leaf
  // backend, which snapshots do not persist — auto-enable it on the first
  // remove record (exact: rebuilt from the occupied set at that point).
  auto apply = [&t](const WalRecord& rec) -> Status {
    if (rec.op == WalOp::kRemove) {
      if (!t.counting_leaves()) {
        const Status enabled = t.EnableCountingLeaves();
        if (!enabled.ok()) return enabled;
      }
      return t.Remove(rec.id);
    }
    return t.Insert(rec.id);
  };
  // A background compaction rotates the live log to `<path>.wal.old` and
  // deletes it only after the image that folded it is durable. Replaying
  // old-then-current re-walks the full mutation history in order; every
  // op is idempotent and last-op-per-id-wins, so an image built from any
  // prefix of that history recovers to the identical final tree.
  const uint64_t fp = WalConfigFingerprint(t.config());
  auto old_stats = ReplayWal(OldWalPathFor(path), fp, apply, options.fs);
  if (!old_stats.ok()) return old_stats.status();
  auto stats = ReplayWal(WalPathFor(path), fp, apply, options.fs);
  if (!stats.ok()) return stats.status();
  if (info != nullptr) {
    info->wal_present = stats.value().present || old_stats.value().present;
    // Seeds the writer's next seq, so it counts the CURRENT log only (the
    // rotated log's sequence space is frozen).
    info->wal_records_replayed = stats.value().records_replayed;
    info->wal_old_records_replayed = old_stats.value().records_replayed;
    info->wal_recovered_corruption = stats.value().recovered_corruption ||
                                     old_stats.value().recovered_corruption;
  }
  return tree;
}

}  // namespace

Result<BloomSampleTree> LoadTreeFromFile(const std::string& path,
                                         const LoadOptions& options,
                                         TreeLoadInfo* info) {
  // A quarantine marker means a scrub found corruption and repair failed:
  // fail fast with the dedicated code (forest siblings keep serving; the
  // CLI maps this to its own exit code) instead of re-tripping whichever
  // checksum is broken — or worse, serving a lazily-mmap'ed bad slab.
  if (IsQuarantined(path, options.fs)) {
    return Status::Quarantined("snapshot '" + path + "' is quarantined (" +
                               QuarantinePathFor(path) +
                               " exists); restore the file and clear the "
                               "marker to serve it again");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("cannot open '" + path + "' for reading");
  }
  char tag[4];
  in.read(tag, 4);
  if (!in.good()) return Status::OutOfRange("truncated stream (tag)");

  if (std::memcmp(tag, kTreeTag, 4) == 0) {
    if (info != nullptr) {
      *info = TreeLoadInfo{TreeLoadInfo::Method::kStreamV1, kTreeVersion,
                           NodeLayout::kIdOrder, 0};
    }
    return FinishLoad(TreeSerializer::ReadV1Body(&in, options.family), path,
                      options, info);
  }
  if (std::memcmp(tag, kSnapshotTag, 4) != 0) {
    return Status::InvalidArgument("bad magic tag; expected 'BSTR' or 'BST2'");
  }

  const uint64_t stream_bytes = StreamBytesFrom(&in, std::streampos(0));
  if (stream_bytes == 0) {
    // Unsizeable input (a FIFO, say): the slab-size cross-check cannot
    // run before the allocation it guards — refuse rather than trust.
    return Status::Unsupported("v2 snapshots require a seekable file");
  }
  auto meta = TreeSerializer::ReadV2Meta(&in, stream_bytes, std::streampos(0));
  if (!meta.ok()) return meta.status();

  const bool want_mmap = options.mode == LoadMode::kMmap ||
                         (options.mode == LoadMode::kAuto && BSR_HAVE_MMAP);
  if (info != nullptr) {
    *info = TreeLoadInfo{want_mmap ? TreeLoadInfo::Method::kMmapV2
                                   : TreeLoadInfo::Method::kHeapV2,
                         kSnapshotVersion, meta.value().layout, 0};
  }
#if BSR_HAVE_MMAP
  if (want_mmap) {
    FileSystem* fs =
        options.fs != nullptr ? options.fs : FileSystem::Default();
    return FinishLoad(
        TreeSerializer::ReadV2Mmap(std::move(meta).value(), path,
                                   options.prewarm, info, options.family,
                                   fs),
        path, options, info);
  }
#else
  if (options.mode == LoadMode::kMmap) {
    return Status::Unsupported("mmap loading is not available on this "
                               "platform; use LoadMode::kHeap");
  }
#endif
  return FinishLoad(TreeSerializer::ReadV2Heap(std::move(meta).value(), &in,
                                               options.family),
                    path, options, info);
}

namespace {

/// Opens `path`, dispatches on the tag, and runs the full metadata parse
/// (digest verification included). kUnsupported for v1 streams.
Result<SnapshotMeta> ParseSnapshotMetaFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("cannot open '" + path + "' for reading");
  }
  char tag[4];
  in.read(tag, 4);
  if (!in.good()) return Status::OutOfRange("truncated stream (tag)");
  if (std::memcmp(tag, kTreeTag, 4) == 0) {
    return Status::Unsupported("v1 stream snapshots carry no chunk "
                               "geometry");
  }
  if (std::memcmp(tag, kSnapshotTag, 4) != 0) {
    return Status::InvalidArgument("bad magic tag; expected 'BSTR' or "
                                   "'BST2'");
  }
  const uint64_t stream_bytes = StreamBytesFrom(&in, std::streampos(0));
  if (stream_bytes == 0) {
    return Status::Unsupported("v2 snapshots require a seekable file");
  }
  return TreeSerializer::ReadV2Meta(&in, stream_bytes, std::streampos(0));
}

SnapshotChunkInfo ChunkInfoFromMeta(SnapshotMeta&& meta) {
  SnapshotChunkInfo info;
  info.file_bytes = meta.file_bytes;
  info.slab_offset = meta.slab_offset;
  info.slab_bytes = meta.slab_bytes;
  info.chunk_bytes = kSlabChunkBytes;
  info.has_checksums = meta.has_checksums;
  info.has_chunk_checksums = meta.has_chunk_checksums;
  info.slab_digest = meta.checksum[4];
  info.chunk_digests = std::move(meta.chunk_digests);
  return info;
}

}  // namespace

Result<SnapshotChunkInfo> ReadSnapshotChunkInfo(const std::string& path,
                                                FileSystem* fs) {
  (void)fs;  // metadata parse reads the real file; fs gates writes only
  auto meta = ParseSnapshotMetaFromFile(path);
  if (!meta.ok()) return meta.status();
  return ChunkInfoFromMeta(std::move(meta).value());
}

Status VerifySnapshotFile(const std::string& path, FileSystem* fs,
                          uint64_t* first_bad_chunk) {
  if (first_bad_chunk != nullptr) {
    *first_bad_chunk = std::numeric_limits<uint64_t>::max();
  }
  if (fs == nullptr) fs = FileSystem::Default();
  if (IsQuarantined(path, fs)) {
    return Status::Quarantined("snapshot '" + path + "' is quarantined (" +
                               QuarantinePathFor(path) + " exists)");
  }

  // Metadata walk: header parse + region digest verification. A v1 stream
  // passes clean — it predates checksums, so there is nothing on disk to
  // verify against (DeserializeTree's per-field validation is its guard).
  auto meta = ParseSnapshotMetaFromFile(path);
  if (!meta.ok()) {
    if (meta.status().code() == Status::Code::kUnsupported) {
      return Status::OK();
    }
    return meta.status();
  }
  const SnapshotMeta& m = meta.value();
  if (!m.has_checksums || m.slab_bytes == 0) return Status::OK();

  // Slab walk through the FileSystem interface (pread; injectable). With
  // a chunk table every chunk is judged independently, so the report
  // names the first bad one; without it the whole slab is one verdict.
  auto file = fs->NewRandomAccessFile(path);
  if (!file.ok()) return file.status();
  std::vector<char> buf(static_cast<size_t>(kSlabChunkBytes));
  XxHash64 whole;
  const uint64_t chunk_count =
      (m.slab_bytes + kSlabChunkBytes - 1) / kSlabChunkBytes;
  for (uint64_t c = 0; c < chunk_count; ++c) {
    const uint64_t offset = c * kSlabChunkBytes;
    const size_t want = static_cast<size_t>(
        m.slab_bytes - offset < kSlabChunkBytes ? m.slab_bytes - offset
                                                : kSlabChunkBytes);
    size_t got = 0;
    const Status st =
        file.value()->Read(m.slab_offset + offset, want, buf.data(), &got);
    if (!st.ok()) return st;
    if (got != want) {
      if (first_bad_chunk != nullptr) *first_bad_chunk = c;
      return Status::OutOfRange("snapshot '" + path +
                                "' truncated mid-slab");
    }
    if (m.has_chunk_checksums) {
      if (XxHash64::Hash(buf.data(), want) != m.chunk_digests[c]) {
        if (first_bad_chunk != nullptr) *first_bad_chunk = c;
        return Status::InvalidArgument(
            "snapshot '" + path + "' slab chunk " + std::to_string(c) +
            " checksum mismatch");
      }
    }
    whole.Update(buf.data(), want);
  }
  if (whole.Digest() != m.checksum[4]) {
    return Status::InvalidArgument("snapshot filter slab checksum mismatch");
  }
  return Status::OK();
}

std::string QuarantinePathFor(const std::string& snapshot_path) {
  return snapshot_path + ".quarantine";
}

bool IsQuarantined(const std::string& snapshot_path, FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  return fs->FileExists(QuarantinePathFor(snapshot_path));
}

Status WriteQuarantineMarker(const std::string& snapshot_path,
                             const std::string& reason, FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  const std::string marker = QuarantinePathFor(snapshot_path);
  auto file = fs->NewWritableFile(marker, WriteMode::kTruncate);
  if (!file.ok()) return file.status();
  Status st = file.value()->Append(reason.data(), reason.size());
  if (st.ok()) st = file.value()->Sync();
  const Status closed = file.value()->Close();
  if (st.ok()) st = closed;
  if (st.ok()) st = fs->SyncDirOf(marker);
  return st;
}

Status ClearQuarantineMarker(const std::string& snapshot_path,
                             FileSystem* fs) {
  if (fs == nullptr) fs = FileSystem::Default();
  const std::string marker = QuarantinePathFor(snapshot_path);
  if (!fs->FileExists(marker)) return Status::OK();
  Status st = fs->RemoveFile(marker);
  if (!st.ok()) return st;
  return fs->SyncDirOf(marker);
}

}  // namespace bloomsample
