#include "src/core/bloom_sample_forest.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/core/wal.h"
#include "src/util/numa.h"
#include "src/util/serialize.h"
#include "src/util/xxhash64.h"

namespace bloomsample {

namespace {

constexpr char kForestTag[4] = {'B', 'S', 'F', '1'};
constexpr uint32_t kForestVersion = 1;

Result<std::shared_ptr<const HashFamily>> ForestFamilyFor(
    const TreeConfig& config) {
  return MakeHashFamily(config.hash_kind, static_cast<size_t>(config.k),
                        config.m, config.seed, config.namespace_size);
}

}  // namespace

Status ForestConfig::Validate() const {
  const Status st = tree.Validate();
  if (!st.ok()) return st;
  if (shards == 0) return Status::InvalidArgument("forest needs >= 1 shard");
  if (shards > tree.namespace_size) {
    return Status::InvalidArgument("more shards than namespace elements");
  }
  if (shards > 65536) {
    return Status::InvalidArgument("shard count out of range (max 65536)");
  }
  return Status::OK();
}

Result<BloomSampleForest> BloomSampleForest::BuildShards(
    const ForestConfig& config, std::vector<uint64_t> occupied,
    const std::vector<size_t>& splits, bool pruned) {
  auto family = ForestFamilyFor(config.tree);
  if (!family.ok()) return family.status();

  const uint32_t shard_count = config.shards;
  const uint64_t width =
      (config.tree.namespace_size + shard_count - 1) / shard_count;

  // Outer fan-out: one lane per shard up to the total build budget; each
  // in-flight shard gets an equal slice of the remaining threads for its
  // own internal (leaf-fill / union) parallelism.
  const size_t total_threads = ResolveThreadCount(config.tree.build_threads);
  size_t outer = total_threads < shard_count ? total_threads : shard_count;
  if (outer == 0) outer = 1;
  TreeConfig shard_config = config.tree;
  shard_config.build_threads =
      static_cast<uint32_t>((total_threads + outer - 1) / outer);

  std::vector<std::optional<BloomSampleTree>> built(shard_count);
  std::vector<Status> statuses(shard_count, Status::OK());
  ThreadPool pool(outer);
  pool.ParallelFor(0, shard_count, 1, [&](uint64_t lo, uint64_t hi) {
    for (uint64_t s = lo; s < hi; ++s) {
      // Pin to the shard's CPU band before the build touches its arena:
      // first-touch then places the shard's slab pages on the band's
      // memory node (no-op on unsupported platforms or tiny hosts).
      ScopedThreadAffinity pin(static_cast<size_t>(s) % outer, outer);
      std::vector<uint64_t> slice;
      if (splits.empty()) {
        // Complete mode: the shard's full namespace slice.
        const uint64_t slice_lo = s * width;
        uint64_t slice_hi = slice_lo + width;
        if (slice_hi > config.tree.namespace_size) {
          slice_hi = config.tree.namespace_size;
        }
        slice.reserve(static_cast<size_t>(slice_hi - slice_lo));
        for (uint64_t x = slice_lo; x < slice_hi; ++x) slice.push_back(x);
      } else {
        slice.assign(occupied.begin() + static_cast<ptrdiff_t>(splits[s]),
                     occupied.begin() + static_cast<ptrdiff_t>(splits[s + 1]));
      }
      auto tree = BloomSampleTree::BuildPruned(shard_config, std::move(slice),
                                               family.value());
      if (tree.ok()) {
        built[static_cast<size_t>(s)] = std::move(tree).value();
      } else {
        statuses[static_cast<size_t>(s)] = tree.status();
      }
    }
  });

  std::vector<BloomSampleTree> shards;
  shards.reserve(shard_count);
  for (uint32_t s = 0; s < shard_count; ++s) {
    if (!statuses[s].ok()) return statuses[s];
    shards.push_back(std::move(*built[s]));
  }
  return BloomSampleForest(config, width, std::move(family).value(), pruned,
                           std::move(shards));
}

Result<BloomSampleForest> BloomSampleForest::BuildComplete(
    const ForestConfig& config) {
  const Status st = config.Validate();
  if (!st.ok()) return st;
  // Every shard materializes its full slice as a pruned tree: the shard
  // trees share the global node geometry, each storing exactly its slice —
  // the sharded equivalent of Definition 5.1's complete tree.
  return BuildShards(config, {}, {}, /*pruned=*/false);
}

Result<BloomSampleForest> BloomSampleForest::BuildPruned(
    const ForestConfig& config, std::vector<uint64_t> occupied) {
  const Status st = config.Validate();
  if (!st.ok()) return st;
  for (size_t i = 0; i < occupied.size(); ++i) {
    if (occupied[i] >= config.tree.namespace_size) {
      return Status::InvalidArgument("occupied id outside the namespace");
    }
    if (i > 0 && occupied[i] <= occupied[i - 1]) {
      return Status::InvalidArgument("occupied ids must be sorted and unique");
    }
  }
  const uint64_t width =
      (config.tree.namespace_size + config.shards - 1) / config.shards;
  std::vector<size_t> splits(config.shards + 1);
  for (uint32_t s = 0; s <= config.shards; ++s) {
    const uint64_t bound = s * width;
    splits[s] = static_cast<size_t>(
        std::lower_bound(occupied.begin(), occupied.end(), bound) -
        occupied.begin());
  }
  return BuildShards(config, std::move(occupied), splits, /*pruned=*/true);
}

BloomFilter BloomSampleForest::MakeQueryFilter(
    const std::vector<uint64_t>& keys) const {
  BloomFilter filter(family_);
  filter.InsertBatch(keys);
  return filter;
}

size_t BloomSampleForest::node_count() const {
  size_t total = 0;
  for (const BloomSampleTree& shard : shards_) total += shard.node_count();
  return total;
}

size_t BloomSampleForest::MemoryBytes() const {
  size_t total = 0;
  for (const BloomSampleTree& shard : shards_) total += shard.MemoryBytes();
  return total;
}

uint64_t BloomSampleForest::occupied_count() const {
  uint64_t total = 0;
  for (const BloomSampleTree& shard : shards_) {
    total += shard.occupied_count();
  }
  return total;
}

void BloomSampleForest::set_intersection_threshold(double threshold) {
  for (BloomSampleTree& shard : shards_) {
    shard.set_intersection_threshold(threshold);
  }
}

void BloomSampleForest::set_query_threads(uint32_t threads) {
  for (BloomSampleTree& shard : shards_) shard.set_query_threads(threads);
}

void BloomSampleForest::set_min_parallel_work(uint64_t work) {
  for (BloomSampleTree& shard : shards_) shard.set_min_parallel_work(work);
}

ForestQueryContext::ForestQueryContext(const BloomSampleForest& forest,
                                       const BloomFilter& query)
    : forest_(&forest) {
  contexts_.reserve(forest.shard_count());
  for (uint32_t s = 0; s < forest.shard_count(); ++s) {
    contexts_.push_back(
        std::make_unique<QueryContext>(forest.shard(s), query));
  }
}

double ForestQueryContext::RootWeight(uint32_t s,
                                      OpCounters* counters) const {
  const QueryContext& ctx = *contexts_[s];
  if (ctx.query_bits() == 0) return 0.0;
  // The virtual S-ary super-root weighs its children exactly as a binary
  // descent step weighs a pair — same lossless t∧ < k cut, same Papapetrou
  // correction, same optional threshold and 0.5 noise floor.
  return BstSampler::ChildEstimate(ctx, forest_->shard(s).root(), counters);
}

const FenwickTree& ForestQueryContext::ShardWeights(
    OpCounters* counters) const {
  std::call_once(weights_once_, [&] {
    std::vector<double> weights(forest_->shard_count());
    for (uint32_t s = 0; s < forest_->shard_count(); ++s) {
      weights[s] = RootWeight(s, counters);
    }
    weights_ = FenwickTree::FromValues(weights);
  });
  return *weights_;
}

ForestSampler::ForestSampler(const BloomSampleForest* forest)
    : forest_(forest) {
  BSR_CHECK(forest != nullptr, "ForestSampler needs a forest");
  samplers_.reserve(forest->shard_count());
  for (uint32_t s = 0; s < forest->shard_count(); ++s) {
    samplers_.emplace_back(&forest->shard(s));
  }
}

std::optional<uint64_t> ForestSampler::Sample(ForestQueryContext* ctx,
                                              Rng* rng,
                                              OpCounters* counters) const {
  BSR_CHECK(ctx != nullptr, "ForestSampler::Sample: null context");
  BSR_CHECK(&ctx->forest() == forest_,
            "forest context built for a different forest");
  if (ctx->query_bits() == 0) {
    CountNullSample(counters);
    return std::nullopt;
  }
  const FenwickTree& weights = ctx->ShardWeights(counters);
  const double total = weights.Total();
  if (total <= 0.0) {
    CountNullSample(counters);
    return std::nullopt;
  }
  // The stream's first double is the shard coin; the in-shard descent
  // continues on the same stream — one virtual super-root descent step.
  const uint32_t s =
      static_cast<uint32_t>(weights.FindPrefix(rng->NextDouble() * total));
  return samplers_[s].Sample(ctx->shard_ctx(s), rng, counters);
}

std::vector<std::optional<uint64_t>> ForestSampler::SampleBatch(
    ForestQueryContext* ctx, size_t r, uint64_t seed,
    OpCounters* counters) const {
  BSR_CHECK(ctx != nullptr, "ForestSampler::SampleBatch: null context");
  BSR_CHECK(&ctx->forest() == forest_,
            "forest context built for a different forest");
  BSR_CHECK(r < (1ULL << 32), "SampleBatch: batch size must fit in 32 bits");
  std::vector<std::optional<uint64_t>> out(r);
  if (r == 0) return out;
  if (ctx->query_bits() == 0) {
    CountNullSample(counters, r);
    return out;
  }
  const FenwickTree& weights = ctx->ShardWeights(counters);
  const double total = weights.Total();
  if (total <= 0.0) {
    CountNullSample(counters, r);
    return out;
  }

  // Serial pre-pass: spend each stream's shard coin and bucket the draw,
  // so every shard receives its whole share of the batch as ONE frontier.
  std::vector<std::vector<BstSampler::PreparedDraw>> buckets(
      forest_->shard_count());
  for (uint64_t i = 0; i < r; ++i) {
    Rng rng = Rng::ForStream(seed, i);
    const uint32_t s =
        static_cast<uint32_t>(weights.FindPrefix(rng.NextDouble() * total));
    buckets[s].push_back(
        BstSampler::PreparedDraw{static_cast<uint32_t>(i), rng});
  }
  std::vector<uint32_t> active;
  for (uint32_t s = 0; s < forest_->shard_count(); ++s) {
    if (!buckets[s].empty()) active.push_back(s);
  }

  const TreeConfig& config = forest_->config().tree;
  size_t lanes = ResolveThreadCount(config.query_threads);
  if (lanes > active.size()) lanes = active.size();
  if (lanes > 1 && config.min_parallel_work > 0) {
    // Same work model as the tree-level batch gate (draws × descent
    // steps), with shards as the unit of dispatch.
    const size_t hw = ResolveThreadCount(0);
    const uint64_t steps =
        static_cast<uint64_t>(r) * (static_cast<uint64_t>(config.depth) + 1);
    const size_t amortizing = lanes < hw ? lanes : hw;
    if (hw <= 1 || steps < config.min_parallel_work * amortizing) lanes = 1;
  }

  if (lanes <= 1) {
    for (uint32_t s : active) {
      samplers_[s].SampleBatchPrepared(ctx->shard_ctx(s),
                                       std::move(buckets[s]), counters, &out);
    }
    return out;
  }

  // Shards write disjoint output slots on disjoint contexts; per-shard
  // counters merge in shard order, so totals match the serial pass.
  std::vector<OpCounters> shard_counters(
      counters != nullptr ? active.size() : 0);
  pool_.Acquire(lanes)->ParallelFor(
      0, active.size(), 1, [&](uint64_t lo, uint64_t hi) {
        for (uint64_t a = lo; a < hi; ++a) {
          const uint32_t s = active[static_cast<size_t>(a)];
          OpCounters* chunk =
              counters != nullptr ? &shard_counters[static_cast<size_t>(a)]
                                  : nullptr;
          samplers_[s].SampleBatchPrepared(ctx->shard_ctx(s),
                                           std::move(buckets[s]), chunk,
                                           &out);
        }
      });
  for (const OpCounters& chunk : shard_counters) *counters += chunk;
  return out;
}

ForestReconstructor::ForestReconstructor(const BloomSampleForest* forest)
    : forest_(forest) {
  BSR_CHECK(forest != nullptr, "ForestReconstructor needs a forest");
  recons_.reserve(forest->shard_count());
  for (uint32_t s = 0; s < forest->shard_count(); ++s) {
    recons_.emplace_back(&forest->shard(s));
  }
}

std::vector<uint64_t> ForestReconstructor::Reconstruct(
    const ForestQueryContext& ctx, OpCounters* counters,
    BstReconstructor::PruningMode mode) const {
  BSR_CHECK(&ctx.forest() == forest_,
            "forest context built for a different forest");
  const uint32_t shard_count = forest_->shard_count();
  std::vector<std::vector<uint64_t>> parts(shard_count);

  const TreeConfig& config = forest_->config().tree;
  size_t lanes = ResolveThreadCount(config.query_threads);
  if (lanes > shard_count) lanes = shard_count;
  if (lanes > 1 && config.min_parallel_work > 0) {
    const size_t hw = ResolveThreadCount(0);
    uint64_t candidates = 0;
    for (uint32_t s = 0; s < shard_count; ++s) {
      const BloomSampleTree& tree = forest_->shard(s);
      if (tree.root() != BloomSampleTree::kNoNode) {
        candidates += tree.SubtreeCandidateCount(tree.root());
      }
    }
    const size_t amortizing = lanes < hw ? lanes : hw;
    if (hw <= 1 || candidates < config.min_parallel_work * amortizing) {
      lanes = 1;
    }
  }

  std::vector<OpCounters> shard_counters(
      counters != nullptr && lanes > 1 ? shard_count : 0);
  const auto run_shard = [&](uint32_t s, OpCounters* c) {
    parts[s] = recons_[s].Reconstruct(ctx.shard_ctx(s), c, mode);
  };
  if (lanes <= 1) {
    for (uint32_t s = 0; s < shard_count; ++s) run_shard(s, counters);
  } else {
    pool_.Acquire(lanes)->ParallelFor(
        0, shard_count, 1, [&](uint64_t lo, uint64_t hi) {
          for (uint64_t s = lo; s < hi; ++s) {
            run_shard(static_cast<uint32_t>(s),
                      counters != nullptr
                          ? &shard_counters[static_cast<size_t>(s)]
                          : nullptr);
          }
        });
    for (const OpCounters& chunk : shard_counters) *counters += chunk;
  }

  // Shard ranges are disjoint and ascending, each part is ascending —
  // concatenation in shard order IS the sorted merge.
  size_t total = 0;
  for (const std::vector<uint64_t>& part : parts) total += part.size();
  std::vector<uint64_t> out;
  out.reserve(total);
  for (const std::vector<uint64_t>& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

std::string ForestShardPath(const std::string& path, uint32_t s) {
  return path + ".shard" + std::to_string(s);
}

Status SaveForestToFile(const BloomSampleForest& forest,
                        const std::string& path) {
  return SaveForestToFile(forest, path, SaveOptions{});
}

namespace {

/// Stages the manifest in memory (it is tiny, and one trailing XXH64 must
/// cover every byte before it), then lands it durably: temp file, fsync,
/// rename over `path`, directory fsync.
Status WriteManifestDurable(const BloomSampleForest& forest,
                            const std::string& path, FileSystem* fs) {
  std::ostringstream buf;
  BinaryWriter writer(&buf);
  writer.WriteTag(kForestTag);
  writer.WriteU32(kForestVersion);
  writer.WriteU32(forest.pruned() ? 1u : 0u);
  writer.WriteU32(forest.shard_count());
  const TreeConfig& config = forest.config().tree;
  writer.WriteU32(static_cast<uint32_t>(config.hash_kind));
  writer.WriteU32(config.depth);
  writer.WriteU64(config.namespace_size);
  writer.WriteU64(config.m);
  writer.WriteU64(config.k);
  writer.WriteU64(config.seed);
  writer.WriteDouble(config.intersection_threshold);
  writer.WriteU64(forest.shard_width());
  for (uint32_t s = 0; s < forest.shard_count(); ++s) {
    writer.WriteU64(forest.shard(s).node_count());
    writer.WriteU64(forest.shard(s).occupied_count());
  }
  const uint64_t digest = XxHash64::Hash(buf.str().data(), buf.str().size());
  BinaryWriter tail(&buf);
  tail.WriteU64(digest);
  if (!writer.ok() || !tail.ok()) {
    return Status::Internal("stream write failed");
  }
  const std::string bytes = buf.str();

  const std::string tmp = path + ".tmp";
  auto file = fs->NewWritableFile(tmp, WriteMode::kTruncate);
  if (!file.ok()) return file.status();
  Status st = file.value()->Append(bytes.data(), bytes.size());
  if (st.ok()) st = file.value()->Sync();
  const Status closed = file.value()->Close();
  if (st.ok()) st = closed;
  if (st.ok()) st = fs->Rename(tmp, path);
  if (!st.ok()) {
    (void)fs->RemoveFile(tmp);
    return st;
  }
  return fs->SyncDirOf(path);
}

}  // namespace

Status SaveForestToFile(const BloomSampleForest& forest,
                        const std::string& path, const SaveOptions& options) {
  for (uint32_t s = 0; s < forest.shard_count(); ++s) {
    const Status st =
        SaveTreeToFile(forest.shard(s), ForestShardPath(path, s), options);
    if (!st.ok()) return st;
  }
  FileSystem* fs = options.fs != nullptr ? options.fs : FileSystem::Default();
  return WriteManifestDurable(forest, path, fs);
}

bool IsForestManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  char tag[4];
  in.read(tag, 4);
  return in.good() && std::memcmp(tag, kForestTag, 4) == 0;
}

Result<BloomSampleForest> LoadForestFromFile(const std::string& path) {
  return LoadForestFromFile(path, LoadOptions::FromEnv());
}

Result<BloomSampleForest> LoadForestFromFile(const std::string& path,
                                             const LoadOptions& options,
                                             ForestLoadInfo* info) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("cannot open '" + path + "' for reading");
  }
  std::ostringstream whole;
  whole << in.rdbuf();
  const std::string bytes = whole.str();
  if (bytes.size() < 4 + sizeof(uint64_t) ||
      std::memcmp(bytes.data(), kForestTag, 4) != 0) {
    return Status::InvalidArgument("bad magic tag; expected 'BSF1'");
  }
  const size_t body_bytes = bytes.size() - sizeof(uint64_t);
  uint64_t recorded = 0;
  std::memcpy(&recorded, bytes.data() + body_bytes, sizeof(recorded));
  if (XxHash64::Hash(bytes.data(), body_bytes) != recorded) {
    return Status::InvalidArgument("forest manifest checksum mismatch");
  }

  std::istringstream body(bytes.substr(4, body_bytes - 4));
  BinaryReader reader(&body);
#define BSR_READ_OR_RETURN(field, expr)             \
  do {                                              \
    auto result_ = (expr);                          \
    if (!result_.ok()) return result_.status();     \
    field = std::move(result_).value();             \
  } while (0)

  uint32_t version, pruned_flag;
  ForestConfig config;
  BSR_READ_OR_RETURN(version, reader.ReadU32());
  if (version != kForestVersion) {
    return Status::Unsupported("unknown forest manifest version");
  }
  BSR_READ_OR_RETURN(pruned_flag, reader.ReadU32());
  if (pruned_flag > 1) {
    return Status::InvalidArgument("bad forest pruned flag");
  }
  BSR_READ_OR_RETURN(config.shards, reader.ReadU32());
  uint32_t kind_raw;
  BSR_READ_OR_RETURN(kind_raw, reader.ReadU32());
  if (kind_raw > static_cast<uint32_t>(HashFamilyKind::kMd5)) {
    return Status::InvalidArgument("unknown hash family kind in manifest");
  }
  config.tree.hash_kind = static_cast<HashFamilyKind>(kind_raw);
  BSR_READ_OR_RETURN(config.tree.depth, reader.ReadU32());
  BSR_READ_OR_RETURN(config.tree.namespace_size, reader.ReadU64());
  BSR_READ_OR_RETURN(config.tree.m, reader.ReadU64());
  BSR_READ_OR_RETURN(config.tree.k, reader.ReadU64());
  BSR_READ_OR_RETURN(config.tree.seed, reader.ReadU64());
  BSR_READ_OR_RETURN(config.tree.intersection_threshold,
                     reader.ReadDouble());
  const Status cst = config.Validate();
  if (!cst.ok()) return cst;
  uint64_t width;
  BSR_READ_OR_RETURN(width, reader.ReadU64());
  if (width !=
      (config.tree.namespace_size + config.shards - 1) / config.shards) {
    return Status::InvalidArgument("forest shard width mismatch");
  }
  std::vector<uint64_t> node_counts(config.shards);
  std::vector<uint64_t> occupied_counts(config.shards);
  for (uint32_t s = 0; s < config.shards; ++s) {
    BSR_READ_OR_RETURN(node_counts[s], reader.ReadU64());
    BSR_READ_OR_RETURN(occupied_counts[s], reader.ReadU64());
  }
#undef BSR_READ_OR_RETURN

  // One family for the whole forest: every shard image loads around it,
  // so one query filter serves every shard (pointer-identity
  // compatibility).
  auto family = ForestFamilyFor(config.tree);
  if (!family.ok()) return family.status();
  LoadOptions shard_options = options;
  shard_options.family = family.value();

  // Local info so replay results are known even when the caller passed no
  // out-param — the shape cross-check below must see them.
  ForestLoadInfo local_info;
  if (info == nullptr) info = &local_info;
  info->shards.assign(config.shards, TreeLoadInfo{});
  std::vector<BloomSampleTree> shards;
  shards.reserve(config.shards);
  for (uint32_t s = 0; s < config.shards; ++s) {
    auto tree = LoadTreeFromFile(ForestShardPath(path, s), shard_options,
                                 &info->shards[s]);
    if (!tree.ok()) return tree.status();
    const TreeConfig& tc = tree.value().config();
    if (tc.namespace_size != config.tree.namespace_size ||
        tc.m != config.tree.m || tc.k != config.tree.k ||
        tc.seed != config.tree.seed || tc.depth != config.tree.depth ||
        tc.hash_kind != config.tree.hash_kind) {
      return Status::InvalidArgument(
          "shard snapshot config disagrees with the forest manifest");
    }
    // A shard with a sidecar WAL is dynamic: replay legitimately grows it
    // past the manifest's counts, and around a crash the manifest may be
    // newer OR older than the image (see CompactForest's ordering
    // argument). The shape cross-check therefore only binds for static
    // shards — no log present.
    if (!info->shards[s].wal_present &&
        (tree.value().node_count() != node_counts[s] ||
         tree.value().occupied_count() != occupied_counts[s])) {
      return Status::InvalidArgument(
          "shard snapshot shape disagrees with the forest manifest");
    }
    bool outside = false;
    tree.value().ForEachOccupied([&](uint64_t x) {
      outside |= x < s * width || x >= (s + 1) * width;
    });
    if (outside) {
      return Status::InvalidArgument(
          "shard snapshot holds keys outside its namespace slice");
    }
    shards.push_back(std::move(tree).value());
  }
  return BloomSampleForest(config, width, std::move(family).value(),
                           pruned_flag == 1, std::move(shards));
}

namespace {

/// One shard's fold: the image first, the logs only once it is durable.
Status FoldShard(const BloomSampleTree& shard, const std::string& path,
                 const SaveOptions& options, FileSystem* fs) {
  const Status st = SaveTreeToFile(shard, path, options);
  if (!st.ok()) return st;
  return RetireLogs(fs, path);
}

}  // namespace

Status CompactForest(BloomSampleForest* forest, const std::string& path) {
  return CompactForest(forest, path, SaveOptions());
}

Status CompactForest(BloomSampleForest* forest, const std::string& path,
                     const SaveOptions& options) {
  BSR_CHECK(forest != nullptr, "CompactForest: null forest");
  // Manifest first — see the header comment for why this ordering keeps
  // every kill point loadable.
  FileSystem* fs = options.fs != nullptr ? options.fs : FileSystem::Default();
  Status st = WriteManifestDurable(*forest, path, fs);
  if (!st.ok()) return st;
  for (uint32_t s = 0; s < forest->shard_count(); ++s) {
    st = FoldShard(forest->shard(s), ForestShardPath(path, s), options, fs);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace bloomsample
