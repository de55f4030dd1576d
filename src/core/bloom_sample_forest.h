// Sharded BloomSampleTree forest: one namespace, S independent shards.
//
// The namespace [0, M) is split into S contiguous slices of width
// W = ceil(M / S); shard s owns [s·W, min((s+1)·W, M)) and ShardOf(x) =
// x / W routes a key in one division. Every shard is a full
// BloomSampleTree over the GLOBAL TreeConfig — same (m, k, seed, depth),
// same dyadic node geometry — built pruned over its slice, and every
// shard is built around ONE shared HashFamily instance, so a single query
// Bloom filter (and a single ForestQueryContext) serves all of them.
//
// Why shard: build and reconstruction parallelize across shards with zero
// shared mutable state (each shard owns its own FilterArena slab, filled
// first-touch by a thread pinned to its CPU band — see util/numa.h), and
// the per-shard trees are smaller, so descents touch fewer slab pages.
//
// Sampling stays exact: a draw first picks a shard from a Fenwick tree
// over the per-shard root intersection estimates — the same Papapetrou
// estimate a parent-to-child descent step uses, so the two-stage protocol
// (weighted shard pick, then the ordinary in-shard descent) is precisely
// the descent of a virtual S-ary root whose children are the shard roots.
// Batched draws are pre-partitioned across shards in a single serial
// pass, so each shard tree sees exactly one frontier
// (BstSampler::SampleBatchPrepared); draw i runs on Rng::ForStream(seed,
// i) with the shard pick consuming the stream's first double, making
// forest batches draw-for-draw identical to the serial draw loop for
// every shard count × thread count × SIMD tier × load mode.
//
// Persistence: SaveForestToFile writes a small checksummed 'BSF1'
// manifest at `path` plus one ordinary v2 tree snapshot per shard at
// path + ".shard<s>"; LoadForestFromFile re-creates the shared family
// once and opens every shard image through it (heap or zero-copy mmap,
// per LoadOptions).
#ifndef BLOOMSAMPLE_CORE_BLOOM_SAMPLE_FOREST_H_
#define BLOOMSAMPLE_CORE_BLOOM_SAMPLE_FOREST_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/bloom_sample_tree.h"
#include "src/core/bst_reconstructor.h"
#include "src/core/bst_sampler.h"
#include "src/core/query_context.h"
#include "src/core/tree_io.h"
#include "src/util/op_counters.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"
#include "src/workload/fenwick.h"

namespace bloomsample {

struct ForestConfig {
  /// The GLOBAL tree parameterization, shared verbatim by every shard
  /// (the shard trees differ only in which keys they store). build_threads
  /// is the TOTAL build budget: the forest fans shards across it and gives
  /// each in-flight shard an equal slice.
  TreeConfig tree;
  /// Number of namespace slices. 1 is a degenerate forest whose single
  /// shard is exactly the bare pruned tree.
  uint32_t shards = 1;

  Status Validate() const;
};

class BloomSampleForest {
 public:
  static Result<BloomSampleForest> BuildComplete(const ForestConfig& config);

  /// `occupied` must be sorted, unique, all < namespace_size — the forest
  /// splits it at the shard boundaries in one pass.
  static Result<BloomSampleForest> BuildPruned(const ForestConfig& config,
                                               std::vector<uint64_t> occupied);

  const ForestConfig& config() const { return config_; }
  uint32_t shard_count() const { return config_.shards; }
  /// W = ceil(M / S).
  uint64_t shard_width() const { return shard_width_; }
  uint32_t ShardOf(uint64_t x) const {
    return static_cast<uint32_t>(x / shard_width_);
  }
  uint64_t ShardLo(uint32_t s) const { return s * shard_width_; }
  uint64_t ShardHi(uint32_t s) const {
    const uint64_t hi = (s + 1) * shard_width_;
    return hi < config_.tree.namespace_size ? hi
                                            : config_.tree.namespace_size;
  }
  const BloomSampleTree& shard(uint32_t s) const { return shards_[s]; }
  /// Mutable shard access for ingest paths (IngestPipeline lanes).
  BloomSampleTree* mutable_shard(uint32_t s) { return &shards_[s]; }

  const std::shared_ptr<const HashFamily>& family_ptr() const {
    return family_;
  }
  BloomFilter MakeQueryFilter() const { return BloomFilter(family_); }
  BloomFilter MakeQueryFilter(const std::vector<uint64_t>& keys) const;

  /// True when built via BuildPruned (BuildComplete materializes every
  /// shard as a pruned tree over its full slice, so shards are always
  /// physically pruned; this records the logical build mode).
  bool pruned() const { return pruned_; }
  size_t node_count() const;
  size_t MemoryBytes() const;
  uint64_t occupied_count() const;

  /// Query-time knobs, forwarded to every shard (same caveat as the tree
  /// setters: quiesce in-flight queries first).
  void set_intersection_threshold(double threshold);
  void set_query_threads(uint32_t threads);
  void set_min_parallel_work(uint64_t work);

 private:
  friend Result<BloomSampleForest> LoadForestFromFile(
      const std::string& path, const LoadOptions& options,
      struct ForestLoadInfo* info);

  BloomSampleForest(ForestConfig config, uint64_t shard_width,
                    std::shared_ptr<const HashFamily> family, bool pruned,
                    std::vector<BloomSampleTree> shards)
      : config_(config),
        shard_width_(shard_width),
        family_(std::move(family)),
        pruned_(pruned),
        shards_(std::move(shards)) {}

  /// Shared fan-out core of the two builders: shard s gets occupied slice
  /// [splits[s], splits[s+1]) of `occupied`, built in parallel with
  /// per-shard affinity bands.
  static Result<BloomSampleForest> BuildShards(
      const ForestConfig& config, std::vector<uint64_t> occupied,
      const std::vector<size_t>& splits, bool pruned);

  ForestConfig config_;
  uint64_t shard_width_;
  std::shared_ptr<const HashFamily> family_;
  bool pruned_;
  std::vector<BloomSampleTree> shards_;
};

/// Per-query state for forest queries: one (caching) QueryContext per
/// shard — they all view the same query filter through the shared family —
/// plus the lazily-built Fenwick tree over the per-shard root estimates.
/// The query filter must outlive the context. Cache semantics match
/// QueryContext: safe to share across query threads, stale if the query
/// or the forest mutates.
class ForestQueryContext {
 public:
  ForestQueryContext(const BloomSampleForest& forest,
                     const BloomFilter& query);

  const BloomSampleForest& forest() const { return *forest_; }
  QueryContext* shard_ctx(uint32_t s) { return contexts_[s].get(); }
  const QueryContext& shard_ctx(uint32_t s) const { return *contexts_[s]; }
  uint64_t query_bits() const { return contexts_[0]->query_bits(); }

  /// The shard-weight Fenwick tree: slot s holds the root estimate of
  /// shard s — ChildEstimate's exact arithmetic (lossless t∧ < k cut,
  /// Papapetrou correction, optional threshold, 0.5 floor) applied to the
  /// shard root, or 0 for empty shards. Built once per context under
  /// call_once; the t∧ values flow through the shard EstimateCaches, so
  /// the whole table costs at most one intersection kernel per shard per
  /// query, ever (and warms the caches the descents will hit next).
  const FenwickTree& ShardWeights(OpCounters* counters) const;

 private:
  double RootWeight(uint32_t s, OpCounters* counters) const;

  const BloomSampleForest* forest_;
  std::vector<std::unique_ptr<QueryContext>> contexts_;
  mutable std::once_flag weights_once_;
  mutable std::optional<FenwickTree> weights_;
};

/// Cross-shard sampling (see the file comment for the protocol).
class ForestSampler {
 public:
  /// The forest must outlive the sampler.
  explicit ForestSampler(const BloomSampleForest* forest);

  /// One draw: the rng's first double picks the shard by Fenwick weight,
  /// the rest of the stream drives the ordinary in-shard descent. nullopt
  /// when every shard weight is zero or the in-shard descent dies on
  /// false overlaps.
  std::optional<uint64_t> Sample(ForestQueryContext* ctx, Rng* rng,
                                 OpCounters* counters = nullptr) const;

  /// r draws on counter-based streams: entry i equals
  /// Sample(ctx, Rng::ForStream(seed, i)) bit for bit. Draws are bucketed
  /// by shard in one serial pass, then the non-empty shards run their
  /// single frontier each — in parallel across shards when
  /// TreeConfig::query_threads and the min_parallel_work gate allow.
  /// Output and op totals never depend on the thread count.
  std::vector<std::optional<uint64_t>> SampleBatch(
      ForestQueryContext* ctx, size_t r, uint64_t seed,
      OpCounters* counters = nullptr) const;

  const BloomSampleForest& forest() const { return *forest_; }

 private:
  const BloomSampleForest* forest_;
  std::vector<BstSampler> samplers_;
  LazyThreadPool pool_;
};

/// Cross-shard reconstruction: every shard reconstructs independently (in
/// parallel across shards when the knobs allow) and the per-shard outputs
/// — each ascending, over disjoint ascending ranges — concatenate in shard
/// order into one ascending result, identical for every thread count.
class ForestReconstructor {
 public:
  explicit ForestReconstructor(const BloomSampleForest* forest);

  std::vector<uint64_t> Reconstruct(
      const ForestQueryContext& ctx, OpCounters* counters = nullptr,
      BstReconstructor::PruningMode mode =
          BstReconstructor::PruningMode::kThresholded) const;

  const BloomSampleForest& forest() const { return *forest_; }

 private:
  const BloomSampleForest* forest_;
  std::vector<BstReconstructor> recons_;
  LazyThreadPool pool_;
};

/// What LoadForestFromFile did, shard by shard (the CLI's load-summary
/// line reports each shard's mapping mode from this).
struct ForestLoadInfo {
  std::vector<TreeLoadInfo> shards;
};

/// Shard s's snapshot path: `path` + ".shard" + s.
std::string ForestShardPath(const std::string& path, uint32_t s);

/// Writes the 'BSF1' manifest at `path` and one v2 snapshot per shard at
/// ForestShardPath(path, s). `options` applies to every shard image.
Status SaveForestToFile(const BloomSampleForest& forest,
                        const std::string& path);
Status SaveForestToFile(const BloomSampleForest& forest,
                        const std::string& path, const SaveOptions& options);

/// True when the file at `path` starts with the forest manifest tag —
/// the CLI's format sniff.
bool IsForestManifest(const std::string& path);

/// Forest-wide offline compaction; no pipeline may be open on `path`
/// (quiesce one with Close() first). Writes the manifest FIRST (durably),
/// then folds every shard: durably rewrite its image from the in-memory
/// shard, then remove its `.wal.old` and `.wal`. That order keeps every
/// crash point loadable: a shard whose fold never ran still replays its
/// full log, reaching exactly the in-memory state the new manifest
/// describes; a folded shard's image already holds it, and replaying the
/// full old log into the new image is a no-op (every op is idempotent).
/// (The loader skips its manifest-shape cross-check for shards that have
/// a log, since replay legitimately grows them.)
Status CompactForest(BloomSampleForest* forest, const std::string& path);
Status CompactForest(BloomSampleForest* forest, const std::string& path,
                     const SaveOptions& options);

Result<BloomSampleForest> LoadForestFromFile(const std::string& path);
Result<BloomSampleForest> LoadForestFromFile(const std::string& path,
                                             const LoadOptions& options,
                                             ForestLoadInfo* info = nullptr);

}  // namespace bloomsample

#endif  // BLOOMSAMPLE_CORE_BLOOM_SAMPLE_FOREST_H_
