// The BloomSampleTree (Definition 5.1) and its pruned variant (Section 5.2).
//
// A complete binary tree over the namespace [0, M): the node at level ℓ,
// offset j owns the dyadic range [j·L·2^{D−ℓ}, (j+1)·L·2^{D−ℓ}) ∩ [0, M),
// where D is the depth and L = ceil(M / 2^D) the leaf range width. Every
// node carries a Bloom filter — same (m, H) as the query filters — storing
// the elements of its range.
//
// Two build modes:
//   * Complete (Definition 5.1): every node exists; node filters store the
//     whole range. Built bottom-up: leaves are populated by insertion, and
//     each parent is the bitwise OR of its children (Bloom union over a
//     shared family is exact), so construction costs M insertions plus
//     O(#nodes · m/64) word ORs.
//   * Pruned (Section 5.2): given the occupied subset M′ ⊆ [0, M), only
//     nodes whose range intersects M′ exist, and filters store only
//     occupied elements. Leaf scans then enumerate occupied elements only,
//     which is where the accuracy gain of Figure 15 comes from. Supports
//     dynamic Insert() of newly occupied ids (creates nodes on demand).
//
// Pruned trees over namespaces of fewer than 2^32 ids also carry an h_0
// index for exact reconstruction (UpdateExactMembers): the occupied ids
// bucketed by their first hash bit, built on the first exact query.
//
// The tree is the shared, build-once index: one tree serves every query
// Bloom filter over the same namespace/parameters.
#ifndef BLOOMSAMPLE_CORE_BLOOM_SAMPLE_TREE_H_
#define BLOOMSAMPLE_CORE_BLOOM_SAMPLE_TREE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/bloom/bloom_filter.h"
#include "src/bloom/counting_bloom.h"
#include "src/core/tree_config.h"
#include "src/util/filter_arena.h"
#include "src/util/op_counters.h"
#include "src/util/status.h"

namespace bloomsample {

/// Physical placement of node filter blocks within the arena (and within a
/// v2 snapshot's slab). Logical node ids never change — the layout is a
/// pure permutation of block storage, keyed through an id→block index.
///   * kIdOrder — blocks in node-id order (the builders' natural order:
///     heap order for complete trees, DFS preorder for pruned ones).
///   * kDescent — descent-aware blocking: the top levels of the tree
///     BFS-grouped at the front (every descent touches them, so they share
///     a handful of pages), then each subtree hanging below laid out in
///     van-Emde-Boas order, so a root-to-leaf walk inside a subtree stays
///     within O(log) block clusters instead of striding level-by-level
///     across the whole slab.
enum class NodeLayout : uint32_t { kIdOrder = 0, kDescent = 1 };

/// "id-order" / "descent".
const char* NodeLayoutName(NodeLayout layout);

class BloomSampleTree {
 public:
  static constexpr int64_t kNoNode = -1;

  struct Node {
    uint64_t lo = 0;  ///< range start (inclusive)
    uint64_t hi = 0;  ///< range end (exclusive), clipped to M
    uint32_t level = 0;
    int64_t left = kNoNode;
    int64_t right = kNoNode;
    /// Cached filter popcount (t1 in the estimator); kept in sync by the
    /// builders and Insert so samplers avoid an O(m) recount per visit.
    uint64_t set_bits = 0;
    BloomFilter filter;

    /// Legacy owning flavor: the filter allocates its own bit payload.
    Node(uint64_t lo_in, uint64_t hi_in, uint32_t level_in,
         std::shared_ptr<const HashFamily> family)
        : lo(lo_in), hi(hi_in), level(level_in), filter(std::move(family)) {}

    /// Arena flavor: the filter's payload is a block of `arena`, so node
    /// filters built in sequence pack contiguously. All builders use this.
    Node(uint64_t lo_in, uint64_t hi_in, uint32_t level_in,
         std::shared_ptr<const HashFamily> family, FilterArena* arena)
        : lo(lo_in),
          hi(hi_in),
          level(level_in),
          filter(std::move(family), arena) {}

    /// Snapshot flavor: the filter adopts an already-filled span (a block
    /// of a loaded or mmap'ed slab), so loaders can place node payloads at
    /// arbitrary blocks of the arena image — the descent layout's id→block
    /// permutation — without copying or re-hashing.
    Node(uint64_t lo_in, uint64_t hi_in, uint32_t level_in,
         std::shared_ptr<const HashFamily> family, BitVector bits)
        : lo(lo_in),
          hi(hi_in),
          level(level_in),
          filter(std::move(family), std::move(bits)) {}
  };

  /// Builds the complete tree of Definition 5.1.
  static Result<BloomSampleTree> BuildComplete(const TreeConfig& config);

  /// Shared-family flavor: builds with `family` instead of a freshly
  /// created instance. Filter compatibility across the library is pointer
  /// identity on the family, so several trees built this way (a forest's
  /// shards) can all serve one query filter / QueryContext. `family` must
  /// match the config's (kind, k, m, seed).
  static Result<BloomSampleTree> BuildComplete(
      const TreeConfig& config, std::shared_ptr<const HashFamily> family);

  /// Builds the pruned tree of Section 5.2 over the occupied ids
  /// `occupied` (must be sorted, unique, all < config.namespace_size).
  static Result<BloomSampleTree> BuildPruned(const TreeConfig& config,
                                             std::vector<uint64_t> occupied);

  /// Shared-family flavor of BuildPruned (see BuildComplete above).
  static Result<BloomSampleTree> BuildPruned(
      const TreeConfig& config, std::vector<uint64_t> occupied,
      std::shared_ptr<const HashFamily> family);

  const TreeConfig& config() const { return config_; }
  /// Adjusts the Section 5.6 estimate-threshold at query time (it is a
  /// traversal policy, not a build-time property; node filters are
  /// threshold-independent).
  void set_intersection_threshold(double threshold) {
    BSR_CHECK(threshold >= 0.0, "threshold must be >= 0");
    config_.intersection_threshold = threshold;
  }
  /// Adjusts the reconstruction fan-out width at query time (0 = hardware
  /// concurrency, 1 = serial; like intersection_threshold it is traversal
  /// policy, not tree identity, and is not serialized). Like
  /// set_intersection_threshold this is a plain field write: do not call
  /// it while queries are in flight on other threads — quiesce first.
  void set_query_threads(uint32_t threads) {
    config_.query_threads = threads;
  }
  /// Adjusts the fan-out workload gate at query time (see
  /// TreeConfig::min_parallel_work; 0 = always fan out). Same caveats as
  /// set_query_threads: plain field write, quiesce queries first.
  void set_min_parallel_work(uint64_t work) {
    config_.min_parallel_work = work;
  }
  const std::shared_ptr<const HashFamily>& family_ptr() const {
    return family_;
  }
  bool pruned() const { return pruned_; }
  /// Occupied universe (empty vector for complete trees).
  const std::vector<uint64_t>& occupied() const { return occupied_; }

  int64_t root() const { return nodes_.empty() ? kNoNode : 0; }
  const Node& node(int64_t id) const {
    BSR_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size(),
              "node id out of range");
    return nodes_[static_cast<size_t>(id)];
  }
  size_t node_count() const { return nodes_.size(); }
  bool IsLeaf(int64_t id) const { return node(id).level == config_.depth; }

  /// Number of candidate elements a leaf scan at `id` will touch.
  uint64_t LeafCandidateCount(int64_t id) const;

  /// Candidate elements below node `id`: the occupied ids in its range for
  /// pruned trees, the whole (clipped) range otherwise. An upper bound on
  /// the membership queries a traversal of the subtree can issue — the
  /// workload estimate behind the min_parallel_work fan-out gate.
  uint64_t SubtreeCandidateCount(int64_t id) const;

  /// Calls fn(x) for each element the leaf scan at `id` must test: the
  /// occupied ids in the leaf range for pruned trees, the whole range
  /// otherwise.
  template <typename Fn>
  void ForEachLeafCandidate(int64_t id, Fn&& fn) const {
    const Node& leaf = node(id);
    if (pruned_) {
      auto it = std::lower_bound(occupied_.begin(), occupied_.end(), leaf.lo);
      for (; it != occupied_.end() && *it < leaf.hi; ++it) fn(*it);
    } else {
      for (uint64_t x = leaf.lo; x < leaf.hi; ++x) fn(x);
    }
  }

  /// Runs the batched membership scan of leaf `id`'s candidates against
  /// `query`, appending the positives to *out in ascending order and
  /// counting one membership query per candidate. The shared leaf-scan
  /// pipeline of BstSampler and BstReconstructor: candidates are gathered
  /// into kHashBlock-sized blocks and run through FilterContained — one
  /// virtual hash call per block instead of one per candidate.
  void ScanLeafCandidates(int64_t id, const BloomFilter& query,
                          OpCounters* counters,
                          std::vector<uint64_t>* out) const;

  /// True when exact reconstruction runs through the h_0 index: pruned
  /// trees whose ids (and id count) fit in 32 bits. Every x in S ∪ S(B)
  /// has its bit h_0(x) set in the query, so testing only the occupied
  /// ids bucketed under the query's set bits finds all of them — for any
  /// hash family.
  bool HasExactIndex() const {
    return pruned_ && config_.namespace_size < (uint64_t{1} << 32);
  }

  /// How far the h_0 index had advanced when an exact answer was taken:
  /// its build generation (0 = no answer yet), the length of its log of
  /// ids inserted since that build, and the removals since that build.
  struct ExactIndexPosition {
    uint64_t generation = 0;
    uint64_t pending = 0;
    uint64_t removals = 0;
  };

  /// Brings *answer — the occupied ids `query` contains, ascending, as of
  /// index position *at — up to date, and advances *at. When only inserts
  /// happened since *at, only the ids inserted since are tested and the
  /// hits merged in order; after a removal or an index rebuild (and for a
  /// default *at) the answer is recomputed from the query's buckets plus
  /// the insert log. Builds the index on first use, under its own mutex.
  /// One membership query is counted per id tested; no node is visited.
  /// HasExactIndex() trees only. Safe to call concurrently (with distinct
  /// answers), but not concurrently with Insert/Remove.
  void UpdateExactMembers(const BloomFilter& query, ExactIndexPosition* at,
                          std::vector<uint64_t>* answer,
                          OpCounters* counters) const;

  /// Gauges of the h_0 index: heap bytes held, builds so far, and ids
  /// inserted since the last build.
  struct ExactIndexStats {
    uint64_t bytes = 0;
    uint64_t builds = 0;
    uint64_t pending = 0;
  };
  ExactIndexStats exact_index_stats() const;

  /// Dynamically marks `x` as occupied (pruned trees only): inserts x into
  /// every filter on its root-to-leaf path, creating missing nodes, and
  /// updates the occupied list. O(depth · m-bit ops + |M′|) per call; batch
  /// rebuilds are preferable for bulk loads. Nothing is logged here: a
  /// durable insert goes through IngestPipeline, which appends and fences
  /// the record before it calls this. A built h_0 index logs x as pending
  /// (or is dropped once the log passes its rebuild point).
  Status Insert(uint64_t x);

  /// Opt-in delete support — the counting-bloom leaf backend. Builds one
  /// exact CountingBloomFilter per leaf from the occupied set (each id was
  /// inserted exactly once, so the counters are true collision counts and
  /// Remove's decrements are safe). Idempotent; pruned trees only. The
  /// backend is an in-memory maintenance structure: snapshots do not
  /// persist it, so re-enable after loading (WAL replay does this
  /// automatically on the first kRemove record).
  Status EnableCountingLeaves();
  bool counting_leaves() const { return counting_leaves_; }

  /// Dynamically removes `x` (pruned trees with counting leaves only):
  /// drops x from the occupied list, decrements the leaf's counters and
  /// rewrites its bit filter from the positive-counter pattern, then
  /// rebuilds each ancestor on the path as the exact union of its
  /// children. Unlogged, like Insert: IngestPipeline logs the kRemove
  /// record first. Removing an absent id is a no-op (mirrors Insert's
  /// idempotence). Without EnableCountingLeaves() the call is refused with
  /// kUnsupported — plain Bloom leaves cannot unset bits.
  Status Remove(uint64_t x);

  /// Best-effort software prefetch of node `id`'s filter payload, issued a
  /// node ahead of the intersection that will read it so the arena block's
  /// leading lines (dense kernel) or the words a sparse query will gather
  /// are in flight while the sibling's estimate computes. No-op for
  /// kNoNode; never changes results.
  void PrefetchFilter(int64_t id, const BloomQueryView& view) const {
    if (id == kNoNode) return;
    const BitVector& bits = nodes_[static_cast<size_t>(id)].filter.bits();
    const uint64_t* words = bits.word_data();
    if (view.sparse()) {
      const BitVector::SparseView& sv = view.sparse_view();
      const size_t limit =
          sv.word_index.size() < kPrefetchSparseWords ? sv.word_index.size()
                                                      : kPrefetchSparseWords;
      for (size_t i = 0; i < limit; ++i) {
        __builtin_prefetch(&words[sv.word_index[i]], 0, 1);
      }
      return;
    }
    const size_t lines = (bits.word_count() + 7) / 8;
    const size_t limit = lines < kPrefetchDenseLines ? lines : kPrefetchDenseLines;
    for (size_t i = 0; i < limit; ++i) {
      __builtin_prefetch(words + 8 * i, 0, 1);
    }
  }

  /// Prefetches both children's filter blocks of an internal node —
  /// the shared descend-step idiom of BstSampler and BstReconstructor,
  /// issued before the first estimate reads either child. Under the
  /// kDescent layout siblings are adjacent blocks (and near their
  /// parent), so the two prefetch runs land on the same pages/lines a
  /// cold (or freshly mmap'ed) descent is about to fault in anyway.
  void PrefetchChildren(const Node& node, const BloomQueryView& view) const {
    PrefetchFilter(node.left, view);
    PrefetchFilter(node.right, view);
  }

  /// Convenience: a fresh empty query filter compatible with this tree.
  BloomFilter MakeQueryFilter() const { return BloomFilter(family_); }
  /// Convenience: a query filter holding `keys`.
  BloomFilter MakeQueryFilter(const std::vector<uint64_t>& keys) const;

  /// Total bit-payload memory of all node filters, in bytes (the metric of
  /// Tables 2/3 and Figure 14).
  size_t MemoryBytes() const;

  /// Payload bytes of the filter arena, including reserved-but-unused
  /// growth headroom (MemoryBytes() counts only live node payloads).
  size_t ArenaMemoryBytes() const { return arena_.MemoryBytes(); }
  /// True when every node filter sits in one contiguous slab (bulk-built
  /// trees; dynamic inserts may append further chunks).
  bool ArenaContiguous() const { return arena_.contiguous(); }

  /// Physical block layout of this tree's node filters. Builders always
  /// produce kIdOrder; the snapshot loaders materialize whatever layout
  /// the file was saved with. Pure storage placement — logical ids,
  /// traversal order, and every query result are layout-independent.
  NodeLayout node_layout() const { return node_layout_; }

  /// Computes the kDescent id→block permutation for this tree's current
  /// structure: block_of[id] is the slab block node `id`'s filter occupies.
  /// Top kDescentBfsLevels levels in BFS order at the front, then each
  /// subtree below in recursive van-Emde-Boas order (left to right).
  /// Deterministic — a pure function of the tree shape. Used by the v2
  /// snapshot writer; returned by value so callers (benches, tests) can
  /// inspect it.
  std::vector<uint32_t> ComputeDescentOrder() const;

 private:
  friend class TreeSerializer;  // persistence (see core/tree_io.h)

  /// Prefetch depth caps: 8 leading cache lines of a dense operand, 32
  /// gathered words of a sparse one — enough to hide the first misses
  /// without flooding the load queue (past that, the kernels' own streaming
  /// loads / 8-wide gathers supply the memory-level parallelism).
  static constexpr size_t kPrefetchDenseLines = 8;
  static constexpr size_t kPrefetchSparseWords = 32;

  /// Levels of the tree grouped in BFS order at the front of the kDescent
  /// layout: 4 levels = 15 blocks, the prefix every single descent walks.
  static constexpr uint32_t kDescentBfsLevels = 4;

  /// Recursive van-Emde-Boas assignment over the subtree at `root`,
  /// restricted to its first `levels` levels; blocks number from *next.
  void AssignVebBlocks(int64_t root, uint32_t levels, uint32_t* next,
                       std::vector<uint32_t>* block_of) const;

  /// Appends (in left-to-right order) the existing descendants exactly
  /// `levels_below` levels under `root`.
  void CollectDescendantsAt(int64_t root, uint32_t levels_below,
                            std::vector<int64_t>* out) const;

  BloomSampleTree(TreeConfig config, std::shared_ptr<const HashFamily> family,
                  bool pruned)
      : config_(config), family_(std::move(family)), pruned_(pruned) {
    arena_.Configure((config_.m + 63) / 64, 0);
  }

  /// Width of an (unclipped) range at `level`.
  uint64_t RangeWidthAtLevel(uint32_t level) const {
    return config_.LeafRangeSize() << (config_.depth - level);
  }

  /// A leaf's slice of the sorted occupied_ array, recorded during the
  /// structure pass of BuildPruned and filled (possibly in parallel)
  /// afterwards.
  struct LeafFill {
    int64_t id;
    size_t begin;
    size_t end;
  };

  /// Recursive pruned construction over occupied_[begin, end). Builds the
  /// node *structure* only — filters stay empty; each leaf's occupied
  /// slice is appended to *leaf_fills for the subsequent fill pass.
  int64_t BuildPrunedSubtree(uint32_t level, uint64_t lo, uint64_t hi,
                             size_t begin, size_t end,
                             std::vector<LeafFill>* leaf_fills);

  /// The occupied_ index where a node's range splits between its children
  /// — the one piece of shape logic CountPrunedNodes and BuildPrunedSubtree
  /// must share so the counting pre-pass stays in lockstep with the build
  /// (BuildPruned checks the two agree after the structure pass).
  uint64_t PrunedSplitPoint(uint32_t level, uint64_t lo, size_t begin,
                            size_t end) const;

  /// Counts the nodes BuildPrunedSubtree would create over
  /// occupied_[begin, end), so the arena can reserve exactly once.
  uint64_t CountPrunedNodes(uint32_t level, uint64_t lo, uint64_t hi,
                            size_t begin, size_t end) const;

  TreeConfig config_;
  std::shared_ptr<const HashFamily> family_;
  bool pruned_;
  /// Backing store for every node filter's bit payload; declared before
  /// nodes_ so the spans' storage is constructed first. Blocks are
  /// address-stable, so moving the tree keeps the spans valid (the tree is
  /// move-only — the arena cannot be copied).
  FilterArena arena_;
  std::vector<Node> nodes_;
  std::vector<uint64_t> occupied_;
  /// Physical placement of the filter blocks (see node_layout()). Set by
  /// the snapshot loaders; freshly built trees are id-ordered.
  NodeLayout node_layout_ = NodeLayout::kIdOrder;
  /// The counting-bloom leaf backend (EnableCountingLeaves): node id of a
  /// leaf → its maintenance counters. Node ids are stable (nodes are never
  /// erased), so the map survives Insert's node creation.
  std::unordered_map<int64_t, CountingBloomFilter> leaf_counters_;
  bool counting_leaves_ = false;

  /// Rewrites leaf `leaf_id`'s bit filter as the positive-counter pattern
  /// of its counting backend (bit i set ⟺ counter i > 0).
  void RebuildLeafFromCounters(int64_t leaf_id);

  /// The h_0 index is dropped (and rebuilt by the next exact query) once
  /// the ids inserted plus removed since its build pass 1/16 of the ids it
  /// holds: the insert log every cold query tests then stays under ~6% of
  /// n, and a rebuild's O(n) hashing is amortized over n/16 mutations.
  static constexpr uint64_t kExactIndexRebuildDivisor = 16;

  /// The h_0 index: a CSR over the occupied ids at build time, bucketed
  /// by h_0(x) — ids[offsets[b], offsets[b+1]) are the ids hashing to bit
  /// b, ascending — plus the ids inserted since (`pending`, append order)
  /// and a count of removals since. Empty until the first exact query;
  /// `built` flips under `mu` and is read with acquire, so concurrent
  /// readers share one build. Insert/Remove (never concurrent with
  /// queries) append to it or drop it. Heap-held so the tree stays
  /// movable.
  struct ExactIndex {
    std::mutex mu;
    std::atomic<bool> built{false};
    uint64_t generation = 0;  ///< builds so far; 0 = never built
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> ids;
    std::vector<uint32_t> pending;
    uint64_t removals = 0;
  };
  std::unique_ptr<ExactIndex> exact_index_ = std::make_unique<ExactIndex>();

  /// Builds the index if no build is live (two passes over occupied_:
  /// count per bucket, then place — peak memory is the final size).
  void EnsureExactIndex() const;
  /// Insert/Remove hook: on a built index, logs an inserted x as pending
  /// or counts a removal, then drops the index past the rebuild point.
  void NoteExactIndexMutation(bool inserted, uint64_t x);
};

}  // namespace bloomsample

#endif  // BLOOMSAMPLE_CORE_BLOOM_SAMPLE_TREE_H_
