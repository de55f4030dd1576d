// Microbenchmark for the query hot path, emitting machine-readable JSON so
// BENCH_*.json trajectory tracking can diff runs across PRs.
//
// Output: a JSON array on stdout; one record per configuration:
//   {"bench": "micro_query",
//    "variant": "sample" | "sample_warm" | "batch" | "reconstruct" |
//               "reconstruct_warm",
//    "kernel": "dense" | "sparse", "m": <filter bits>, "namespace": <M>,
//    "threads": <n>, "batch_size": <draws per engine call>,
//    "ns_per_sample" | "ns_per_element": <double>,
//    "dense_intersections": <n>, "sparse_intersections": <n>,
//    "estimate_cache_hits": <n>, ...}
//
// Variants:
//   * sample — the serial baseline: BstSampler::Sample through a
//     NON-caching QueryContext pinned to the dense or the sparse kernel,
//     so every draw re-pays its full descent (the historical cost and the
//     denominator of the batch speedup). The "identical" field records
//     that both kernels drew the same sample sequence.
//   * sample_warm — the same serial draw loop on one caching context:
//     the first descent fills the EstimateCache/leaf cache, every later
//     draw is O(depth) on cached weights. Kernel intersections collapse
//     to the unique nodes touched; the rest surface as cache hits.
//   * batch — SampleBatch: all draws in one level-synchronous descent on
//     counter-based per-draw RNG streams, at query_threads 1 and hardware
//     concurrency. "identical" records that the batch equals the serial
//     per-stream reference draw for draw.
//   * reconstruct — BstReconstructor::Reconstruct (kExact), cold: a fresh
//     context per repetition, at query_threads 1 and hardware concurrency.
//     "identical" records output equality across thread counts and with
//     the serial dense-kernel run.
//   * reconstruct_warm — repeated Reconstruct on one caching context:
//     after the first call every node test and leaf scan is a cache hit.
//   * reconstruct_pruned — kExact on a PRUNED tree, which runs through
//     the h_0 index: the paper's serving configuration
//     (MakeConfigForAccuracy(0.9, n = 1000, k = 3)) at M = 1e6 and 1e7
//     with 10% of the namespace occupied, and 1000-id queries drawn from
//     the occupied ids (uniform, or clustered inside a window of 10% of
//     them). Reports the index build and its size, the cold pass (fresh
//     context, index built), the warm pass (the context's cached answer),
//     membership queries per cold pass, the traversal the index replaces
//     (kThresholded at threshold 0 — the same output — serial and at
//     hardware concurrency), and one_shot_us: the index build plus the
//     cold pass — what a one-shot `bsr reconstruct --exact` pays. The
//     build is the tree's first exact query minus the uniform row's cold
//     pass.
//
// BSR_BENCH_FULL=1 raises the round counts; the quick default finishes in
// well under a minute.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/bst_reconstructor.h"
#include "src/core/bst_sampler.h"
#include "src/core/query_context.h"
#include "src/util/simd.h"
#include "src/util/timer.h"
#include "src/workload/set_generators.h"

namespace {

using namespace bloomsample;

constexpr int kReps = 3;

struct SampleResult {
  double ns_per_sample = 0.0;
  std::vector<uint64_t> draws;  // for the cross-kernel identity check
  OpCounters counters;
};

SampleResult TimeSampling(const BloomSampleTree& tree,
                          const BloomFilter& query, IntersectKernel kernel,
                          uint64_t rounds, uint64_t seed, bool cache) {
  const BstSampler sampler(&tree);
  SampleResult result;
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    QueryContext ctx(tree, query, kernel, cache);
    Rng rng(seed);  // same seed every rep/kernel: identical descents
    std::vector<uint64_t> draws;
    draws.reserve(rounds);
    OpCounters counters;
    Timer timer;
    for (uint64_t i = 0; i < rounds; ++i) {
      const auto sample = sampler.Sample(&ctx, &rng, &counters);
      draws.push_back(sample.has_value() ? *sample : ~0ULL);
    }
    const double seconds = timer.ElapsedSeconds();
    if (seconds < best) {
      best = seconds;
      result.draws = std::move(draws);
      result.counters = counters;
    }
  }
  result.ns_per_sample = best * 1e9 / static_cast<double>(rounds);
  return result;
}

struct BatchResult {
  double ns_per_sample = 0.0;
  std::vector<std::optional<uint64_t>> draws;
  OpCounters counters;
};

BatchResult TimeBatch(BloomSampleTree& tree, const BloomFilter& query,
                      uint64_t rounds, uint64_t seed, uint32_t threads) {
  tree.set_query_threads(threads);
  const BstSampler sampler(&tree);
  BatchResult result;
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    QueryContext ctx(tree, query, IntersectKernel::kSparse);  // cold per rep
    OpCounters counters;
    Timer timer;
    auto draws = sampler.SampleBatch(&ctx, rounds, seed, &counters);
    const double seconds = timer.ElapsedSeconds();
    if (seconds < best) {
      best = seconds;
      result.draws = std::move(draws);
      result.counters = counters;
    }
  }
  result.ns_per_sample = best * 1e9 / static_cast<double>(rounds);
  return result;
}

struct ReconResult {
  double ns_per_element = 0.0;
  size_t elements = 0;
  std::vector<uint64_t> output;
  OpCounters counters;
};

ReconResult TimeReconstruction(BloomSampleTree& tree,
                               const BloomFilter& query,
                               IntersectKernel kernel, uint32_t threads,
                               bool warm) {
  tree.set_query_threads(threads);
  const BstReconstructor reconstructor(&tree);
  // Warm rows reuse one context (the amortized serving regime: call 1
  // fills the caches, later calls are all hits); cold rows rebuild it per
  // repetition so every rep pays the full per-query cost.
  QueryContext shared_ctx(tree, query, kernel);
  if (warm) {
    (void)reconstructor.Reconstruct(shared_ctx, nullptr,
                                    BstReconstructor::PruningMode::kExact);
  }
  ReconResult result;
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    OpCounters counters;
    Timer timer;
    std::vector<uint64_t> output;
    if (warm) {
      output = reconstructor.Reconstruct(
          shared_ctx, &counters, BstReconstructor::PruningMode::kExact);
    } else {
      QueryContext ctx(tree, query, kernel);
      output = reconstructor.Reconstruct(
          ctx, &counters, BstReconstructor::PruningMode::kExact);
    }
    const double seconds = timer.ElapsedSeconds();
    if (seconds < best) {
      best = seconds;
      result.output = std::move(output);
      result.counters = counters;
    }
  }
  result.elements = result.output.size();
  result.ns_per_element =
      best * 1e9 /
      static_cast<double>(result.elements == 0 ? 1 : result.elements);
  return result;
}

unsigned Nproc() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median µs of one traversal-path exact reconstruct (kThresholded at
/// threshold 0 prunes only on fewer than k shared bits — kExact's test —
/// so its output equals the index path's) on a fresh context per rep.
double TimeTraversalUs(BloomSampleTree& tree, const BloomFilter& query,
                       uint32_t threads, int reps,
                       std::vector<uint64_t>* output) {
  tree.set_query_threads(threads);
  const BstReconstructor reconstructor(&tree);
  std::vector<double> us;
  for (int rep = 0; rep < reps; ++rep) {
    QueryContext ctx(tree, query);
    Timer timer;
    *output = reconstructor.Reconstruct(
        ctx, nullptr, BstReconstructor::PruningMode::kThresholded);
    us.push_back(timer.ElapsedSeconds() * 1e6);
  }
  return MedianOf(us);
}

/// The reconstruct_pruned rows for one namespace size (see the header).
void RunPrunedExact(const bloomsample::bench::Env& env,
                    uint64_t namespace_size, uint32_t parallel_threads) {
  auto config = MakeConfigForAccuracy(0.9, /*n=*/1000, /*k=*/3,
                                      namespace_size, HashFamilyKind::kSimple,
                                      env.seed);
  BSR_CHECK(config.ok(), "micro_query: paper config failed");
  Rng rng(env.seed ^ namespace_size);
  const std::vector<uint64_t> occupied =
      GenerateUniformSet(namespace_size, namespace_size / 10, &rng).value();
  auto built = BloomSampleTree::BuildPruned(config.value(), occupied);
  BSR_CHECK(built.ok(), "micro_query: BuildPruned failed");
  BloomSampleTree tree = std::move(built).value();
  tree.set_intersection_threshold(0.0);

  const uint64_t window = occupied.size() / 10;
  const uint64_t start = rng.Below(occupied.size() - window);
  const std::vector<uint64_t> uniform_idx =
      GenerateUniformSet(occupied.size(), 1000, &rng).value();
  const std::vector<uint64_t> clustered_idx =
      GenerateClusteredSet(window, 1000, &rng).value();
  std::vector<uint64_t> uniform_set;
  std::vector<uint64_t> clustered_set;
  for (uint64_t i : uniform_idx) uniform_set.push_back(occupied[i]);
  for (uint64_t i : clustered_idx) {
    clustered_set.push_back(occupied[start + i]);
  }

  const int reps = static_cast<int>(env.Rounds(/*quick=*/15, /*full=*/101));
  const BstReconstructor reconstructor(&tree);
  bool first_query = true;
  double build_ms = 0.0;
  for (const bool clustered : {false, true}) {
    const BloomFilter query =
        tree.MakeQueryFilter(clustered ? clustered_set : uniform_set);
    std::vector<uint64_t> serial;
    std::vector<uint64_t> parallel;
    const double serial_us = TimeTraversalUs(tree, query, 1, reps, &serial);
    const double parallel_us =
        TimeTraversalUs(tree, query, parallel_threads, reps, &parallel);

    // The first exact query on the tree builds its index.
    double first_us = 0.0;
    if (first_query) {
      Timer timer;
      (void)reconstructor.Reconstruct(query, nullptr,
                                      BstReconstructor::PruningMode::kExact);
      first_us = timer.ElapsedSeconds() * 1e6;
    }
    std::vector<double> cold;
    std::vector<double> warm;
    OpCounters cold_counters;
    std::vector<uint64_t> output;
    bool identical = true;
    for (int rep = 0; rep < reps; ++rep) {
      QueryContext ctx(tree, query);
      OpCounters counters;
      Timer timer;
      output = reconstructor.Reconstruct(
          ctx, &counters, BstReconstructor::PruningMode::kExact);
      cold.push_back(timer.ElapsedSeconds() * 1e6);
      cold_counters = counters;
      Timer warm_timer;
      identical &= reconstructor.Reconstruct(
                       ctx, nullptr, BstReconstructor::PruningMode::kExact) ==
                   output;
      warm.push_back(warm_timer.ElapsedSeconds() * 1e6);
    }
    const double cold_us = MedianOf(cold);
    if (first_query) build_ms = (first_us - cold_us) / 1e3;
    first_query = false;
    identical &= output == serial && output == parallel;

    std::printf(
        ",\n  {\"bench\": \"micro_query\", \"variant\": "
        "\"reconstruct_pruned\", \"query\": \"%s\", \"nproc\": %u, "
        "\"simd\": \"%s\", \"m\": %" PRIu64 ", \"namespace\": %" PRIu64
        ", \"occupied\": %zu, \"depth\": %u, \"elements\": %zu"
        ", \"index_build_ms\": %.2f, \"index_mb\": %.3f"
        ", \"cold_us\": %.1f, \"warm_us\": %.1f"
        ", \"one_shot_us\": %.1f, \"membership_per_req\": %" PRIu64
        ", \"traversal_us\": %.1f, \"traversal_threads\": %u"
        ", \"traversal_parallel_us\": %.1f, \"identical\": %s}",
        clustered ? "clustered" : "uniform", Nproc(),
        simd::LevelName(simd::ActiveLevel()), tree.config().m,
        namespace_size, occupied.size(), tree.config().depth, output.size(),
        build_ms, tree.exact_index_stats().bytes / 1048576.0, cold_us,
        MedianOf(warm), build_ms * 1e3 + cold_us,
        cold_counters.membership_queries, serial_us, parallel_threads,
        parallel_us, identical ? "true" : "false");
  }
}

void PrintSampleRecord(bool first, const char* variant, const char* kernel,
                       uint64_t m, uint64_t namespace_size, uint64_t threads,
                       uint64_t rounds, uint64_t batch_size, double ns,
                       const OpCounters& counters, bool identical) {
  std::printf(
      "%s  {\"bench\": \"micro_query\", \"variant\": \"%s\", "
      "\"kernel\": \"%s\", \"nproc\": %u, \"simd\": \"%s\", "
      "\"m\": %" PRIu64
      ", \"namespace\": %" PRIu64 ", \"threads\": %" PRIu64
      ", \"rounds\": %" PRIu64 ", \"batch_size\": %" PRIu64
      ", \"ns_per_sample\": %.1f, \"dense_intersections\": %" PRIu64
      ", \"sparse_intersections\": %" PRIu64
      ", \"intersection_bytes\": %" PRIu64
      ", \"estimate_cache_hits\": %" PRIu64 ", \"identical\": %s}",
      first ? "" : ",\n", variant, kernel, Nproc(),
      simd::LevelName(simd::ActiveLevel()), m, namespace_size, threads,
      rounds, batch_size, ns, counters.dense_intersections,
      counters.sparse_intersections, counters.intersection_bytes,
      counters.estimate_cache_hits, identical ? "true" : "false");
}

void PrintReconRecord(const char* variant, const char* kernel, uint64_t m,
                      uint64_t namespace_size, uint64_t threads,
                      const ReconResult& r, bool identical) {
  std::printf(
      ",\n  {\"bench\": \"micro_query\", \"variant\": \"%s\", "
      "\"kernel\": \"%s\", \"nproc\": %u, \"simd\": \"%s\", "
      "\"m\": %" PRIu64
      ", \"namespace\": %" PRIu64 ", \"threads\": %" PRIu64
      ", \"batch_size\": 1, \"elements\": %zu"
      ", \"ns_per_element\": %.1f, \"dense_intersections\": %" PRIu64
      ", \"sparse_intersections\": %" PRIu64
      ", \"intersection_bytes\": %" PRIu64
      ", \"estimate_cache_hits\": %" PRIu64 ", \"identical\": %s}",
      variant, kernel, Nproc(), simd::LevelName(simd::ActiveLevel()), m,
      namespace_size, threads, r.elements, r.ns_per_element,
      r.counters.dense_intersections, r.counters.sparse_intersections,
      r.counters.intersection_bytes, r.counters.estimate_cache_hits,
      identical ? "true" : "false");
}

}  // namespace

int main() {
  using bloomsample::bench::Env;
  const Env env = Env::FromEnv();

  const uint64_t hw = Nproc();
  // On a single-core box still drive the parallel paths with 2 lanes: the
  // point of the N-thread rows is the fan-out path (and its
  // output-identity check), not just the speedup. min_parallel_work stays
  // at its default, so these rows also record what the workload gate
  // actually decides on this host.
  const uint64_t parallel_threads = hw > 1 ? hw : 2;

  // The paper's sparse-query regime: a 1000-element query filter against
  // trees with m = 1e6 and m = 1e7 bit filters (the query's ~3k nonzero
  // words fill <2% of the 1e7-bit filters' words).
  const uint64_t namespace_size = 1000000;
  const uint64_t query_size = 1000;
  const uint64_t sample_rounds = env.Rounds(/*quick=*/1000, /*full=*/10000);

  std::printf("[\n");
  bool first = true;
  for (uint64_t m : std::vector<uint64_t>{1000000, 10000000}) {
    TreeConfig config;
    config.namespace_size = namespace_size;
    config.m = m;
    config.k = 3;
    config.hash_kind = HashFamilyKind::kSimple;
    config.seed = env.seed;
    config.depth = 6;  // 127 nodes: 1.25 MB/filter at m=1e7 stays in RAM

    auto tree_result = BloomSampleTree::BuildComplete(config);
    BSR_CHECK(tree_result.ok(), "micro_query: BuildComplete failed");
    BloomSampleTree tree = std::move(tree_result).value();

    Rng rng(env.seed ^ m);
    const std::vector<uint64_t> members = bloomsample::bench::MakeQuerySet(
        namespace_size, query_size, /*clustered=*/false, &rng);
    const BloomFilter query = tree.MakeQueryFilter(members);

    // --- serial sampling: uncached baseline (dense vs sparse kernel) ---
    const SampleResult dense =
        TimeSampling(tree, query, IntersectKernel::kDense, sample_rounds,
                     env.seed, /*cache=*/false);
    const SampleResult sparse =
        TimeSampling(tree, query, IntersectKernel::kSparse, sample_rounds,
                     env.seed, /*cache=*/false);
    const bool sample_identical = dense.draws == sparse.draws;
    PrintSampleRecord(first, "sample", "dense", m, namespace_size, 1,
                      sample_rounds, 1, dense.ns_per_sample, dense.counters,
                      sample_identical);
    first = false;
    PrintSampleRecord(false, "sample", "sparse", m, namespace_size, 1,
                      sample_rounds, 1, sparse.ns_per_sample, sparse.counters,
                      sample_identical);

    // --- serial sampling on a warm (caching) context ---
    const SampleResult warm =
        TimeSampling(tree, query, IntersectKernel::kSparse, sample_rounds,
                     env.seed, /*cache=*/true);
    PrintSampleRecord(false, "sample_warm", "sparse", m, namespace_size, 1,
                      sample_rounds, 1, warm.ns_per_sample, warm.counters,
                      warm.draws == sparse.draws);

    // --- batched multi-draw engine, per-draw RNG streams ---
    // Serial per-stream reference for the identity field.
    const BstSampler sampler(&tree);
    std::vector<std::optional<uint64_t>> stream_reference;
    {
      QueryContext ctx(tree, query, IntersectKernel::kSparse);
      stream_reference.reserve(sample_rounds);
      for (uint64_t i = 0; i < sample_rounds; ++i) {
        Rng draw_rng = Rng::ForStream(env.seed, i);
        stream_reference.push_back(sampler.Sample(&ctx, &draw_rng));
      }
    }
    const BatchResult batch_serial =
        TimeBatch(tree, query, sample_rounds, env.seed, 1);
    const BatchResult batch_parallel = TimeBatch(
        tree, query, sample_rounds, env.seed,
        static_cast<uint32_t>(parallel_threads));
    const bool batch_identical = batch_serial.draws == stream_reference &&
                                 batch_parallel.draws == stream_reference;
    PrintSampleRecord(false, "batch", "sparse", m, namespace_size, 1,
                      sample_rounds, sample_rounds,
                      batch_serial.ns_per_sample, batch_serial.counters,
                      batch_identical);
    PrintSampleRecord(false, "batch", "sparse", m, namespace_size,
                      parallel_threads, sample_rounds, sample_rounds,
                      batch_parallel.ns_per_sample, batch_parallel.counters,
                      batch_identical);

    // --- reconstruction: cold per-query cost, then the warm repeat ---
    const ReconResult recon_dense = TimeReconstruction(
        tree, query, IntersectKernel::kDense, 1, /*warm=*/false);
    const ReconResult recon_serial = TimeReconstruction(
        tree, query, IntersectKernel::kSparse, 1, /*warm=*/false);
    const ReconResult recon_parallel = TimeReconstruction(
        tree, query, IntersectKernel::kSparse,
        static_cast<uint32_t>(parallel_threads), /*warm=*/false);
    const ReconResult recon_warm = TimeReconstruction(
        tree, query, IntersectKernel::kSparse, 1, /*warm=*/true);
    const bool recon_identical = recon_dense.output == recon_serial.output &&
                                 recon_serial.output == recon_parallel.output &&
                                 recon_serial.output == recon_warm.output;
    PrintReconRecord("reconstruct", "dense", m, namespace_size, 1,
                     recon_dense, recon_identical);
    PrintReconRecord("reconstruct", "sparse", m, namespace_size, 1,
                     recon_serial, recon_identical);
    PrintReconRecord("reconstruct", "sparse", m, namespace_size,
                     parallel_threads, recon_parallel, recon_identical);
    PrintReconRecord("reconstruct_warm", "sparse", m, namespace_size, 1,
                     recon_warm, recon_identical);
  }
  for (uint64_t pruned_namespace : {uint64_t{1000000}, uint64_t{10000000}}) {
    RunPrunedExact(env, pruned_namespace,
                   static_cast<uint32_t>(parallel_threads));
  }
  std::printf("\n]\n");
  return 0;
}
