// Microbenchmark for crash-safe ingest: what does durability cost per
// insert? Every durable insert goes through IngestPipeline
// (core/ingest_pipeline.h), which appends to the sidecar write-ahead log
// (core/wal.h) and fences it per the WalSyncPolicy before the tree
// mutates — the whole acknowledged-equals-durable spectrum:
//
//   * no-wal    — in-memory BloomSampleTree::Insert only, nothing logged
//                 (the upper bound; a crash loses everything since the
//                 last snapshot)
//   * none      — log appends ride the page cache, never fsynced by the
//                 writer (a crash loses the unsynced suffix)
//   * interval  — fsync every 64 records (bounded loss window)
//   * every     — fsync per commit: a mutation is acknowledged only after
//                 its record is on stable storage (the paper-grade
//                 guarantee; the fsync dominates, so this is really a disk
//                 benchmark)
//
// Output: a JSON array on stdout. Every row carries the host's core count
// ("nproc") and active SIMD tier ("simd"). One row per (policy, variant):
//   {"bench": "micro_ingest", "variant": "ingest", "policy": "no-wal",
//    "inserts": <K>, "ms": <double>, "inserts_per_sec": <double>, ...}
//   {"bench": "micro_ingest", "variant": "queue", "policy": "...",
//    "inserts": <K>, "ms": <double>, "inserts_per_sec": <double>,
//    "commit_groups": <g>, "fsyncs": <f>, ...}
//   {"bench": "micro_ingest", "variant": "reopen", "policy": "...",
//    "replayed": <K>, "open_ms": <double>, ...}
//
// The "queue" variant is what `bsr insert` runs: one producer Pushes every
// id onto the pipeline's bounded queue, then Flushes once; its writer
// thread commits each drained batch as one group. The timing covers the
// pushes, the Flush and the pipeline's Close. The "reopen" variant times
// LoadTreeFromFile on the artifact the ingest left behind — for WAL
// policies that includes replaying all K records, i.e. the crash-recovery
// cost the log defers to the next open.
//
// A second section benchmarks CONCURRENT synchronous ingest: T writer
// threads call IngestPipeline::Insert, which logs through leader–follower
// group commit — concurrent committers share one fsync. Rows:
//   {"bench": "micro_ingest", "variant": "concurrent", "policy": "...",
//    "threads": T, "readers": R, "inserts": <K>, "ms": <double>,
//    "inserts_per_sec": <double>, "commit_groups": <g>, "fsyncs": <f>}
// Under "every", inserts_per_sec should grow with T while fsyncs stays
// well below inserts — that gap IS group commit. The readers>0 rows add
// sampler threads hammering AcquireRead to show ingest under query load.
//
// BSR_BENCH_ROUNDS sets the insert count; BSR_BENCH_FULL=1 raises the
// default. The quick default finishes in seconds (fsync-per-commit is the
// slow leg by design).
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/bst_sampler.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/query_context.h"
#include "src/core/tree_io.h"
#include "src/core/wal.h"
#include "src/util/simd.h"
#include "src/util/timer.h"

namespace {

using namespace bloomsample;

struct PolicySpec {
  const char* name;
  bool use_wal;
  WalSyncPolicy policy;
};

}  // namespace

int main() {
  using bloomsample::bench::Env;
  const Env env = Env::FromEnv();

  const uint64_t namespace_size = 1000000;
  const uint64_t inserts = env.Rounds(/*quick_default=*/1000,
                                      /*full_default=*/10000);
  const unsigned nproc = std::thread::hardware_concurrency();
  const char* simd_tier = simd::LevelName(simd::ActiveLevel());

  TreeConfig config;
  config.namespace_size = namespace_size;
  config.m = 1000000;
  config.k = 3;
  config.hash_kind = HashFamilyKind::kSimple;
  config.seed = env.seed;
  config.depth = 6;

  // Base set: every 100th id. Ingested ids sit at offset 1 of each
  // stride, so they are fresh (never already-present fast-path hits).
  std::vector<uint64_t> base;
  for (uint64_t x = 0; x < namespace_size; x += 100) base.push_back(x);
  std::vector<uint64_t> fresh;
  for (uint64_t i = 0; i < inserts; ++i) {
    fresh.push_back((1 + 100 * i) % namespace_size);
  }

  auto built = BloomSampleTree::BuildPruned(config, base);
  BSR_CHECK(built.ok(), "micro_ingest: BuildPruned failed");
  const BloomSampleTree& reference = built.value();

  const std::vector<PolicySpec> specs = {
      {"no-wal", false, WalSyncPolicy::kNone},
      {"none", true, WalSyncPolicy::kNone},
      {"interval", true, WalSyncPolicy::kInterval},
      {"every", true, WalSyncPolicy::kEveryRecord},
  };

  std::printf("[\n");
  bool first = true;
  for (const PolicySpec& spec : specs) {
    const std::string path =
        std::string("/tmp/bsr_micro_ingest_") + spec.name + ".bst";
    std::remove(path.c_str());
    std::remove(WalPathFor(path).c_str());
    std::remove(OldWalPathFor(path).c_str());
    BSR_CHECK(SaveTreeToFile(reference, path).ok(), "micro_ingest: save");

    LoadOptions heap;
    heap.mode = LoadMode::kHeap;
    auto loaded = LoadTreeFromFile(path, heap);
    BSR_CHECK(loaded.ok(), "micro_ingest: load");
    auto tree =
        std::make_shared<BloomSampleTree>(std::move(loaded).value());

    if (!spec.use_wal) {
      Timer timer;
      for (uint64_t id : fresh) {
        BSR_CHECK(tree->Insert(id).ok(), "micro_ingest: insert");
      }
      const double ingest_ms = timer.ElapsedMillis();
      std::printf("%s  {\"bench\": \"micro_ingest\", \"variant\": "
                  "\"ingest\", \"policy\": \"%s\", \"inserts\": %" PRIu64
                  ", \"ms\": %.3f, \"inserts_per_sec\": %.0f, \"m\": %" PRIu64
                  ", \"namespace\": %" PRIu64
                  ", \"nproc\": %u, \"simd\": \"%s\"}",
                  first ? "" : ",\n", spec.name, inserts, ingest_ms,
                  static_cast<double>(inserts) / (ingest_ms / 1e3), config.m,
                  namespace_size, nproc, simd_tier);
    } else {
      IngestPipelineOptions options;
      options.wal.policy = spec.policy;
      auto opened = IngestPipeline::OpenTree(tree, path, options);
      BSR_CHECK(opened.ok(), "micro_ingest: pipeline open");
      std::unique_ptr<IngestPipeline> pipeline = std::move(opened).value();
      Timer timer;
      for (uint64_t id : fresh) {
        WalMutation mut;
        mut.id = id;
        BSR_CHECK(pipeline->Push(mut).ok(), "micro_ingest: push");
      }
      BSR_CHECK(pipeline->Flush().ok(), "micro_ingest: flush");
      BSR_CHECK(pipeline->Close().ok(), "micro_ingest: pipeline close");
      const double ingest_ms = timer.ElapsedMillis();
      const IngestPipelineStats stats = pipeline->Stats();
      std::printf("%s  {\"bench\": \"micro_ingest\", \"variant\": "
                  "\"queue\", \"policy\": \"%s\", \"inserts\": %" PRIu64
                  ", \"ms\": %.3f, \"inserts_per_sec\": %.0f, "
                  "\"commit_groups\": %" PRIu64 ", \"fsyncs\": %" PRIu64
                  ", \"m\": %" PRIu64 ", \"namespace\": %" PRIu64
                  ", \"nproc\": %u, \"simd\": \"%s\"}",
                  first ? "" : ",\n", spec.name, inserts, ingest_ms,
                  static_cast<double>(inserts) / (ingest_ms / 1e3),
                  stats.commit_groups, stats.fsyncs, config.m,
                  namespace_size, nproc, simd_tier);
    }
    first = false;

    // Reopen cost: for WAL policies this replays every record — the
    // recovery work the log pushes to the next open.
    Timer open_timer;
    TreeLoadInfo info;
    auto reopened = LoadTreeFromFile(path, heap, &info);
    const double open_ms = open_timer.ElapsedMillis();
    BSR_CHECK(reopened.ok(), "micro_ingest: reopen");
    BSR_CHECK(reopened.value().occupied().size() ==
                  base.size() + (spec.use_wal ? inserts : 0),
              "micro_ingest: reopen lost records");
    std::printf(",\n  {\"bench\": \"micro_ingest\", \"variant\": \"reopen\", "
                "\"policy\": \"%s\", \"replayed\": %" PRIu64
                ", \"open_ms\": %.3f, \"m\": %" PRIu64
                ", \"namespace\": %" PRIu64 ", \"nproc\": %u, \"simd\": \"%s\"}",
                spec.name, info.wal_records_replayed, open_ms, config.m,
                namespace_size, nproc, simd_tier);

    std::remove(path.c_str());
    std::remove(WalPathFor(path).c_str());
  }

  // ---- concurrent ingest through the pipeline (group commit) ----------
  struct ConcurrentSpec {
    const char* policy_name;
    WalSyncPolicy policy;
    int threads;
    int readers;
  };
  const std::vector<ConcurrentSpec> concurrent = {
      {"every", WalSyncPolicy::kEveryRecord, 1, 0},
      {"every", WalSyncPolicy::kEveryRecord, 2, 0},
      {"every", WalSyncPolicy::kEveryRecord, 4, 0},
      {"every", WalSyncPolicy::kEveryRecord, 8, 0},
      {"every", WalSyncPolicy::kEveryRecord, 4, 2},
      {"interval", WalSyncPolicy::kInterval, 4, 0},
      {"none", WalSyncPolicy::kNone, 4, 0},
  };
  for (const ConcurrentSpec& spec : concurrent) {
    const std::string path = std::string("/tmp/bsr_micro_ingest_mt_") +
                             spec.policy_name + "_t" +
                             std::to_string(spec.threads) + "_r" +
                             std::to_string(spec.readers) + ".bst";
    std::remove(path.c_str());
    std::remove(WalPathFor(path).c_str());
    std::remove(OldWalPathFor(path).c_str());
    BSR_CHECK(SaveTreeToFile(reference, path).ok(), "micro_ingest: save");

    LoadOptions heap;
    heap.mode = LoadMode::kHeap;
    auto loaded = LoadTreeFromFile(path, heap);
    BSR_CHECK(loaded.ok(), "micro_ingest: load");
    auto tree =
        std::make_shared<BloomSampleTree>(std::move(loaded).value());

    IngestPipelineOptions options;
    options.wal.policy = spec.policy;
    auto opened = IngestPipeline::OpenTree(tree, path, options);
    BSR_CHECK(opened.ok(), "micro_ingest: pipeline open");
    std::unique_ptr<IngestPipeline> pipeline = std::move(opened).value();

    std::atomic<bool> stop{false};
    std::vector<std::thread> reader_threads;
    for (int r = 0; r < spec.readers; ++r) {
      reader_threads.emplace_back([&pipeline, &stop] {
        const std::vector<uint64_t> members = {100, 10000, 200000, 999900};
        while (!stop.load(std::memory_order_relaxed)) {
          auto guard = pipeline->AcquireRead();
          const BloomFilter query = guard.tree().MakeQueryFilter(members);
          QueryContext ctx(guard.tree(), query);
          BstSampler sampler(&guard.tree());
          (void)sampler.SampleBatch(&ctx, 8, /*seed=*/7);
        }
      });
    }

    const uint64_t per_thread = inserts / spec.threads;
    const uint64_t total = per_thread * spec.threads;
    Timer timer;
    std::vector<std::thread> writers;
    for (int t = 0; t < spec.threads; ++t) {
      writers.emplace_back([&pipeline, &fresh, per_thread, t] {
        for (uint64_t i = 0; i < per_thread; ++i) {
          const uint64_t id = fresh[t * per_thread + i];
          BSR_CHECK(pipeline->Insert(id).ok(), "micro_ingest: mt insert");
        }
      });
    }
    for (auto& w : writers) w.join();
    const double ingest_ms = timer.ElapsedMillis();
    stop.store(true);
    for (auto& r : reader_threads) r.join();

    const IngestPipelineStats stats = pipeline->Stats();
    BSR_CHECK(pipeline->Close().ok(), "micro_ingest: pipeline close");

    TreeLoadInfo info;
    auto reopened = LoadTreeFromFile(path, heap, &info);
    BSR_CHECK(reopened.ok(), "micro_ingest: mt reopen");
    BSR_CHECK(reopened.value().occupied().size() == base.size() + total,
              "micro_ingest: mt reopen lost records");

    std::printf(",\n  {\"bench\": \"micro_ingest\", \"variant\": "
                "\"concurrent\", \"policy\": \"%s\", \"threads\": %d, "
                "\"readers\": %d, \"inserts\": %" PRIu64
                ", \"ms\": %.3f, \"inserts_per_sec\": %.0f, "
                "\"commit_groups\": %" PRIu64 ", \"fsyncs\": %" PRIu64
                ", \"nproc\": %u, \"simd\": \"%s\"}",
                spec.policy_name, spec.threads, spec.readers, total,
                ingest_ms,
                static_cast<double>(total) / (ingest_ms / 1e3),
                stats.commit_groups, stats.fsyncs, nproc, simd_tier);

    std::remove(path.c_str());
    std::remove(WalPathFor(path).c_str());
  }
  std::printf("\n]\n");
  return 0;
}
