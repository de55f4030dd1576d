// bsr — command-line front end for the bloomsample library.
//
// Covers the full lifecycle a deployment needs without writing C++:
//
//   bsr build        build a BloomSampleTree and save it to disk
//   bsr info         inspect a saved tree
//   bsr make-set     generate a uniform/clustered id set (workload)
//   bsr store-set    encode an id list as a query Bloom filter
//   bsr sample       draw samples from a stored filter via the tree
//   bsr reconstruct  recover the id set from a stored filter
//   bsr query        membership-test single ids against a filter
//   bsr serve        long-lived daemon speaking the bsrd wire protocol
//   bsr client       drive a running daemon (ping/sample/insert/...)
//
// Ids travel as one-decimal-per-line text files; trees and filters use
// the binary formats of core/tree_io.h and bloom/bloom_io.h.
//
// Example session:
//   bsr build --namespace 1000000 --accuracy 0.9 --set-size 1000 \
//             --out tree.bst
//   bsr make-set --namespace 1000000 --size 1000 --seed 7 --out ids.txt
//   bsr store-set --tree tree.bst --ids ids.txt --out set.bf
//   bsr sample --tree tree.bst --filter set.bf --count 10
//   bsr reconstruct --tree tree.bst --filter set.bf --exact --out back.txt
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/baselines/dictionary_attack.h"
#include "src/bloom/bloom_io.h"
#include "src/bloom/bloom_params.h"
#include "src/core/bloom_sample_forest.h"
#include "src/core/bst_reconstructor.h"
#include "src/core/bst_sampler.h"
#include "src/core/ingest_pipeline.h"
#include "src/core/scrubber.h"
#include "src/core/tree_io.h"
#include "src/core/wal.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/util/timer.h"
#include "src/workload/set_generators.h"

namespace bloomsample {
namespace cli {

// ---------------------------------------------------------------------------
// Flag parsing: --name value pairs plus boolean --name switches.
// ---------------------------------------------------------------------------

class Flags {
 public:
  static Result<Flags> Parse(int argc, char** argv, int first,
                             const std::vector<std::string>& value_flags,
                             const std::vector<std::string>& bool_flags) {
    Flags flags;
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        return Status::InvalidArgument("unexpected argument '" + arg + "'");
      }
      arg = arg.substr(2);
      const bool is_bool =
          std::find(bool_flags.begin(), bool_flags.end(), arg) !=
          bool_flags.end();
      const bool is_value =
          std::find(value_flags.begin(), value_flags.end(), arg) !=
          value_flags.end();
      if (is_bool) {
        flags.bools_[arg] = true;
        continue;
      }
      if (!is_value) {
        return Status::InvalidArgument("unknown flag '--" + arg + "'");
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag '--" + arg + "' needs a value");
      }
      flags.values_[arg] = argv[++i];
    }
    return flags;
  }

  std::optional<std::string> Get(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  Result<std::string> Require(const std::string& name) const {
    const auto value = Get(name);
    if (!value.has_value()) {
      return Status::InvalidArgument("missing required flag '--" + name + "'");
    }
    return *value;
  }

  Result<uint64_t> GetU64(const std::string& name, uint64_t fallback) const {
    const auto value = Get(name);
    if (!value.has_value()) return fallback;
    char* end = nullptr;
    const uint64_t parsed = std::strtoull(value->c_str(), &end, 10);
    if (end == value->c_str() || *end != '\0') {
      return Status::InvalidArgument("flag '--" + name +
                                     "' is not an integer: " + *value);
    }
    return parsed;
  }

  Result<uint64_t> RequireU64(const std::string& name) const {
    const Result<std::string> raw = Require(name);
    if (!raw.ok()) return raw.status();
    return GetU64(name, 0);
  }

  Result<double> GetDouble(const std::string& name, double fallback) const {
    const auto value = Get(name);
    if (!value.has_value()) return fallback;
    char* end = nullptr;
    const double parsed = std::strtod(value->c_str(), &end);
    if (end == value->c_str() || *end != '\0') {
      return Status::InvalidArgument("flag '--" + name +
                                     "' is not a number: " + *value);
    }
    return parsed;
  }

  bool GetBool(const std::string& name) const {
    const auto it = bools_.find(name);
    return it != bools_.end() && it->second;
  }

 private:
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> bools_;
};

// ---------------------------------------------------------------------------
// Id-file helpers (one decimal id per line; '#' comments allowed).
// ---------------------------------------------------------------------------

Result<std::vector<uint64_t>> ReadIdFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open id file '" + path + "'");
  }
  std::vector<uint64_t> ids;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    char* end = nullptr;
    const uint64_t id = std::strtoull(line.c_str() + start, &end, 10);
    if (end == line.c_str() + start) {
      return Status::InvalidArgument("bad id at " + path + ":" +
                                     std::to_string(line_number));
    }
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

Status WriteIdFile(const std::string& path, const std::vector<uint64_t>& ids) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::NotFound("cannot open '" + path + "' for writing");
  }
  for (uint64_t id : ids) out << id << "\n";
  return out.good() ? Status::OK() : Status::Internal("write failed");
}

Result<BloomFilter> LoadFilterWith(
    const std::shared_ptr<const HashFamily>& family, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("cannot open filter file '" + path + "'");
  }
  return DeserializeBloomFilter(&in, family);
}

Result<BloomFilter> LoadFilterFor(const BloomSampleTree& tree,
                                  const std::string& path) {
  return LoadFilterWith(tree.family_ptr(), path);
}

// ---------------------------------------------------------------------------
// Exit codes. ONE authority: Main()'s status mapping and the table
// PrintUsage prints both come from here, so scripts and --help can never
// drift apart.
// ---------------------------------------------------------------------------
enum ExitCode : int {
  kExitOk = 0,
  kExitFailed = 1,
  kExitUsage = 2,
  kExitSnapshotMissing = 3,
  kExitSnapshotCorrupt = 4,
  kExitWalRecovered = 5,
  kExitReadOnly = 6,
  kExitQuarantined = 7,
  kExitServerFailure = 8,
};

struct ExitCodeRow {
  ExitCode code;
  const char* meaning;
};

constexpr ExitCodeRow kExitCodeTable[] = {
    {kExitOk, "success"},
    {kExitFailed, "command failed"},
    {kExitUsage, "usage error"},
    {kExitSnapshotMissing, "snapshot file missing"},
    {kExitSnapshotCorrupt, "snapshot file exists but is corrupt/unreadable"},
    {kExitWalRecovered,
     "success, but wal replay amputated a corrupt log tail (records\n"
     "        before the tear were recovered; `bsr compact` folds them in\n"
     "        and clears the log)"},
    {kExitReadOnly,
     "writer latched read-only (an fsync/append failure exhausted the\n"
     "        repair budget; acknowledged records are safe in the log,\n"
     "        reads still serve)"},
    {kExitQuarantined,
     "quarantined (a .quarantine marker is present: scrub found\n"
     "        unrepairable corruption; the image is refused until the file\n"
     "        is restored and the marker cleared)"},
    {kExitServerFailure,
     "server/daemon failure (bsrd could not start, crashed, or a\n"
     "        `bsr client` request failed at the transport or serving\n"
     "        layer)"},
};

int g_snapshot_exit_hint = 0;    // 3 or 4, set by the load helpers
bool g_wal_recovered = false;    // turns a successful run's 0 into 5
bool g_server_failure = false;   // turns a failing run's 1 into 8

void NoteWalReplay(const char* what, uint64_t replayed, bool recovered) {
  std::fprintf(stderr, "# replayed %llu wal records into the %s%s\n",
               static_cast<unsigned long long>(replayed), what,
               recovered ? " (corrupt tail amputated)" : "");
  if (recovered) g_wal_recovered = true;
}

/// Loads a tree honoring --mmap/--heap/--prewarm (else the BSR_LOAD env
/// defaults) and prints the load-time summary line every tree-consuming
/// command shares. `info_out` (optional) receives the load info — insert
/// and compact need its WAL replay count to seed sequence numbers.
Result<BloomSampleTree> LoadTreeForCli(const Flags& flags,
                                       const std::string& path,
                                       TreeLoadInfo* info_out = nullptr) {
  LoadOptions options = LoadOptions::FromEnv();
  if (flags.GetBool("mmap")) options.mode = LoadMode::kMmap;
  if (flags.GetBool("heap")) options.mode = LoadMode::kHeap;
  if (flags.GetBool("prewarm")) options.prewarm = true;
  TreeLoadInfo info;
  Timer timer;
  Result<BloomSampleTree> tree = LoadTreeFromFile(path, options, &info);
  if (tree.ok()) {
    std::fprintf(stderr,
                 "# loaded tree in %.2f ms via %s (v%u, %s layout, "
                 "%.2f MB mapped)\n",
                 timer.ElapsedMillis(), TreeLoadMethodName(info.method),
                 info.version, NodeLayoutName(info.layout),
                 static_cast<double>(info.mapped_bytes) / 1e6);
    if (info.wal_present) {
      NoteWalReplay("tree", info.wal_records_replayed,
                    info.wal_recovered_corruption);
    }
  } else {
    g_snapshot_exit_hint =
        tree.status().code() == Status::Code::kNotFound ? 3 : 4;
  }
  if (info_out != nullptr) *info_out = info;
  return tree;
}

/// Forest twin of LoadTreeForCli: the load-summary line reports every
/// shard's mapping mode, since a single forest open can mix them (e.g.
/// heap fallback on one shard image while the rest mmap).
Result<BloomSampleForest> LoadForestForCli(const Flags& flags,
                                           const std::string& path,
                                           ForestLoadInfo* info_out = nullptr) {
  LoadOptions options = LoadOptions::FromEnv();
  if (flags.GetBool("mmap")) options.mode = LoadMode::kMmap;
  if (flags.GetBool("heap")) options.mode = LoadMode::kHeap;
  if (flags.GetBool("prewarm")) options.prewarm = true;
  ForestLoadInfo info;
  Timer timer;
  Result<BloomSampleForest> forest = LoadForestFromFile(path, options, &info);
  if (forest.ok()) {
    std::string modes;
    uint64_t mapped_bytes = 0;
    uint64_t replayed = 0;
    bool wal_present = false;
    bool recovered = false;
    for (size_t s = 0; s < info.shards.size(); ++s) {
      if (s != 0) modes += ", ";
      modes += TreeLoadMethodName(info.shards[s].method);
      mapped_bytes += info.shards[s].mapped_bytes;
      replayed += info.shards[s].wal_records_replayed;
      wal_present = wal_present || info.shards[s].wal_present;
      recovered = recovered || info.shards[s].wal_recovered_corruption;
    }
    std::fprintf(stderr,
                 "# loaded %u-shard forest in %.2f ms (per-shard mapping: "
                 "%s; %.2f MB mapped)\n",
                 forest.value().shard_count(), timer.ElapsedMillis(),
                 modes.c_str(), static_cast<double>(mapped_bytes) / 1e6);
    if (wal_present) NoteWalReplay("forest shards", replayed, recovered);
  } else {
    g_snapshot_exit_hint =
        forest.status().code() == Status::Code::kNotFound ? 3 : 4;
  }
  if (info_out != nullptr) *info_out = info;
  return forest;
}

/// `--shards` on a forest-consuming command is an assertion, not a
/// request: the snapshot fixes the shard count, so a mismatch is an error.
Status CheckShardFlag(const Flags& flags, uint32_t actual) {
  auto shards = flags.GetU64("shards", 0);
  if (!shards.ok()) return shards.status();
  if (shards.value() != 0 && shards.value() != actual) {
    return Status::InvalidArgument(
        "--shards " + std::to_string(shards.value()) +
        " does not match the snapshot's " + std::to_string(actual) +
        " shards");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Subcommands.
// ---------------------------------------------------------------------------

Status CmdBuild(const Flags& flags) {
  auto namespace_size = flags.RequireU64("namespace");
  if (!namespace_size.ok()) return namespace_size.status();
  auto out_path = flags.Require("out");
  if (!out_path.ok()) return out_path.status();
  auto accuracy = flags.GetDouble("accuracy", 0.9);
  if (!accuracy.ok()) return accuracy.status();
  auto set_size = flags.GetU64("set-size", 1000);
  if (!set_size.ok()) return set_size.status();
  auto k = flags.GetU64("k", 3);
  if (!k.ok()) return k.status();
  auto seed = flags.GetU64("seed", 42);
  if (!seed.ok()) return seed.status();
  auto kind = ParseHashFamilyKind(flags.Get("hash").value_or("simple"));
  if (!kind.ok()) return kind.status();
  auto threads = flags.GetU64("threads", 0);  // 0 = hardware concurrency
  if (!threads.ok()) return threads.status();
  auto shards = flags.GetU64("shards", 1);
  if (!shards.ok()) return shards.status();
  SaveOptions save_options;
  const std::string layout = flags.Get("layout").value_or("descent");
  if (layout == "id") {
    save_options.layout = NodeLayout::kIdOrder;
  } else if (layout != "descent") {
    return Status::InvalidArgument("--layout must be 'id' or 'descent'");
  }
  const std::string format = flags.Get("format").value_or("v2");
  if (format == "v1") {
    save_options.version = 1;
  } else if (format != "v2") {
    return Status::InvalidArgument("--format must be 'v1' or 'v2'");
  }

  Result<TreeConfig> config = MakeConfigForAccuracy(
      accuracy.value(), set_size.value(), k.value(), namespace_size.value(),
      kind.value(), seed.value());
  if (!config.ok()) return config.status();
  config.value().build_threads = static_cast<uint32_t>(threads.value());

  Timer timer;
  const auto occupied_path = flags.Get("occupied");
  if (shards.value() > 1) {
    // Sharded build: partition the namespace into a forest and write the
    // manifest + per-shard v2 images.
    if (save_options.version == 1) {
      return Status::InvalidArgument(
          "--shards needs the v2 snapshot format (forest manifests have no "
          "v1 encoding)");
    }
    ForestConfig forest_config;
    forest_config.tree = config.value();
    forest_config.shards = static_cast<uint32_t>(shards.value());
    Result<BloomSampleForest> forest = [&]() -> Result<BloomSampleForest> {
      if (occupied_path.has_value()) {
        auto occupied = ReadIdFile(*occupied_path);
        if (!occupied.ok()) return occupied.status();
        return BloomSampleForest::BuildPruned(forest_config,
                                              std::move(occupied).value());
      }
      return BloomSampleForest::BuildComplete(forest_config);
    }();
    if (!forest.ok()) return forest.status();
    // The old artifact's logs go first (see the tree branch below).
    FileSystem* fs = FileSystem::Default();
    Status saved = RetireLogs(fs, out_path.value());
    for (uint32_t s = 0; saved.ok() && s < forest.value().shard_count(); ++s) {
      saved = RetireLogs(fs, ForestShardPath(out_path.value(), s));
    }
    if (saved.ok()) {
      saved = SaveForestToFile(forest.value(), out_path.value(), save_options);
    }
    if (!saved.ok()) return saved;
    std::printf(
        "built %s forest: %u shards (width %llu), m=%llu bits, depth=%u, "
        "%zu nodes, %.2f MB, %.2f s -> %s (+ %u shard images, %s layout)\n",
        forest.value().pruned() ? "pruned" : "complete",
        forest.value().shard_count(),
        static_cast<unsigned long long>(forest.value().shard_width()),
        static_cast<unsigned long long>(config.value().m),
        config.value().depth, forest.value().node_count(),
        static_cast<double>(forest.value().MemoryBytes()) / (1 << 20),
        timer.ElapsedSeconds(), out_path.value().c_str(),
        forest.value().shard_count(), NodeLayoutName(save_options.layout));
    return Status::OK();
  }
  Result<BloomSampleTree> tree = [&]() -> Result<BloomSampleTree> {
    if (occupied_path.has_value()) {
      auto occupied = ReadIdFile(*occupied_path);
      if (!occupied.ok()) return occupied.status();
      return BloomSampleTree::BuildPruned(config.value(),
                                          std::move(occupied).value());
    }
    return BloomSampleTree::BuildComplete(config.value());
  }();
  if (!tree.ok()) return tree.status();

  // A rebuild over an existing artifact must not replay its log into the
  // new image: retire the log durably before the image is installed, so a
  // crash can leave the old image without its log but never the new image
  // with a stale one.
  Status saved = RetireLogs(FileSystem::Default(), out_path.value());
  if (saved.ok()) {
    saved = SaveTreeToFile(tree.value(), out_path.value(), save_options);
  }
  if (!saved.ok()) return saved;
  std::printf("built %s tree: m=%llu bits, depth=%u, %zu nodes, %.2f MB, "
              "%.2f s -> %s (%s, %s layout)\n",
              tree.value().pruned() ? "pruned" : "complete",
              static_cast<unsigned long long>(config.value().m),
              config.value().depth, tree.value().node_count(),
              static_cast<double>(tree.value().MemoryBytes()) / (1 << 20),
              timer.ElapsedSeconds(), out_path.value().c_str(),
              save_options.version == 1 ? "stream-v1" : "snapshot-v2",
              save_options.version == 1
                  ? "id-order"
                  : NodeLayoutName(save_options.layout));
  return Status::OK();
}

Status ForestInfo(const Flags& flags, const std::string& path) {
  Result<BloomSampleForest> forest = LoadForestForCli(flags, path);
  if (!forest.ok()) return forest.status();
  const BloomSampleForest& f = forest.value();
  const TreeConfig& config = f.config().tree;
  std::printf("forest: %s\n", path.c_str());
  std::printf("  kind:        %s forest\n",
              f.pruned() ? "pruned" : "complete");
  std::printf("  shards:      %u (width %llu)\n", f.shard_count(),
              static_cast<unsigned long long>(f.shard_width()));
  std::printf("  namespace:   %llu\n",
              static_cast<unsigned long long>(config.namespace_size));
  std::printf("  m:           %llu bits\n",
              static_cast<unsigned long long>(config.m));
  std::printf("  k:           %llu (%s)\n",
              static_cast<unsigned long long>(config.k),
              HashFamilyKindName(config.hash_kind).c_str());
  std::printf("  seed:        %llu\n",
              static_cast<unsigned long long>(config.seed));
  std::printf("  depth:       %u (leaf range %llu)\n", config.depth,
              static_cast<unsigned long long>(config.LeafRangeSize()));
  std::printf("  nodes:       %zu total (%.2f MB)\n", f.node_count(),
              static_cast<double>(f.MemoryBytes()) / (1 << 20));
  if (f.pruned()) {
    std::printf("  occupied:    %llu ids total\n",
                static_cast<unsigned long long>(f.occupied_count()));
  }
  for (uint32_t s = 0; s < f.shard_count(); ++s) {
    std::printf("  shard %-2u     [%llu, %llu): %zu nodes, %zu occupied\n",
                s, static_cast<unsigned long long>(f.ShardLo(s)),
                static_cast<unsigned long long>(f.ShardHi(s)),
                f.shard(s).node_count(), f.shard(s).occupied().size());
  }
  std::printf("  design accuracy at n=1000: %.3f\n",
              SamplingAccuracy(config.m, 1000, config.k,
                               config.namespace_size));
  return Status::OK();
}

Status CmdInfo(const Flags& flags) {
  auto tree_path = flags.Require("tree");
  if (!tree_path.ok()) return tree_path.status();
  if (IsForestManifest(tree_path.value())) {
    return ForestInfo(flags, tree_path.value());
  }
  Result<BloomSampleTree> tree = LoadTreeForCli(flags, tree_path.value());
  if (!tree.ok()) return tree.status();
  const TreeConfig& config = tree.value().config();
  std::printf("tree: %s\n", tree_path.value().c_str());
  std::printf("  kind:        %s\n",
              tree.value().pruned() ? "pruned" : "complete");
  std::printf("  namespace:   %llu\n",
              static_cast<unsigned long long>(config.namespace_size));
  std::printf("  m:           %llu bits\n",
              static_cast<unsigned long long>(config.m));
  std::printf("  k:           %llu (%s)\n",
              static_cast<unsigned long long>(config.k),
              HashFamilyKindName(config.hash_kind).c_str());
  std::printf("  seed:        %llu\n",
              static_cast<unsigned long long>(config.seed));
  std::printf("  depth:       %u (leaf range %llu)\n", config.depth,
              static_cast<unsigned long long>(config.LeafRangeSize()));
  std::printf("  nodes:       %zu (%.2f MB)\n", tree.value().node_count(),
              static_cast<double>(tree.value().MemoryBytes()) / (1 << 20));
  std::printf("  layout:      %s\n",
              NodeLayoutName(tree.value().node_layout()));
  if (tree.value().pruned()) {
    std::printf("  occupied:    %zu ids\n", tree.value().occupied().size());
  }
  std::printf("  design accuracy at n=1000: %.3f\n",
              SamplingAccuracy(config.m, 1000, config.k,
                               config.namespace_size));
  return Status::OK();
}

Status CmdMakeSet(const Flags& flags) {
  auto namespace_size = flags.RequireU64("namespace");
  if (!namespace_size.ok()) return namespace_size.status();
  auto size = flags.RequireU64("size");
  if (!size.ok()) return size.status();
  auto out_path = flags.Require("out");
  if (!out_path.ok()) return out_path.status();
  auto seed = flags.GetU64("seed", 42);
  if (!seed.ok()) return seed.status();

  Rng rng(seed.value());
  Result<std::vector<uint64_t>> ids =
      flags.GetBool("clustered")
          ? GenerateClusteredSet(namespace_size.value(), size.value(), &rng)
          : GenerateUniformSet(namespace_size.value(), size.value(), &rng);
  if (!ids.ok()) return ids.status();
  const Status written = WriteIdFile(out_path.value(), ids.value());
  if (!written.ok()) return written;
  std::printf("wrote %zu ids -> %s\n", ids.value().size(),
              out_path.value().c_str());
  return Status::OK();
}

Status CmdStoreSet(const Flags& flags) {
  auto tree_path = flags.Require("tree");
  if (!tree_path.ok()) return tree_path.status();
  auto ids_path = flags.Require("ids");
  if (!ids_path.ok()) return ids_path.status();
  auto out_path = flags.Require("out");
  if (!out_path.ok()) return out_path.status();

  // Trees and forests share the filter format: only the family (and the
  // namespace bound) comes from the snapshot.
  std::optional<BloomSampleTree> tree;
  std::optional<BloomSampleForest> forest;
  uint64_t namespace_size = 0;
  if (IsForestManifest(tree_path.value())) {
    auto loaded = LoadForestForCli(flags, tree_path.value());
    if (!loaded.ok()) return loaded.status();
    namespace_size = loaded.value().config().tree.namespace_size;
    forest.emplace(std::move(loaded).value());
  } else {
    auto loaded = LoadTreeForCli(flags, tree_path.value());
    if (!loaded.ok()) return loaded.status();
    namespace_size = loaded.value().config().namespace_size;
    tree.emplace(std::move(loaded).value());
  }
  auto ids = ReadIdFile(ids_path.value());
  if (!ids.ok()) return ids.status();
  for (uint64_t id : ids.value()) {
    if (id >= namespace_size) {
      return Status::OutOfRange("id " + std::to_string(id) +
                                " is outside the tree's namespace");
    }
  }
  const BloomFilter filter = forest.has_value()
                                 ? forest->MakeQueryFilter(ids.value())
                                 : tree->MakeQueryFilter(ids.value());
  std::ofstream out(out_path.value(), std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::NotFound("cannot open '" + out_path.value() + "'");
  }
  const Status saved = SerializeBloomFilter(filter, &out);
  if (!saved.ok()) return saved;
  std::printf("stored %zu ids as a %zu-byte filter (fill %.3f) -> %s\n",
              ids.value().size(), filter.MemoryBytes(),
              filter.FillFraction(), out_path.value().c_str());
  return Status::OK();
}

Status CmdSample(const Flags& flags) {
  auto tree_path = flags.Require("tree");
  if (!tree_path.ok()) return tree_path.status();
  auto filter_path = flags.Require("filter");
  if (!filter_path.ok()) return filter_path.status();
  auto count = flags.GetU64("count", 1);
  if (!count.ok()) return count.status();
  auto seed = flags.GetU64("seed", 42);
  if (!seed.ok()) return seed.status();
  auto threads = flags.GetU64("threads", 0);  // 0 = hardware concurrency
  if (!threads.ok()) return threads.status();

  if (IsForestManifest(tree_path.value())) {
    // Forest snapshots always sample through the batched cross-shard
    // engine: draw i rides Rng::ForStream(seed, i), so the output is
    // independent of --threads and identical to serial draws (draws are
    // independent, i.e. with replacement, by construction).
    Result<BloomSampleForest> forest =
        LoadForestForCli(flags, tree_path.value());
    if (!forest.ok()) return forest.status();
    const Status shard_check =
        CheckShardFlag(flags, forest.value().shard_count());
    if (!shard_check.ok()) return shard_check;
    Result<BloomFilter> filter =
        LoadFilterWith(forest.value().family_ptr(), filter_path.value());
    if (!filter.ok()) return filter.status();
    forest.value().set_query_threads(static_cast<uint32_t>(threads.value()));

    ForestSampler sampler(&forest.value());
    ForestQueryContext ctx(forest.value(), filter.value());
    OpCounters counters;
    Timer timer;
    const auto draws =
        sampler.SampleBatch(&ctx, count.value(), seed.value(), &counters);
    const double ms = timer.ElapsedMillis();
    size_t produced = 0;
    for (const auto& draw : draws) {
      if (draw.has_value()) {
        std::printf("%llu\n", static_cast<unsigned long long>(*draw));
        ++produced;
      } else {
        std::printf("null\n");
      }
    }
    std::fprintf(stderr,
                 "# %zu/%zu cross-shard draws over %u shards in %.3f ms "
                 "(%llu kernel intersections + %llu cache hits, %.2f MB "
                 "read, %llu membership queries)\n",
                 produced, draws.size(), forest.value().shard_count(), ms,
                 static_cast<unsigned long long>(counters.intersections),
                 static_cast<unsigned long long>(counters.estimate_cache_hits),
                 static_cast<double>(counters.intersection_bytes) / 1e6,
                 static_cast<unsigned long long>(counters.membership_queries));
    return Status::OK();
  }

  Result<BloomSampleTree> tree = LoadTreeForCli(flags, tree_path.value());
  if (!tree.ok()) return tree.status();
  Result<BloomFilter> filter = LoadFilterFor(tree.value(), filter_path.value());
  if (!filter.ok()) return filter.status();
  tree.value().set_query_threads(static_cast<uint32_t>(threads.value()));

  BstSampler sampler(&tree.value());
  QueryContext ctx(tree.value(), filter.value());
  OpCounters counters;
  Timer timer;
  size_t produced = 0;
  if (flags.GetBool("batch")) {
    // Batched multi-draw engine: per-draw RNG streams, estimates and leaf
    // scans shared through the context, draws fanned across --threads.
    // Output is bit-identical to --count serial draws on the same seed.
    const auto draws =
        sampler.SampleBatch(&ctx, count.value(), seed.value(), &counters);
    const double ms = timer.ElapsedMillis();
    for (const auto& draw : draws) {
      if (draw.has_value()) {
        std::printf("%llu\n", static_cast<unsigned long long>(*draw));
        ++produced;
      } else {
        std::printf("null\n");
      }
    }
    std::fprintf(stderr,
                 "# %zu/%zu batched draws in %.3f ms (%llu kernel "
                 "intersections + %llu cache hits, %.2f MB read, %llu "
                 "membership queries)\n",
                 produced, draws.size(), ms,
                 static_cast<unsigned long long>(counters.intersections),
                 static_cast<unsigned long long>(counters.estimate_cache_hits),
                 static_cast<double>(counters.intersection_bytes) / 1e6,
                 static_cast<unsigned long long>(counters.membership_queries));
    return Status::OK();
  }

  Rng rng(seed.value());
  const std::vector<uint64_t> samples =
      sampler.SampleMany(&ctx, count.value(), &rng,
                         /*with_replacement=*/flags.GetBool("with-replacement"),
                         &counters);
  const double ms = timer.ElapsedMillis();
  for (uint64_t sample : samples) {
    std::printf("%llu\n", static_cast<unsigned long long>(sample));
  }
  std::fprintf(stderr,
               "# %zu samples in %.3f ms (%llu kernel intersections + %llu "
               "cache hits, %.2f MB read, %llu membership queries)\n",
               samples.size(), ms,
               static_cast<unsigned long long>(counters.intersections),
               static_cast<unsigned long long>(counters.estimate_cache_hits),
               static_cast<double>(counters.intersection_bytes) / 1e6,
               static_cast<unsigned long long>(counters.membership_queries));
  return Status::OK();
}

Status CmdReconstruct(const Flags& flags) {
  auto tree_path = flags.Require("tree");
  if (!tree_path.ok()) return tree_path.status();
  auto filter_path = flags.Require("filter");
  if (!filter_path.ok()) return filter_path.status();
  auto threads = flags.GetU64("threads", 0);  // 0 = hardware concurrency
  if (!threads.ok()) return threads.status();

  const BstReconstructor::PruningMode mode =
      flags.GetBool("exact") ? BstReconstructor::PruningMode::kExact
                             : BstReconstructor::PruningMode::kThresholded;
  OpCounters counters;
  std::vector<uint64_t> ids;
  double ms = 0.0;
  if (IsForestManifest(tree_path.value())) {
    Result<BloomSampleForest> forest =
        LoadForestForCli(flags, tree_path.value());
    if (!forest.ok()) return forest.status();
    const Status shard_check =
        CheckShardFlag(flags, forest.value().shard_count());
    if (!shard_check.ok()) return shard_check;
    Result<BloomFilter> filter =
        LoadFilterWith(forest.value().family_ptr(), filter_path.value());
    if (!filter.ok()) return filter.status();
    forest.value().set_query_threads(static_cast<uint32_t>(threads.value()));

    ForestReconstructor reconstructor(&forest.value());
    ForestQueryContext ctx(forest.value(), filter.value());
    Timer timer;
    ids = reconstructor.Reconstruct(ctx, &counters, mode);
    ms = timer.ElapsedMillis();
  } else {
    Result<BloomSampleTree> tree = LoadTreeForCli(flags, tree_path.value());
    if (!tree.ok()) return tree.status();
    Result<BloomFilter> filter =
        LoadFilterFor(tree.value(), filter_path.value());
    if (!filter.ok()) return filter.status();
    tree.value().set_query_threads(static_cast<uint32_t>(threads.value()));

    BstReconstructor reconstructor(&tree.value());
    Timer timer;
    ids = reconstructor.Reconstruct(filter.value(), &counters, mode);
    ms = timer.ElapsedMillis();
  }

  const auto out_path = flags.Get("out");
  if (out_path.has_value()) {
    const Status written = WriteIdFile(*out_path, ids);
    if (!written.ok()) return written;
  } else {
    for (uint64_t id : ids) {
      std::printf("%llu\n", static_cast<unsigned long long>(id));
    }
  }
  std::fprintf(stderr,
               "# reconstructed %zu ids in %.2f ms (%llu kernel "
               "intersections + %llu cache hits, %.2f MB read, %llu "
               "membership queries, mode=%s)\n",
               ids.size(), ms,
               static_cast<unsigned long long>(counters.intersections),
               static_cast<unsigned long long>(counters.estimate_cache_hits),
               static_cast<double>(counters.intersection_bytes) / 1e6,
               static_cast<unsigned long long>(counters.membership_queries),
               flags.GetBool("exact") ? "exact" : "thresholded");
  return Status::OK();
}

Status CmdQuery(const Flags& flags) {
  auto tree_path = flags.Require("tree");
  if (!tree_path.ok()) return tree_path.status();
  auto filter_path = flags.Require("filter");
  if (!filter_path.ok()) return filter_path.status();
  auto id = flags.RequireU64("id");
  if (!id.ok()) return id.status();

  std::shared_ptr<const HashFamily> family;
  if (IsForestManifest(tree_path.value())) {
    Result<BloomSampleForest> forest =
        LoadForestForCli(flags, tree_path.value());
    if (!forest.ok()) return forest.status();
    family = forest.value().family_ptr();
  } else {
    Result<BloomSampleTree> tree = LoadTreeForCli(flags, tree_path.value());
    if (!tree.ok()) return tree.status();
    family = tree.value().family_ptr();
  }
  Result<BloomFilter> filter = LoadFilterWith(family, filter_path.value());
  if (!filter.ok()) return filter.status();
  std::printf("%s\n",
              filter.value().Contains(id.value()) ? "positive" : "negative");
  return Status::OK();
}

Result<WalOptions> ParseWalFlags(const Flags& flags) {
  WalOptions options;
  const std::string sync = flags.Get("sync").value_or("every");
  if (sync == "every") {
    options.policy = WalSyncPolicy::kEveryRecord;
  } else if (sync == "interval") {
    options.policy = WalSyncPolicy::kInterval;
  } else if (sync == "none") {
    options.policy = WalSyncPolicy::kNone;
  } else {
    return Status::InvalidArgument(
        "--sync must be 'every', 'interval', or 'none'");
  }
  auto interval = flags.GetU64("interval", options.sync_interval);
  if (!interval.ok()) return interval.status();
  if (interval.value() == 0) {
    return Status::InvalidArgument("--interval must be positive");
  }
  options.sync_interval = interval.value();
  return options;
}

/// `# lane status` diagnostic lines — the CLI surface of
/// IngestPipelineStats::lanes (latch reason + errno, recovery progress).
void PrintLaneStatusLines(const IngestPipelineStats& stats) {
  for (const LaneStatusInfo& lane : stats.lanes) {
    if (lane.quarantined) {
      std::fprintf(stderr, "# lane %u status: quarantined\n", lane.lane);
      continue;
    }
    if (!lane.read_only) {
      std::fprintf(stderr,
                   "# lane %u status: healthy (%llu recovery probes, %llu "
                   "latches cleared)\n",
                   lane.lane,
                   static_cast<unsigned long long>(lane.recover_attempts),
                   static_cast<unsigned long long>(lane.recover_successes));
      continue;
    }
    std::fprintf(stderr,
                 "# lane %u status: read-only — %s (errno %d)%s; %llu "
                 "recovery probes, %llu latches cleared\n",
                 lane.lane, lane.latch_message.c_str(), lane.latch_errno,
                 lane.recovery_gave_up ? "; recovery gave up" : "",
                 static_cast<unsigned long long>(lane.recover_attempts),
                 static_cast<unsigned long long>(lane.recover_successes));
  }
}

/// Pushes `op` for every id onto the pipeline's queue, flushes once and
/// closes it, returning the first failure any of the three reports.
/// Removes enable the counting-bloom leaves first: plain Bloom filters
/// cannot unset bits, snapshots do not persist the counters, and replay
/// re-enables them when it meets the first kRemove record.
Status PushAll(IngestPipeline* pipeline, WalOp op,
               const std::vector<uint64_t>& ids, IngestPipelineStats* stats) {
  Status st = op == WalOp::kRemove ? pipeline->EnableCountingLeaves()
                                   : Status::OK();
  for (size_t i = 0; st.ok() && i < ids.size(); ++i) {
    WalMutation mut;
    mut.op = op;
    mut.id = ids[i];
    st = pipeline->Push(mut);
  }
  const Status flushed = pipeline->Flush();
  if (st.ok()) st = flushed;
  *stats = pipeline->Stats();
  PrintLaneStatusLines(*stats);
  const Status closed = pipeline->Close();
  return st.ok() ? closed : st;
}

/// `bsr insert` and `bsr remove`: opens one pipeline on the tree or forest
/// at --tree — the write path bsrd and the scrubber use — and runs PushAll
/// through it. The snapshot image is left untouched: every mutation is
/// acknowledged only once its record is in the sidecar log (per --sync),
/// and the next open replays the log; `bsr compact` folds it back in.
Status RunIngest(const Flags& flags, WalOp op) {
  auto tree_path = flags.Require("tree");
  if (!tree_path.ok()) return tree_path.status();
  auto ids_path = flags.Require("ids");
  if (!ids_path.ok()) return ids_path.status();
  auto wal_options = ParseWalFlags(flags);
  if (!wal_options.ok()) return wal_options.status();
  auto ids = ReadIdFile(ids_path.value());
  if (!ids.ok()) return ids.status();

  const std::string& path = tree_path.value();
  IngestPipelineOptions options;
  options.wal = wal_options.value();
  Timer timer;
  uint64_t before = 0;
  uint64_t after = 0;
  IngestPipelineStats stats;
  Status st;
  if (IsForestManifest(path)) {
    ForestLoadInfo info;
    auto forest = LoadForestForCli(flags, path, &info);
    if (!forest.ok()) return forest.status();
    auto pipeline =
        IngestPipeline::OpenForest(&forest.value(), path, options, &info);
    if (!pipeline.ok()) return pipeline.status();
    before = forest.value().occupied_count();
    st = PushAll(pipeline.value().get(), op, ids.value(), &stats);
    after = forest.value().occupied_count();
  } else {
    TreeLoadInfo info;
    auto tree = LoadTreeForCli(flags, path, &info);
    if (!tree.ok()) return tree.status();
    before = tree.value().occupied().size();
    auto pipeline = IngestPipeline::OpenTree(
        std::make_shared<BloomSampleTree>(std::move(tree).value()), path,
        options, info.wal_records_replayed + 1);
    if (!pipeline.ok()) return pipeline.status();
    st = PushAll(pipeline.value().get(), op, ids.value(), &stats);
    after = pipeline.value()->tree_handle()->occupied().size();
  }
  if (!st.ok()) return st;

  const size_t n = ids.value().size();
  const auto changed = static_cast<unsigned long long>(
      op == WalOp::kRemove ? before - after : after - before);
  const auto unchanged = static_cast<unsigned long long>(n) - changed;
  const char* sync = WalSyncPolicyName(options.wal.policy);
  if (op == WalOp::kRemove) {
    std::printf("removed %llu of %zu ids (%llu were absent) in %.2f ms via "
                "the ingest pipeline (sync=%s, counting-bloom leaves) -> "
                "%s\n",
                changed, n, unchanged, timer.ElapsedMillis(), sync,
                path.c_str());
  } else {
    std::printf("ingested %zu ids (%llu new, %llu already present) in %.2f "
                "ms via the ingest pipeline (sync=%s, %llu commit groups, "
                "%llu fsyncs) -> %s\n",
                n, changed, unchanged, timer.ElapsedMillis(), sync,
                static_cast<unsigned long long>(stats.commit_groups),
                static_cast<unsigned long long>(stats.fsyncs), path.c_str());
  }
  return Status::OK();
}

Status CmdInsert(const Flags& flags) {
  return RunIngest(flags, WalOp::kInsert);
}

Status CmdRemove(const Flags& flags) {
  return RunIngest(flags, WalOp::kRemove);
}

Status VerifyOneSnapshot(const std::string& path) {
  uint64_t bad_chunk = ~0ull;
  Timer timer;
  const Status verified = VerifySnapshotFile(path, nullptr, &bad_chunk);
  if (verified.ok()) {
    std::printf("%s: ok (%.2f ms)\n", path.c_str(), timer.ElapsedMillis());
  } else if (bad_chunk != ~0ull) {
    std::fprintf(stderr, "# %s: first bad slab chunk = %llu\n", path.c_str(),
                 static_cast<unsigned long long>(bad_chunk));
  }
  return verified;
}

Status CmdVerify(const Flags& flags) {
  auto tree_path = flags.Require("tree");
  if (!tree_path.ok()) return tree_path.status();

  Status first = Status::OK();
  if (IsForestManifest(tree_path.value())) {
    // Walk the shard images the manifest implies; a quarantined shard's
    // image may be gone while its marker remains, so either file counts
    // as "shard s exists".
    FileSystem* fs = FileSystem::Default();
    uint32_t shards = 0;
    for (uint32_t s = 0;; ++s) {
      const std::string shard = ForestShardPath(tree_path.value(), s);
      if (!fs->FileExists(shard) &&
          !fs->FileExists(QuarantinePathFor(shard))) {
        break;
      }
      ++shards;
      const Status st = VerifyOneSnapshot(shard);
      if (!st.ok() && first.ok()) first = st;
    }
    if (shards == 0) {
      first = Status::NotFound("no shard images next to manifest '" +
                               tree_path.value() + "'");
    }
  } else {
    first = VerifyOneSnapshot(tree_path.value());
  }
  if (!first.ok() && first.code() != Status::Code::kQuarantined) {
    g_snapshot_exit_hint =
        first.code() == Status::Code::kNotFound ? 3 : 4;
  }
  return first;
}

/// A tree compacts through the pipeline's background compaction — the
/// one bsrd and the scrubber run, which also folds a `.wal.old` a crashed
/// compaction left behind. A forest keeps the offline CompactForest.
Status CmdCompact(const Flags& flags) {
  auto tree_path = flags.Require("tree");
  if (!tree_path.ok()) return tree_path.status();

  Timer timer;
  uint64_t replayed = 0;
  if (IsForestManifest(tree_path.value())) {
    ForestLoadInfo info;
    auto forest = LoadForestForCli(flags, tree_path.value(), &info);
    if (!forest.ok()) return forest.status();
    const Status compacted = CompactForest(&forest.value(), tree_path.value());
    if (!compacted.ok()) return compacted;
    for (const TreeLoadInfo& shard : info.shards) {
      replayed += shard.wal_records_replayed + shard.wal_old_records_replayed;
    }
  } else {
    TreeLoadInfo info;
    auto tree = LoadTreeForCli(flags, tree_path.value(), &info);
    if (!tree.ok()) return tree.status();
    auto pipeline = IngestPipeline::OpenTree(
        std::make_shared<BloomSampleTree>(std::move(tree).value()),
        tree_path.value(), IngestPipelineOptions(),
        info.wal_records_replayed + 1);
    if (!pipeline.ok()) return pipeline.status();
    Status st = pipeline.value()->TriggerCompaction();
    if (st.ok()) st = pipeline.value()->WaitCompaction();
    const Status closed = pipeline.value()->Close();
    if (!st.ok()) return st;
    if (!closed.ok()) return closed;
    replayed = info.wal_records_replayed + info.wal_old_records_replayed;
  }
  std::printf("compacted %s: folded %llu wal records into the image in "
              "%.2f ms; log is empty\n",
              tree_path.value().c_str(),
              static_cast<unsigned long long>(replayed),
              timer.ElapsedMillis());
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  if (in.bad()) return Status::Internal("read failed on " + path);
  return bytes;
}

Status CmdServe(const Flags& flags) {
  auto tree_path = flags.Require("tree");
  if (!tree_path.ok()) return tree_path.status();
  auto wal_options = ParseWalFlags(flags);
  if (!wal_options.ok()) return wal_options.status();
  auto workers = flags.GetU64("workers", 2);
  if (!workers.ok()) return workers.status();
  auto queue = flags.GetU64("queue", 256);
  if (!queue.ok()) return queue.status();
  auto drain_ms = flags.GetU64("drain-ms", 5000);
  if (!drain_ms.ok()) return drain_ms.status();
  auto idle_ms = flags.GetU64("idle-ms", 60000);
  if (!idle_ms.ok()) return idle_ms.status();
  auto read_ms = flags.GetU64("read-ms", 5000);
  if (!read_ms.ok()) return read_ms.status();
  if (IsForestManifest(tree_path.value())) {
    return Status::Unsupported(
        "bsr serve is single-tree only for now; forest serving is a "
        "ROADMAP item");
  }

  TreeLoadInfo info;
  auto loaded = LoadTreeForCli(flags, tree_path.value(), &info);
  if (!loaded.ok()) return loaded.status();
  auto tree = std::make_shared<BloomSampleTree>(std::move(loaded).value());

  // Past this point every failure is the daemon's fault: exit 8.
  g_server_failure = true;

  IngestPipelineOptions poptions;
  poptions.wal = wal_options.value();
  auto pipeline = IngestPipeline::OpenTree(tree, tree_path.value(), poptions,
                                           info.wal_records_replayed + 1);
  if (!pipeline.ok()) return pipeline.status();

  std::unique_ptr<Scrubber> scrubber;
  if (flags.GetBool("scrub")) {
    ScrubOptions scrub_options;
    scrubber = std::make_unique<Scrubber>(pipeline.value().get(),
                                          scrub_options);
    scrubber->Start();
  }

  server::ServerOptions soptions;
  soptions.listen = flags.Get("listen").value_or("127.0.0.1:0");
  soptions.workers = static_cast<size_t>(workers.value());
  soptions.queue_capacity = static_cast<size_t>(queue.value());
  soptions.drain_budget = std::chrono::milliseconds(drain_ms.value());
  soptions.idle_timeout = std::chrono::milliseconds(idle_ms.value());
  soptions.read_timeout = std::chrono::milliseconds(read_ms.value());
  auto server = server::BsrServer::Start(pipeline.value().get(), soptions);
  if (!server.ok()) return server.status();
  if (scrubber != nullptr) server.value()->set_scrubber(scrubber.get());
  server::InstallSignalHandlers(server.value().get());

  // The ready line: scripts (and the CI smoke leg) wait for it on stdout
  // before connecting — the address is authoritative because :0 binds an
  // ephemeral port.
  std::printf("bsrd serving on %s (pid %d; SIGTERM drains, SIGHUP swaps)\n",
              server.value()->address().c_str(),
              static_cast<int>(getpid()));
  std::fflush(stdout);

  const Status served = server.value()->Wait();
  server::RestoreSignalHandlers();
  server.value().reset();
  if (scrubber != nullptr) scrubber->Stop();
  PrintLaneStatusLines(pipeline.value()->Stats());
  const Status closed = pipeline.value()->Close();
  if (!served.ok()) return served;
  if (!closed.ok()) return closed;
  g_server_failure = false;
  std::printf("bsrd: drained and stopped cleanly\n");
  return Status::OK();
}

Status CmdClient(const std::string& op, const Flags& flags) {
  auto addr = flags.Require("addr");
  if (!addr.ok()) return addr.status();
  auto timeout_ms = flags.GetU64("timeout-ms", 5000);
  if (!timeout_ms.ok()) return timeout_ms.status();
  auto retries = flags.GetU64("retries", 3);
  if (!retries.ok()) return retries.status();
  auto deadline_ms = flags.GetU64("deadline-ms", 0);
  if (!deadline_ms.ok()) return deadline_ms.status();

  server::ClientOptions coptions;
  coptions.request_timeout = std::chrono::milliseconds(timeout_ms.value());
  coptions.max_retries = static_cast<uint32_t>(retries.value());
  coptions.deadline_ms = static_cast<uint32_t>(deadline_ms.value());

  // A client op that reaches the wire and fails is a serving failure:
  // exit 8, distinguishable from local mistakes like a bad flag.
  g_server_failure = true;
  auto client = server::BsrClient::Connect(addr.value(), coptions);
  if (!client.ok()) return client.status();

  Timer timer;
  if (op == "ping") {
    const Status st = client.value()->Ping();
    if (!st.ok()) return st;
    std::printf("pong in %.2f ms\n", timer.ElapsedMillis());
  } else if (op == "stats") {
    auto text = client.value()->Stats();
    if (!text.ok()) return text.status();
    std::fputs(text.value().c_str(), stdout);
  } else if (op == "sample") {
    auto filter_path = flags.Require("filter");
    if (!filter_path.ok()) return filter_path.status();
    auto count = flags.GetU64("count", 1);
    if (!count.ok()) return count.status();
    auto seed = flags.GetU64("seed", 0);
    if (!seed.ok()) return seed.status();
    auto filter = ReadFileBytes(filter_path.value());
    if (!filter.ok()) return filter.status();
    auto draws = client.value()->Sample(filter.value(),
                                        static_cast<uint32_t>(count.value()),
                                        seed.value());
    if (!draws.ok()) return draws.status();
    for (const auto& draw : draws.value()) {
      if (draw.has_value()) {
        std::printf("%llu\n", static_cast<unsigned long long>(*draw));
      } else {
        std::printf("null\n");
      }
    }
  } else if (op == "reconstruct") {
    auto filter_path = flags.Require("filter");
    if (!filter_path.ok()) return filter_path.status();
    auto filter = ReadFileBytes(filter_path.value());
    if (!filter.ok()) return filter.status();
    auto ids = client.value()->Reconstruct(filter.value(),
                                           flags.GetBool("exact"));
    if (!ids.ok()) return ids.status();
    for (uint64_t id : ids.value()) {
      std::printf("%llu\n", static_cast<unsigned long long>(id));
    }
  } else if (op == "insert" || op == "remove") {
    auto ids_path = flags.Require("ids");
    if (!ids_path.ok()) return ids_path.status();
    auto ids = ReadIdFile(ids_path.value());
    if (!ids.ok()) return ids.status();
    const Status st = op == "insert" ? client.value()->Insert(ids.value())
                                     : client.value()->Remove(ids.value());
    if (!st.ok()) return st;
    std::printf("%sed %zu ids in %.2f ms\n",
                op == "insert" ? "insert" : "remov", ids.value().size(),
                timer.ElapsedMillis());
  } else {
    g_server_failure = false;
    return Status::InvalidArgument(
        "unknown client op '" + op +
        "' (ping|sample|reconstruct|insert|remove|stats)");
  }
  if (client.value()->retry_count() > 0) {
    std::fprintf(stderr, "# %llu retries\n",
                 static_cast<unsigned long long>(
                     client.value()->retry_count()));
  }
  g_server_failure = false;
  return Status::OK();
}

void PrintUsage() {
  std::fprintf(stderr, R"(bsr — sampling and reconstruction from Bloom filters

usage: bsr <command> [flags]

commands:
  build        --namespace M --out T.bst [--accuracy A] [--set-size N]
               [--k K] [--hash simple|murmur3|md5] [--seed S]
               [--occupied ids.txt]     (pruned tree over occupied ids)
               [--threads T]            (build threads; 0 = all cores)
               [--layout id|descent]    (v2 slab block order; default
                                         descent: BFS top + vEB subtrees)
               [--format v1|v2]         (v2 = mmap-able flat snapshot,
                                         v1 = legacy portable stream)
               [--shards S]             (S > 1: sharded forest — manifest
                                         at --out plus S shard images)
  info         --tree T.bst             (forest manifests auto-detected)
  make-set     --namespace M --size N --out ids.txt [--clustered] [--seed S]
  store-set    --tree T.bst --ids ids.txt --out set.bf
  sample       --tree T.bst --filter set.bf [--count R] [--seed S]
               [--with-replacement]
               [--batch]                (batched multi-draw engine: R
                                         independent draws on per-draw RNG
                                         streams; "null" = dead path)
               [--threads T]            (batch fan-out; 0 = all cores)
               [--shards S]             (forests: assert the shard count)
  reconstruct  --tree T.bst --filter set.bf [--exact] [--out ids.txt]
               [--threads T]            (traversal fan-out; 0 = all cores)
               [--shards S]             (forests: assert the shard count)
  query        --tree T.bst --filter set.bf --id X
  insert       --tree T.bst --ids ids.txt
               [--sync every|interval|none]  (wal fsync policy; default
                                         every: each insert durable before
                                         it is acknowledged)
               [--interval N]           (records per fsync for --sync
                                         interval; default 64)
               Queues every id on the ingest pipeline (the write path bsrd
               uses; one group commit per drained batch) and flushes once;
               fails if any id is refused (e.g. outside the namespace).
               Appends to the sidecar write-ahead log (T.bst.wal); the
               snapshot image is untouched and the next open replays the
               log. Works on forest manifests (per-shard logs).
  remove       --tree T.bst --ids ids.txt
               [--sync every|interval|none] [--interval N]
               Logs kRemove records through the same pipeline and deletes
               through the counting-bloom leaf backend (enabled on load:
               exact counters rebuilt from the occupied set; plain Bloom
               leaves cannot unset bits).
  compact      --tree T.bst             (fold the wal into the image
                                         atomically and empty the log:
                                         trees run the pipeline's
                                         compaction, forests an offline
                                         fold of every shard)
  verify       --tree T.bst             (offline integrity walk: metadata
                                         digests, then the slab chunk by
                                         chunk; forest manifests verify
                                         every shard image; reports the
                                         first bad chunk on stderr)
  serve        --tree T.bst [--listen unix:/path | host:port]
               [--workers N] [--queue N]     (admission queue bound;
                                         beyond it requests are shed with
                                         OVERLOADED + retry-after)
               [--drain-ms N]           (SIGTERM drain budget)
               [--idle-ms N] [--read-ms N]  (idle / slow-loris timeouts)
               [--scrub]                (online integrity scrubber)
               [--sync every|interval|none] [--interval N]
               Long-lived daemon speaking the bsrd wire protocol (see
               docs/PROTOCOL.md). SIGTERM drains gracefully; SIGHUP
               hot-swaps the snapshot from disk under live readers.
  client <op>  --addr unix:/path|host:port
               ops: ping | stats | sample --filter F [--count R] [--seed S]
               | reconstruct --filter F [--exact] | insert --ids ids.txt
               | remove --ids ids.txt
               [--deadline-ms N]        (carried in the frame; the server
                                         answers DEADLINE_EXCEEDED rather
                                         than serve a stale reply)
               [--timeout-ms N] [--retries N]  (bounded exponential
                                         backoff; mutations retry only on
                                         explicit refusals, never on
                                         ambiguous transport failures)
)");
  std::fprintf(stderr, "\nexit codes:\n");
  for (const ExitCodeRow& row : kExitCodeTable) {
    std::fprintf(stderr, "  %d     %s\n", static_cast<int>(row.code),
                 row.meaning);
  }
  std::fprintf(stderr, R"(
tree-loading flags (info/store-set/sample/reconstruct/query/insert/compact):
  --mmap      zero-copy mmap the snapshot slab (v2 files; O(ms) open)
  --heap      read the slab onto the heap (portable fallback)
  --prewarm   fault the whole mapping in at open (MAP_POPULATE)
  default: BSR_LOAD env (heap|mmap), else mmap where available
Every tree-consuming command accepts a forest manifest for --tree: the
format is sniffed, the load-summary line reports each shard's mapping
mode, and sampling/reconstruction run the cross-shard engines.
)");
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string command = argv[1];
  Status status = Status::OK();
  // A command line Flags::Parse rejects (unknown flag, missing value,
  // stray argument) is a usage error, like an unknown command.
  bool usage_error = false;
  const auto run = [&](const std::vector<std::string>& value_flags,
                       const std::vector<std::string>& bool_flags,
                       Status (*handler)(const Flags&)) {
    Result<Flags> flags = Flags::Parse(argc, argv, 2, value_flags, bool_flags);
    if (!flags.ok()) {
      usage_error = true;
      return flags.status();
    }
    return handler(flags.value());
  };

  const std::vector<std::string> load_flags = {"mmap", "heap", "prewarm"};
  const auto with_load_flags = [&load_flags](std::vector<std::string> flags) {
    flags.insert(flags.end(), load_flags.begin(), load_flags.end());
    return flags;
  };
  if (command == "build") {
    status = run({"namespace", "out", "accuracy", "set-size", "k", "hash",
                  "seed", "occupied", "threads", "layout", "format",
                  "shards"},
                 {}, CmdBuild);
  } else if (command == "info") {
    status = run({"tree"}, load_flags, CmdInfo);
  } else if (command == "make-set") {
    status = run({"namespace", "size", "out", "seed"}, {"clustered"},
                 CmdMakeSet);
  } else if (command == "store-set") {
    status = run({"tree", "ids", "out"}, load_flags, CmdStoreSet);
  } else if (command == "sample") {
    status = run({"tree", "filter", "count", "seed", "threads", "shards"},
                 with_load_flags({"with-replacement", "batch"}), CmdSample);
  } else if (command == "reconstruct") {
    status = run({"tree", "filter", "out", "threads", "shards"},
                 with_load_flags({"exact"}), CmdReconstruct);
  } else if (command == "query") {
    status = run({"tree", "filter", "id"}, load_flags, CmdQuery);
  } else if (command == "insert") {
    status = run({"tree", "ids", "sync", "interval"}, load_flags, CmdInsert);
  } else if (command == "remove") {
    status = run({"tree", "ids", "sync", "interval"}, load_flags, CmdRemove);
  } else if (command == "compact") {
    status = run({"tree"}, load_flags, CmdCompact);
  } else if (command == "verify") {
    status = run({"tree"}, {}, CmdVerify);
  } else if (command == "serve") {
    status = run({"tree", "listen", "workers", "queue", "drain-ms",
                  "idle-ms", "read-ms", "sync", "interval"},
                 with_load_flags({"scrub"}), CmdServe);
  } else if (command == "client") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: bsr client <op> --addr ADDR [flags]\n");
      return kExitUsage;
    }
    Result<Flags> flags = Flags::Parse(
        argc, argv, 3,
        {"addr", "filter", "count", "seed", "ids", "deadline-ms",
         "timeout-ms", "retries"},
        {"exact"});
    usage_error = !flags.ok();
    status = flags.ok() ? CmdClient(argv[2], flags.value()) : flags.status();
  } else if (command == "--help" || command == "-h" || command == "help") {
    PrintUsage();
    return kExitOk;
  } else {
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    PrintUsage();
    return kExitUsage;
  }

  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    if (usage_error) return kExitUsage;
    if (status.code() == Status::Code::kQuarantined) return kExitQuarantined;
    if (status.code() == Status::Code::kReadOnly) return kExitReadOnly;
    if (g_snapshot_exit_hint != 0) return g_snapshot_exit_hint;
    return g_server_failure ? kExitServerFailure : kExitFailed;
  }
  return g_wal_recovered ? kExitWalRecovered : kExitOk;
}

}  // namespace cli
}  // namespace bloomsample

int main(int argc, char** argv) {
  // Process-wide: a client hanging up mid-response (or a closed pager on
  // the other end of stdout) must surface as an EPIPE write error, not
  // kill the daemon with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  return bloomsample::cli::Main(argc, argv);
}
