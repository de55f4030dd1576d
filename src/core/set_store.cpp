#include "src/core/set_store.h"

#include <algorithm>

namespace bloomsample {

Result<BloomSetStore> BloomSetStore::CreateImpl(uint64_t namespace_size,
                                                std::vector<uint64_t> occupied,
                                                bool pruned,
                                                const Options& options) {
  CostModel model;
  const CostModel* model_ptr = nullptr;
  Result<TreeConfig> config = MakeConfigForAccuracy(
      options.accuracy, options.expected_set_size, options.k, namespace_size,
      options.hash_kind, options.seed, nullptr);
  if (!config.ok()) return config.status();
  if (options.measure_costs) {
    model = MeasureCostModel(options.hash_kind, config.value().m, options.k,
                             options.seed);
    model_ptr = &model;
    config = MakeConfigForAccuracy(options.accuracy, options.expected_set_size,
                                   options.k, namespace_size,
                                   options.hash_kind, options.seed, model_ptr);
    if (!config.ok()) return config.status();
  }
  TreeConfig tree_config = config.value();
  tree_config.intersection_threshold = options.intersection_threshold;

  Result<BloomSampleTree> tree =
      pruned ? BloomSampleTree::BuildPruned(tree_config, std::move(occupied))
             : BloomSampleTree::BuildComplete(tree_config);
  if (!tree.ok()) return tree.status();
  return BloomSetStore(std::move(tree).value());
}

Result<BloomSetStore> BloomSetStore::Create(uint64_t namespace_size,
                                            const Options& options) {
  return CreateImpl(namespace_size, {}, /*pruned=*/false, options);
}

Result<BloomSetStore> BloomSetStore::CreateWithOccupied(
    uint64_t namespace_size, std::vector<uint64_t> occupied,
    const Options& options) {
  return CreateImpl(namespace_size, std::move(occupied), /*pruned=*/true,
                    options);
}

Status BloomSetStore::AddSet(const std::string& name,
                             const std::vector<uint64_t>& elements) {
  const uint64_t namespace_size = tree_->config().namespace_size;
  for (uint64_t x : elements) {
    if (x >= namespace_size) {
      return Status::OutOfRange("set element beyond namespace");
    }
    if (tree_->pruned() && !tree_->IsOccupied(x)) {
      return Status::InvalidArgument(
          "set element is not an occupied id (call AddOccupied first)");
    }
  }
  BloomFilter filter = tree_->MakeQueryFilter(elements);
  sets_.insert_or_assign(name, std::move(filter));
  return Status::OK();
}

Status BloomSetStore::AddToSet(const std::string& name, uint64_t element) {
  auto it = sets_.find(name);
  if (it == sets_.end()) return Status::NotFound("no set named '" + name + "'");
  if (element >= tree_->config().namespace_size) {
    return Status::OutOfRange("set element beyond namespace");
  }
  if (tree_->pruned() && !tree_->IsOccupied(element)) {
    return Status::InvalidArgument(
        "set element is not an occupied id (call AddOccupied first)");
  }
  it->second.Insert(element);
  return Status::OK();
}

Status BloomSetStore::AddOccupied(uint64_t id) { return tree_->Insert(id); }

const BloomFilter* BloomSetStore::GetFilter(const std::string& name) const {
  const auto it = sets_.find(name);
  return it == sets_.end() ? nullptr : &it->second;
}

std::vector<std::string> BloomSetStore::SetNames() const {
  std::vector<std::string> names;
  names.reserve(sets_.size());
  for (const auto& [name, filter] : sets_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

Result<uint64_t> BloomSetStore::Sample(const std::string& name, Rng* rng,
                                       OpCounters* counters) const {
  const BloomFilter* filter = GetFilter(name);
  if (filter == nullptr) return Status::NotFound("no set named '" + name + "'");
  const auto sample = sampler_.Sample(*filter, rng, counters);
  if (!sample.has_value()) {
    return Status::NotFound("set '" + name + "' produced no sample");
  }
  return *sample;
}

Result<std::vector<uint64_t>> BloomSetStore::SampleMany(
    const std::string& name, size_t r, Rng* rng, OpCounters* counters) const {
  const BloomFilter* filter = GetFilter(name);
  if (filter == nullptr) return Status::NotFound("no set named '" + name + "'");
  return sampler_.SampleMany(*filter, r, rng, /*with_replacement=*/false,
                             counters);
}

Result<std::vector<uint64_t>> BloomSetStore::Reconstruct(
    const std::string& name, OpCounters* counters,
    BstReconstructor::PruningMode mode) const {
  const BloomFilter* filter = GetFilter(name);
  if (filter == nullptr) return Status::NotFound("no set named '" + name + "'");
  return reconstructor_.Reconstruct(*filter, counters, mode);
}

namespace {

Result<BloomFilter> ComposeImpl(
    const BloomSetStore& store, const std::vector<std::string>& names,
    void (BloomFilter::*combine)(const BloomFilter&)) {
  if (names.empty()) {
    return Status::InvalidArgument("composition needs at least one set");
  }
  const BloomFilter* first = store.GetFilter(names.front());
  if (first == nullptr) {
    return Status::NotFound("no set named '" + names.front() + "'");
  }
  BloomFilter out = *first;
  for (size_t i = 1; i < names.size(); ++i) {
    const BloomFilter* next = store.GetFilter(names[i]);
    if (next == nullptr) {
      return Status::NotFound("no set named '" + names[i] + "'");
    }
    (out.*combine)(*next);
  }
  return out;
}

}  // namespace

Result<BloomFilter> BloomSetStore::ComposeUnion(
    const std::vector<std::string>& names) const {
  return ComposeImpl(*this, names, &BloomFilter::UnionWith);
}

Result<BloomFilter> BloomSetStore::ComposeIntersection(
    const std::vector<std::string>& names) const {
  return ComposeImpl(*this, names, &BloomFilter::IntersectWith);
}

Result<uint64_t> BloomSetStore::SampleFilter(const BloomFilter& query,
                                             Rng* rng,
                                             OpCounters* counters) const {
  if (query.family_ptr() != tree_->family_ptr()) {
    return Status::InvalidArgument(
        "query filter does not share this store's hash family");
  }
  const auto sample = sampler_.Sample(query, rng, counters);
  if (!sample.has_value()) {
    return Status::NotFound("filter produced no sample");
  }
  return *sample;
}

Result<std::vector<uint64_t>> BloomSetStore::ReconstructFilter(
    const BloomFilter& query, OpCounters* counters,
    BstReconstructor::PruningMode mode) const {
  if (query.family_ptr() != tree_->family_ptr()) {
    return Status::InvalidArgument(
        "query filter does not share this store's hash family");
  }
  return reconstructor_.Reconstruct(query, counters, mode);
}

size_t BloomSetStore::SetMemoryBytes() const {
  size_t total = 0;
  for (const auto& [name, filter] : sets_) total += filter.MemoryBytes();
  return total;
}

}  // namespace bloomsample
