#include "soma/store.hpp"

#include <algorithm>
#include <utility>

namespace soma::core {
namespace {

std::size_t ns_index(Namespace ns) { return static_cast<std::size_t>(ns); }

/// Merge per-shard time-sorted series into one time-sorted sequence.
/// Stable by shard order: on equal times the lower shard index comes first,
/// so merged output is deterministic for a given shard layout.
std::vector<const TimedRecord*> merge_sorted(
    std::vector<std::vector<const TimedRecord*>> parts) {
  std::size_t filled = 0;
  std::size_t total = 0;
  std::vector<const TimedRecord*>* only = nullptr;
  for (auto& part : parts) {
    if (part.empty()) continue;
    ++filled;
    total += part.size();
    only = &part;
  }
  if (filled == 0) return {};
  if (filled == 1) return std::move(*only);

  std::vector<const TimedRecord*> out;
  out.reserve(total);
  std::vector<std::size_t> cursor(parts.size(), 0);
  while (out.size() < total) {
    std::size_t best = parts.size();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (cursor[i] >= parts[i].size()) continue;
      if (best == parts.size() ||
          parts[i][cursor[i]]->time < parts[best][cursor[best]]->time) {
        best = i;
      }
    }
    out.push_back(parts[best][cursor[best]]);
    ++cursor[best];
  }
  return out;
}

}  // namespace

DataStore::DataStore(StorageConfig config) : config_(std::move(config)) {
  // Auto (0) means "one shard per service rank" when a SomaService owns the
  // store; a store built directly (tools, import, tests) has no ranks, so
  // auto collapses to a single shard.
  const int shard_count = std::max(1, config_.shards_per_namespace);
  for (auto& group : shards_) {
    group.reserve(static_cast<std::size_t>(shard_count));
    for (int i = 0; i < shard_count; ++i) {
      group.push_back(make_storage_backend(config_));
    }
  }
  for (auto& overrides : read_overrides_) {
    overrides.assign(static_cast<std::size_t>(shard_count), nullptr);
  }
}

int DataStore::shard_index_for(const std::string& source) const {
  return static_cast<int>(
      route_source(source, static_cast<std::size_t>(shard_count())));
}

StorageBackend& DataStore::shard(Namespace ns, int index) {
  auto& group = shards_[ns_index(ns)];
  return *group[static_cast<std::size_t>(index) % group.size()];
}

const StorageBackend& DataStore::shard(Namespace ns, int index) const {
  const auto& group = shards_[ns_index(ns)];
  return *group[static_cast<std::size_t>(index) % group.size()];
}

void DataStore::set_read_override(Namespace ns, int index,
                                  const StorageBackend* backend) {
  auto& overrides = read_overrides_[ns_index(ns)];
  overrides[static_cast<std::size_t>(index) % overrides.size()] = backend;
}

void DataStore::clear_read_override(Namespace ns, int index) {
  set_read_override(ns, index, nullptr);
}

const StorageBackend& DataStore::read_shard(Namespace ns, int index) const {
  const auto& overrides = read_overrides_[ns_index(ns)];
  const StorageBackend* override_backend =
      overrides[static_cast<std::size_t>(index) % overrides.size()];
  return override_backend != nullptr ? *override_backend : shard(ns, index);
}

void DataStore::append(Namespace ns, const std::string& source, SimTime time,
                       datamodel::Node data) {
  shard(ns, shard_index_for(source)).append(source, time, std::move(data));
}

StoreView DataStore::view() const { return StoreView(*this); }

std::vector<ShardCounters> DataStore::shard_counters() const {
  std::vector<ShardCounters> out;
  out.reserve(shards_.size() * static_cast<std::size_t>(shard_count()));
  for (Namespace ns : kAllNamespaces) {
    const auto& group = shards_[ns_index(ns)];
    for (std::size_t i = 0; i < group.size(); ++i) {
      out.push_back(ShardCounters{ns, static_cast<int>(i),
                                  group[i]->record_count(),
                                  group[i]->ingested_bytes(),
                                  group[i]->batch_count()});
    }
  }
  return out;
}

const TimedRecord* StoreView::latest(Namespace ns,
                                     const std::string& source) const {
  const TimedRecord* best = nullptr;
  for (int i = 0; i < store_->shard_count(); ++i) {
    const TimedRecord* candidate = store_->read_shard(ns, i).latest(source);
    // Strict > keeps the lowest shard index on time ties — deterministic.
    if (candidate != nullptr &&
        (best == nullptr || candidate->time > best->time)) {
      best = candidate;
    }
  }
  return best;
}

std::vector<const TimedRecord*> StoreView::series(
    Namespace ns, const std::string& source) const {
  std::vector<std::vector<const TimedRecord*>> parts;
  parts.reserve(static_cast<std::size_t>(store_->shard_count()));
  for (int i = 0; i < store_->shard_count(); ++i) {
    parts.push_back(store_->read_shard(ns, i).series(source));
  }
  return merge_sorted(std::move(parts));
}

std::vector<const TimedRecord*> StoreView::range(Namespace ns,
                                                 const std::string& source,
                                                 SimTime from,
                                                 SimTime to) const {
  std::vector<std::vector<const TimedRecord*>> parts;
  parts.reserve(static_cast<std::size_t>(store_->shard_count()));
  for (int i = 0; i < store_->shard_count(); ++i) {
    parts.push_back(store_->read_shard(ns, i).range(source, from, to));
  }
  return merge_sorted(std::move(parts));
}

std::vector<std::string> StoreView::sources(Namespace ns) const {
  std::vector<std::string> out;
  for (int i = 0; i < store_->shard_count(); ++i) {
    std::vector<std::string> part = store_->read_shard(ns, i).sources();
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::uint64_t StoreView::record_count(Namespace ns) const {
  std::uint64_t total = 0;
  for (int i = 0; i < store_->shard_count(); ++i) {
    total += store_->read_shard(ns, i).record_count();
  }
  return total;
}

std::uint64_t StoreView::total_records() const {
  std::uint64_t total = 0;
  for (Namespace ns : kAllNamespaces) total += record_count(ns);
  return total;
}

std::uint64_t StoreView::ingested_bytes(Namespace ns) const {
  std::uint64_t total = 0;
  for (int i = 0; i < store_->shard_count(); ++i) {
    total += store_->read_shard(ns, i).ingested_bytes();
  }
  return total;
}

}  // namespace soma::core
