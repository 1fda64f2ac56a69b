#include "soma/store.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace soma::core {
namespace {

std::size_t ns_index(Namespace ns) { return static_cast<std::size_t>(ns); }

}  // namespace

DataStore::DataStore(StorageConfig config, int shard_count)
    : config_(std::move(config)) {
  if (shard_count < 1) {
    throw ConfigError("a store needs >= 1 shard per namespace (one per rank)");
  }
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

int DataStore::shard_index_for(std::string_view source) const {
  return static_cast<int>(
      route_source(source, static_cast<std::size_t>(shard_count())));
}

StorageBackend& DataStore::shard(Namespace ns, int index) {
  return *shards_[ns_index(ns)][static_cast<std::size_t>(index)];
}

const StorageBackend& DataStore::shard(Namespace ns, int index) const {
  return *shards_[ns_index(ns)][static_cast<std::size_t>(index)];
}

void DataStore::set_read_override(Namespace ns, int index,
                                  const StorageBackend* backend) {
  read_overrides_[ns_index(ns)][static_cast<std::size_t>(index)] = backend;
}

void DataStore::clear_read_override(Namespace ns, int index) {
  set_read_override(ns, index, nullptr);
}

const StorageBackend& DataStore::read_shard(Namespace ns, int index) const {
  const StorageBackend* override_backend =
      read_overrides_[ns_index(ns)][static_cast<std::size_t>(index)];
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
  return home_shard(ns, source).latest(source);
}

std::vector<const TimedRecord*> StoreView::series(
    Namespace ns, const std::string& source) const {
  return home_shard(ns, source).series(source);
}

std::vector<const TimedRecord*> StoreView::range(Namespace ns,
                                                 const std::string& source,
                                                 SimTime from,
                                                 SimTime to) const {
  return home_shard(ns, source).range(source, from, to);
}

std::vector<std::string> StoreView::sources(Namespace ns) const {
  // Each source lives in one shard, so the shards' sets are disjoint.
  std::vector<std::string> out;
  for (int i = 0; i < store_->shard_count(); ++i) {
    std::vector<std::string> part = store_->read_shard(ns, i).sources();
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

const StorageBackend& StoreView::home_shard(Namespace ns,
                                            const std::string& source) const {
  return store_->read_shard(ns, store_->shard_index_for(source));
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
