#include "soma/log_backend.hpp"

#include <algorithm>

namespace soma::core {
namespace {

std::vector<const TimedRecord*>::const_iterator lower_bound_time(
    const std::vector<const TimedRecord*>& index, SimTime t) {
  return std::lower_bound(
      index.begin(), index.end(), t,
      [](const TimedRecord* record, SimTime at) { return record->time < at; });
}

std::vector<const TimedRecord*>::const_iterator upper_bound_time(
    std::vector<const TimedRecord*>::const_iterator first,
    std::vector<const TimedRecord*>::const_iterator last, SimTime t) {
  return std::upper_bound(
      first, last, t,
      [](SimTime at, const TimedRecord* record) { return at < record->time; });
}

}  // namespace

LogBackend::LogBackend(std::size_t latest_cache_capacity)
    : cache_capacity_(std::max<std::size_t>(1, latest_cache_capacity)) {}

bool LogBackend::append_indexed(const std::string& source, SimTime time,
                                datamodel::Node data,
                                std::size_t packed_bytes) {
  bytes_ += packed_bytes;
  ++records_;
  log_.push_back(TimedRecord{time, std::move(data)});
  const TimedRecord* stored = &log_.back();

  std::vector<const TimedRecord*>& index = index_[source];
  const bool is_newest = index.empty() || !(time < index.back()->time);
  if (is_newest) {
    index.push_back(stored);
  } else {
    // Late arrival (replayed publish): keep the index time-sorted.
    const auto at = upper_bound_time(index.begin(), index.end(), time);
    index.insert(index.begin() + (at - index.cbegin()), stored);
  }
  return is_newest;
}

void LogBackend::append(const std::string& source, SimTime time,
                        datamodel::Node data, std::size_t packed_bytes) {
  const bool is_newest =
      append_indexed(source, time, std::move(data), packed_bytes);

  // Keep the snapshot cache coherent: a cached entry must always point at
  // the newest record of its source.
  const TimedRecord* stored = &log_.back();
  const auto cached = cache_map_.find(source);
  if (cached != cache_map_.end()) {
    if (is_newest) cached->second->record = stored;
  } else if (is_newest) {
    cache_put(source, stored);
  }
}

void LogBackend::append_batch(std::vector<BatchItem> items) {
  if (items.empty()) return;
  ++batches_;
  // Index every record first, then reconcile the snapshot cache once per
  // touched source — the single cache update per source is the point of the
  // batch path (cache semantics match sequential appends: a source gains or
  // refreshes a cache entry only if the batch advanced its newest record).
  std::vector<const std::string*> newest_touched;
  for (BatchItem& item : items) {
    const std::size_t packed_bytes = item.data.packed_size();
    const bool is_newest = append_indexed(item.source, item.time,
                                          std::move(item.data), packed_bytes);
    if (is_newest &&
        (newest_touched.empty() || *newest_touched.back() != item.source)) {
      newest_touched.push_back(&item.source);
    }
  }
  for (const std::string* source : newest_touched) {
    const TimedRecord* newest = index_[*source].back();
    const auto cached = cache_map_.find(*source);
    if (cached != cache_map_.end()) {
      cached->second->record = newest;
    } else {
      cache_put(*source, newest);
    }
  }
}

void LogBackend::clear() {
  // The cache holds pointers into the log, so it must go with it.
  cache_map_.clear();
  cache_.clear();
  index_.clear();
  log_.clear();
  records_ = 0;
  bytes_ = 0;
  batches_ = 0;
  hits_ = 0;
  misses_ = 0;
}

const TimedRecord* LogBackend::touch(
    std::list<CacheEntry>::iterator it) const {
  cache_.splice(cache_.begin(), cache_, it);
  return it->record;
}

void LogBackend::cache_put(const std::string& source,
                           const TimedRecord* record) const {
  if (cache_.size() >= cache_capacity_) {
    cache_map_.erase(cache_.back().source);
    cache_.pop_back();
  }
  cache_.push_front(CacheEntry{source, record});
  cache_map_[source] = cache_.begin();
}

const TimedRecord* LogBackend::latest(const std::string& source) const {
  const auto cached = cache_map_.find(source);
  if (cached != cache_map_.end()) {
    ++hits_;
    return touch(cached->second);
  }
  ++misses_;
  const auto it = index_.find(source);
  if (it == index_.end() || it->second.empty()) return nullptr;
  const TimedRecord* record = it->second.back();
  cache_put(source, record);
  return record;
}

std::vector<const TimedRecord*> LogBackend::series(
    const std::string& source) const {
  const auto it = index_.find(source);
  return it == index_.end() ? std::vector<const TimedRecord*>{} : it->second;
}

std::vector<const TimedRecord*> LogBackend::range(const std::string& source,
                                                  SimTime from,
                                                  SimTime to) const {
  std::vector<const TimedRecord*> out;
  const auto it = index_.find(source);
  if (it == index_.end()) return out;
  const auto first = lower_bound_time(it->second, from);
  const auto last = upper_bound_time(first, it->second.cend(), to);
  out.assign(first, last);
  return out;
}

std::vector<std::string> LogBackend::sources() const {
  std::vector<std::string> out;
  out.reserve(index_.size());
  for (const auto& [source, index] : index_) out.push_back(source);
  return out;
}

}  // namespace soma::core
