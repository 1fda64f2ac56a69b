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

void LogBackend::append(const std::string& source, SimTime time,
                        datamodel::Node data, std::size_t packed_bytes) {
  bytes_ += packed_bytes;
  ++records_;
  log_.push_back(TimedRecord{time, std::move(data)});
  const TimedRecord* stored = &log_.back();

  std::vector<const TimedRecord*>& index = index_[source];
  if (index.empty() || !(time < index.back()->time)) {
    index.push_back(stored);
  } else {
    // Late arrival (replayed publish): keep the index time-sorted.
    const auto at = upper_bound_time(index.begin(), index.end(), time);
    index.insert(index.begin() + (at - index.cbegin()), stored);
  }
}

void LogBackend::append_batch(std::vector<BatchItem> items) {
  if (items.empty()) return;
  ++batches_;
  for (BatchItem& item : items) {
    const std::size_t packed_bytes = item.data.packed_size();
    append(item.source, item.time, std::move(item.data), packed_bytes);
  }
}

void LogBackend::clear() {
  index_.clear();
  log_.clear();
  records_ = 0;
  bytes_ = 0;
  batches_ = 0;
}

const TimedRecord* LogBackend::latest(const std::string& source) const {
  const auto it = index_.find(source);
  if (it == index_.end() || it->second.empty()) return nullptr;
  return it->second.back();
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
