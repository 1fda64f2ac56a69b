#include "soma/map_backend.hpp"

#include <algorithm>

namespace soma::core {
namespace {

/// First record at or after `t` in a time-sorted vector.
std::vector<TimedRecord>::const_iterator lower_bound_time(
    const std::vector<TimedRecord>& records, SimTime t) {
  return std::lower_bound(
      records.begin(), records.end(), t,
      [](const TimedRecord& record, SimTime at) { return record.time < at; });
}

}  // namespace

void MapBackend::append_into(std::vector<TimedRecord>& series, SimTime time,
                             datamodel::Node data) {
  // Series are appended at service-ingest time and so arrive time-sorted;
  // a late record (a client replaying after its rank recovers) is inserted
  // in place so the sorted-series invariant every query relies on holds
  // regardless.
  if (series.empty() || !(time < series.back().time)) {
    series.push_back(TimedRecord{time, std::move(data)});
    return;
  }
  const auto at = std::upper_bound(
      series.begin(), series.end(), time,
      [](SimTime t, const TimedRecord& record) { return t < record.time; });
  series.insert(at, TimedRecord{time, std::move(data)});
}

void MapBackend::append(const std::string& source, SimTime time,
                        datamodel::Node data, std::size_t packed_bytes) {
  bytes_ += packed_bytes;
  ++records_;
  append_into(by_source_[source], time, std::move(data));
}

void MapBackend::append_batch(std::vector<BatchItem> items) {
  if (items.empty()) return;
  ++batches_;
  // One client batch is typically runs of the same source (a monitor's tick
  // window); reuse the located series across a run to skip the map lookup.
  std::vector<TimedRecord>* series = nullptr;
  const std::string* current = nullptr;
  for (BatchItem& item : items) {
    bytes_ += item.data.packed_size();
    ++records_;
    if (current == nullptr || item.source != *current) {
      series = &by_source_[item.source];
      current = &item.source;
    }
    append_into(*series, item.time, std::move(item.data));
  }
}

void MapBackend::clear() {
  by_source_.clear();
  records_ = 0;
  bytes_ = 0;
  batches_ = 0;
}

const TimedRecord* MapBackend::latest(const std::string& source) const {
  const auto it = by_source_.find(source);
  if (it == by_source_.end() || it->second.empty()) return nullptr;
  return &it->second.back();
}

std::vector<const TimedRecord*> MapBackend::series(
    const std::string& source) const {
  std::vector<const TimedRecord*> out;
  const auto it = by_source_.find(source);
  if (it == by_source_.end()) return out;
  out.reserve(it->second.size());
  for (const TimedRecord& record : it->second) out.push_back(&record);
  return out;
}

std::vector<const TimedRecord*> MapBackend::range(const std::string& source,
                                                  SimTime from,
                                                  SimTime to) const {
  std::vector<const TimedRecord*> out;
  const auto it = by_source_.find(source);
  if (it == by_source_.end()) return out;
  const std::vector<TimedRecord>& records = it->second;
  const auto first = lower_bound_time(records, from);
  const auto last = std::upper_bound(
      first, records.end(), to,
      [](SimTime t, const TimedRecord& record) { return t < record.time; });
  out.reserve(static_cast<std::size_t>(last - first));
  for (auto record = first; record != last; ++record) {
    out.push_back(&*record);
  }
  return out;
}

std::vector<std::string> MapBackend::sources() const {
  std::vector<std::string> out;
  out.reserve(by_source_.size());
  for (const auto& [source, series] : by_source_) out.push_back(source);
  return out;  // std::map iteration is already sorted
}

}  // namespace soma::core
