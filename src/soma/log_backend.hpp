// Append-only log storage backend.
//
// Records land in one append-only log (a deque: addresses are stable for
// the life of the shard, which an eviction or spill-to-disk layer can rely
// on). A per-source index of record pointers, kept time-sorted, serves
// series/range queries; `latest` goes through a small LRU snapshot cache so
// the hot "current state of source X" path skips the index walk entirely.
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "soma/storage_backend.hpp"

namespace soma::core {

class LogBackend final : public StorageBackend {
 public:
  explicit LogBackend(std::size_t latest_cache_capacity = 128);

  using StorageBackend::append;
  void append(const std::string& source, SimTime time, datamodel::Node data,
              std::size_t packed_bytes) override;
  void append_batch(std::vector<BatchItem> items) override;
  void clear() override;
  [[nodiscard]] const TimedRecord* latest(
      const std::string& source) const override;
  [[nodiscard]] std::vector<const TimedRecord*> series(
      const std::string& source) const override;
  [[nodiscard]] std::vector<const TimedRecord*> range(
      const std::string& source, SimTime from, SimTime to) const override;
  [[nodiscard]] std::vector<std::string> sources() const override;
  [[nodiscard]] std::uint64_t record_count() const override {
    return records_;
  }
  [[nodiscard]] std::uint64_t ingested_bytes() const override {
    return bytes_;
  }
  [[nodiscard]] std::uint64_t batch_count() const override { return batches_; }
  [[nodiscard]] StorageBackendKind kind() const override {
    return StorageBackendKind::kLog;
  }

  // ---- LRU latest-snapshot cache accounting (tests, tuning) ----
  [[nodiscard]] std::uint64_t latest_cache_hits() const { return hits_; }
  [[nodiscard]] std::uint64_t latest_cache_misses() const { return misses_; }
  [[nodiscard]] std::size_t latest_cache_size() const { return cache_.size(); }
  [[nodiscard]] std::size_t latest_cache_capacity() const {
    return cache_capacity_;
  }

 private:
  struct CacheEntry {
    std::string source;
    const TimedRecord* record;
  };
  /// Move `it` to the front (most recently used) and return its record.
  const TimedRecord* touch(std::list<CacheEntry>::iterator it) const;
  /// Insert/update the cached latest snapshot for `source`.
  void cache_put(const std::string& source, const TimedRecord* record) const;
  /// Append one record into the log and `source`'s index; returns true when
  /// the record became its source's newest (cache maintenance is the
  /// caller's: once per record for append, once per source for a batch).
  bool append_indexed(const std::string& source, SimTime time,
                      datamodel::Node data, std::size_t packed_bytes);

  std::deque<TimedRecord> log_;  ///< append-only; addresses never move
  std::map<std::string, std::vector<const TimedRecord*>> index_;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t batches_ = 0;

  // LRU cache: front = most recently used. Mutable: `latest` is logically
  // const but promotes entries and records hit/miss accounting.
  std::size_t cache_capacity_;
  mutable std::list<CacheEntry> cache_;
  mutable std::map<std::string, std::list<CacheEntry>::iterator> cache_map_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace soma::core
