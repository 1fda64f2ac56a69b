// Append-only log storage backend.
//
// Records land in one append-only log (a deque: addresses are stable for
// the life of the shard, which an eviction or spill-to-disk layer can rely
// on). A per-source index of record pointers, kept time-sorted, serves
// every read: `latest` is the back of the source's index.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "soma/storage_backend.hpp"

namespace soma::core {

class LogBackend final : public StorageBackend {
 public:
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

 private:
  std::deque<TimedRecord> log_;  ///< append-only; addresses never move
  std::map<std::string, std::vector<const TimedRecord*>> index_;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t batches_ = 0;
};

}  // namespace soma::core
