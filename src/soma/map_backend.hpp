// The historical DataStore layout as a StorageBackend: one std::map from
// source to a contiguous, time-sorted vector of records.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "soma/storage_backend.hpp"

namespace soma::core {

class MapBackend final : public StorageBackend {
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
  [[nodiscard]] std::uint64_t record_count() const override { return records_; }
  [[nodiscard]] std::uint64_t ingested_bytes() const override {
    return bytes_;
  }
  [[nodiscard]] std::uint64_t batch_count() const override { return batches_; }
  [[nodiscard]] StorageBackendKind kind() const override {
    return StorageBackendKind::kMap;
  }

 private:
  /// Append into an already-located series (batch path: the source lookup is
  /// paid once per source run, not once per record).
  static void append_into(std::vector<TimedRecord>& series, SimTime time,
                          datamodel::Node data);

  std::map<std::string, std::vector<TimedRecord>> by_source_;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t batches_ = 0;
};

}  // namespace soma::core
