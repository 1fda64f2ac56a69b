// SOMA service-side data store: per-namespace shard groups over pluggable
// storage backends.
//
// Each namespace instance's storage is split into shards — one per service
// rank when owned by a SomaService, one total for offline stores (tools,
// import, tests). Every source has one home shard, picked by the same stable
// source hash the client stub uses for rank affinity: the rank a source
// publishes to owns that shard, and the service refuses a record that
// reaches any other rank. Reads go through StoreView, the interface every
// analysis routine and experiment consumes; a per-source read touches only
// the source's home shard.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "soma/namespaces.hpp"
#include "soma/storage_backend.hpp"

namespace soma::core {

class StoreView;

/// Per-shard ingest counters (shard balance reporting, Table 1/2).
struct ShardCounters {
  Namespace ns = Namespace::kWorkflow;
  int shard = 0;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t batches = 0;  ///< append_batch calls absorbed
};

class DataStore {
 public:
  /// `shard_count` shards per namespace group: one for offline stores, one
  /// per rank of a namespace instance for a SomaService. Throws ConfigError
  /// below 1.
  explicit DataStore(StorageConfig config = {}, int shard_count = 1);

  [[nodiscard]] const StorageConfig& config() const { return config_; }
  [[nodiscard]] StorageBackendKind backend_kind() const {
    return config_.backend;
  }
  /// Shards per namespace group (uniform across namespaces).
  [[nodiscard]] int shard_count() const {
    return static_cast<int>(shards_[0].size());
  }

  /// The shard `source` routes to (same hash as SomaClient rank affinity).
  [[nodiscard]] int shard_index_for(std::string_view source) const;

  /// Direct shard access. A service rank appends into its own shard here;
  /// `index` is in [0, shard_count()).
  [[nodiscard]] StorageBackend& shard(Namespace ns, int index);
  [[nodiscard]] const StorageBackend& shard(Namespace ns, int index) const;

  /// Append routed by source hash (offline import, direct store use).
  void append(Namespace ns, const std::string& source, SimTime time,
              datamodel::Node data);

  // ---- read-route overrides (replication failover) ----------------------
  // The replication layer points a dead or recovering shard's reads at the
  // freshest live replica; appends and shard_counters always address the
  // primary. `backend` is borrowed and must outlive the override.
  void set_read_override(Namespace ns, int index, const StorageBackend* backend);
  void clear_read_override(Namespace ns, int index);
  /// The backend reads of shard `index` resolve to: the override when one is
  /// installed, the primary otherwise. All StoreView reads go through this.
  [[nodiscard]] const StorageBackend& read_shard(Namespace ns, int index) const;

  /// Read facade over every shard of every namespace: the store's only
  /// cross-shard read API.
  [[nodiscard]] StoreView view() const;

  /// Per-shard counters, namespace-major then shard order.
  [[nodiscard]] std::vector<ShardCounters> shard_counters() const;

 private:
  using ShardGroup = std::vector<std::unique_ptr<StorageBackend>>;

  StorageConfig config_;
  std::array<ShardGroup, kAllNamespaces.size()> shards_;
  /// Per-shard read overrides; nullptr = read the primary.
  std::array<std::vector<const StorageBackend*>, kAllNamespaces.size()>
      read_overrides_;
};

/// Read-only interface over a DataStore's shard groups.
///
/// This is the seam analysis routines program against (`Analyzer` takes a
/// `const StoreView&`): they see one logical store per namespace no matter
/// how many shards or which backend sit underneath. latest/series/range
/// read only the source's home shard (through read_shard, so a replication
/// read override applies); sources sorts the shards' disjoint source sets;
/// the counts sum over shards. The view borrows the store: it stays valid
/// while the store does, and returned record pointers are valid until the
/// next append.
class StoreView {
 public:
  explicit StoreView(const DataStore& store) : store_(&store) {}

  [[nodiscard]] const DataStore& store() const { return *store_; }
  [[nodiscard]] int shard_count() const { return store_->shard_count(); }

  [[nodiscard]] const TimedRecord* latest(Namespace ns,
                                          const std::string& source) const;
  [[nodiscard]] std::vector<const TimedRecord*> series(
      Namespace ns, const std::string& source) const;
  [[nodiscard]] std::vector<const TimedRecord*> range(
      Namespace ns, const std::string& source, SimTime from, SimTime to) const;
  [[nodiscard]] std::vector<std::string> sources(Namespace ns) const;
  [[nodiscard]] std::uint64_t record_count(Namespace ns) const;
  [[nodiscard]] std::uint64_t total_records() const;
  [[nodiscard]] std::uint64_t ingested_bytes(Namespace ns) const;

 private:
  [[nodiscard]] const StorageBackend& home_shard(
      Namespace ns, const std::string& source) const;

  const DataStore* store_;
};

}  // namespace soma::core
