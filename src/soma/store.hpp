// SOMA service-side data store: per-namespace shard groups over pluggable
// storage backends.
//
// Each namespace instance's storage is split into shards — one per service
// rank when owned by a SomaService, one total for offline stores (tools,
// import, tests). Appends route to a shard by the same stable source hash
// the client stub uses for rank affinity, so the shard a rank owns is
// exactly the shard its publishes land in. Reads scatter-gather across the
// shard group through StoreView, the interface every analysis routine and
// experiment consumes: a source that failed over between ranks (and so
// spans shards) still reads back as one merged, time-sorted series.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
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
  /// `config.shards_per_namespace == 0` (auto) collapses to one shard —
  /// the offline default. The SOMA service passes its rank count instead.
  explicit DataStore(StorageConfig config = {});

  [[nodiscard]] const StorageConfig& config() const { return config_; }
  [[nodiscard]] StorageBackendKind backend_kind() const {
    return config_.backend;
  }
  /// Shards per namespace group (uniform across namespaces).
  [[nodiscard]] int shard_count() const {
    return static_cast<int>(shards_[0].size());
  }

  /// The shard `source` routes to (same hash as SomaClient rank affinity).
  [[nodiscard]] int shard_index_for(const std::string& source) const;

  /// Direct shard access. A service rank appends into its own shard here;
  /// `index` wraps modulo the shard count so a service forced to fewer
  /// shards than ranks still maps every rank somewhere.
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

  /// Scatter-gather read facade over every shard of every namespace: the
  /// store's only cross-shard read API.
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

/// Read-only scatter-gather interface over a DataStore's shard groups.
///
/// This is the seam analysis routines program against (`Analyzer` takes a
/// `const StoreView&`): they see one logical store per namespace no matter
/// how many shards or which backend sit underneath. Merge semantics:
///   * series/range — per-shard series merged time-ascending; ties keep
///     shard order (deterministic across runs).
///   * latest       — the newest record over all shards; ties resolve to
///     the lowest shard index.
///   * sources      — union of shard sources, sorted, deduplicated.
/// The view borrows the store: it stays valid while the store does, and
/// returned record pointers are valid until the next append.
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
  const DataStore* store_;
};

}  // namespace soma::core
