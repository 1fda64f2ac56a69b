// Pluggable storage backends for the SOMA service-side store.
//
// A StorageBackend owns the records of ONE shard of ONE namespace instance:
// a keyspace of per-source time series. The DataStore facade (soma/store.hpp)
// composes backends into per-namespace shard groups — one shard per service
// rank — and keeps each source in the one shard its stable hash names;
// StoreView reads a source from that shard.
//
// Two implementations ship today:
//   * kMap — the historical per-source std::map of record vectors. Simple,
//     contiguous per-source storage, sorted source iteration for free.
//   * kLog — an append-only record log (stable addresses) with a sorted
//     per-source index, the layout an eviction/compression/spill-to-disk
//     backend grows out of.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "datamodel/node.hpp"

namespace soma::core {

struct TimedRecord {
  SimTime time;           ///< service-side ingest time
  datamodel::Node data;   ///< published payload
};

/// One record of a decoded publish batch, routed to a single shard.
struct BatchItem {
  std::string source;
  SimTime time;
  datamodel::Node data;
};

enum class StorageBackendKind {
  kMap = 0,  ///< per-source std::map of record vectors (default)
  kLog = 1,  ///< append-only log + sorted per-source index
};

[[nodiscard]] std::string_view to_string(StorageBackendKind kind);
/// Parse "map" / "log". Throws ConfigError on junk.
[[nodiscard]] StorageBackendKind parse_backend_kind(std::string_view text);

/// Configuration of the storage layer of one service (or offline store).
struct StorageConfig {
  StorageBackendKind backend = StorageBackendKind::kMap;
};

/// FNV-1a over the source name: stable across runs, platforms, and processes
/// (std::hash is not). Both the client's rank routing and the store's shard
/// routing use THIS hash, so a source's home rank and home shard agree.
[[nodiscard]] inline std::size_t stable_source_hash(std::string_view source) {
  std::size_t h = 1469598103934665603ULL;
  for (unsigned char c : source) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// The shard (equivalently: service rank) a source routes to in a group of
/// `count` shards.
[[nodiscard]] inline std::size_t route_source(std::string_view source,
                                              std::size_t count) {
  return count == 0 ? 0 : stable_source_hash(source) % count;
}

/// One shard's storage: per-source time series plus ingest counters.
///
/// Pointer validity: records returned by latest/series/range stay valid
/// until the next append to the same shard (the map backend may reallocate a
/// source's vector; the log backend never moves records but the contract is
/// kept uniform so callers do not depend on one implementation).
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Append a record published by `source` (hostname, task uid, ...).
  /// Series stay time-sorted even if a record arrives late (replay paths).
  /// `packed_bytes` is the size of the record's Node::pack encoding as it
  /// arrived; ingested_bytes() counts it, so the record is not walked again.
  virtual void append(const std::string& source, SimTime time,
                      datamodel::Node data, std::size_t packed_bytes) = 0;

  /// append() for a caller without the encoding at hand: measures the
  /// record with packed_size() and forwards it.
  void append(const std::string& source, SimTime time, datamodel::Node data) {
    const std::size_t packed_bytes = data.packed_size();
    append(source, time, std::move(data), packed_bytes);
  }

  /// Append a whole publish batch in one pass. Equivalent to appending the
  /// items in order — same final series, same counters — but lets an
  /// implementation amortize per-source index maintenance across the batch
  /// instead of paying it per record.
  virtual void append_batch(std::vector<BatchItem> items) = 0;

  /// Drop every record and zero every counter, as a process restart loses a
  /// rank's in-memory shard (the replication layer's crash model). The
  /// backend is reusable afterwards, indistinguishable from freshly built.
  virtual void clear() = 0;

  /// Most recent record from `source`, if any.
  [[nodiscard]] virtual const TimedRecord* latest(
      const std::string& source) const = 0;

  /// Full series for one source, time-ascending (empty if unknown).
  [[nodiscard]] virtual std::vector<const TimedRecord*> series(
      const std::string& source) const = 0;

  /// Records from `source` with time in [from, to].
  [[nodiscard]] virtual std::vector<const TimedRecord*> range(
      const std::string& source, SimTime from, SimTime to) const = 0;

  /// All sources seen, sorted.
  [[nodiscard]] virtual std::vector<std::string> sources() const = 0;

  [[nodiscard]] virtual std::uint64_t record_count() const = 0;
  /// Total packed bytes ingested (capacity planning / shard balance).
  [[nodiscard]] virtual std::uint64_t ingested_bytes() const = 0;
  /// Number of append_batch calls absorbed (batching effectiveness).
  [[nodiscard]] virtual std::uint64_t batch_count() const = 0;

  [[nodiscard]] virtual StorageBackendKind kind() const = 0;
};

/// Build a backend of `config.backend` kind (one shard's worth of storage).
[[nodiscard]] std::unique_ptr<StorageBackend> make_storage_backend(
    const StorageConfig& config);

}  // namespace soma::core
