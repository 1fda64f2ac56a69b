// Client-side publish coalescing (paper §scaling: observability cost is
// message count × per-message service time).
//
// A `PublishBatcher` buffers publish records per target service rank and
// flushes each rank's open batch as one `soma.publish_batch` frame when any
// of three triggers fires:
//   - record count reaches `max_records` (the primary knob),
//   - the encoded body reaches `max_bytes` (bounds frame size), or
//   - the oldest record has waited `max_delay` (bounds staleness).
// Records are packed into the wire body as they arrive, so the byte trigger
// costs no second encoding pass and the flush only copies the finished body
// behind a frame header.
//
// The batcher is policy-free about delivery: the owner (SomaClient) supplies
// the flush function. The packed body is the only copy of a batch's records;
// when a batch fails, the RPC engine hands its kept body back and the owner
// decodes each record, with its original timestamp, from it. A batch keeps
// only what the body cannot carry: each record's ack callback.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "datamodel/node.hpp"
#include "net/wire.hpp"
#include "sim/simulation.hpp"

namespace soma::core {

/// Coalescing policy for one client. Disabled by default (`max_records` 0):
/// every publish ships as its own RPC and runs are byte-identical to the
/// unbatched client.
struct BatchingConfig {
  /// Flush when a rank's open batch holds this many records; 0 disables
  /// batching entirely.
  std::size_t max_records = 0;
  /// Flush when the encoded batch body reaches this size; 0 = unbounded.
  std::size_t max_bytes = 64 * 1024;
  /// Flush when the oldest buffered record has waited this long.
  Duration max_delay = Duration::milliseconds(50);

  [[nodiscard]] bool enabled() const { return max_records > 0; }
};

class PublishBatcher {
 public:
  /// One flushed batch: the encoded wire body and, in record order, each
  /// record's ack callback (null when its publisher set none).
  struct Batch {
    net::wire::BatchBodyWriter body;
    std::vector<std::function<void()>> on_acks;
  };

  struct Stats {
    std::uint64_t batches_flushed = 0;
    std::uint64_t records_batched = 0;
    std::uint64_t size_flushes = 0;   ///< max_records trigger
    std::uint64_t byte_flushes = 0;   ///< max_bytes trigger
    std::uint64_t delay_flushes = 0;  ///< max_delay timer trigger
  };

  using FlushFn = std::function<void(std::size_t rank_index, Batch batch)>;

  PublishBatcher(sim::Simulation& simulation, std::string ns,
                 std::size_t rank_count, BatchingConfig config, FlushFn flush);
  ~PublishBatcher();
  PublishBatcher(const PublishBatcher&) = delete;
  PublishBatcher& operator=(const PublishBatcher&) = delete;

  /// Buffer one record for `rank_index`. `data` is packed into the wire body
  /// immediately and not kept. May flush synchronously when a size/byte
  /// trigger fires.
  void add(std::size_t rank_index, const std::string& source,
           const datamodel::Node& data, SimTime published_at,
           std::function<void()> on_ack);

  /// Flush `rank_index`'s open batch now (no-op when empty).
  void flush(std::size_t rank_index);
  /// Flush every rank's open batch (shutdown path).
  void flush_all();

  /// Records buffered across all ranks, awaiting a flush trigger.
  [[nodiscard]] std::size_t pending_records() const;
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const BatchingConfig& config() const { return config_; }

 private:
  struct PerRank {
    std::optional<Batch> open;
    sim::EventHandle timer;
  };

  sim::Simulation& simulation_;
  std::string ns_;
  BatchingConfig config_;
  FlushFn flush_;
  std::vector<PerRank> ranks_;
  Stats stats_;
};

}  // namespace soma::core
