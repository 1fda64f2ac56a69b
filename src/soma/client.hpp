// SOMA client stub (paper §2.2.1).
//
// The client stub runs inside the address space of the component being
// instrumented (a monitor daemon, the TAU plugin, or an application task).
// It owns a small RPC engine bound at the host node and translates the
// monitoring API into RPCs against the namespace instance it was given.
// Records from one source always go to the same service rank (hash
// affinity) so per-source time series stay ordered.
//
// Reliability (optional, off by default): a `ClientReliability` config arms
// per-publish retry/timeout. A retry-only client counts a call that exhausts
// its retries and moves on. With `buffer_on_failure` as well, the client
// degrades instead: it marks the collector down, buffers publishes locally,
// probes the dead collector with `soma.ping`, and replays the buffer in
// original publish order — with original timestamps — once the collector
// answers again. Each publish, batch or ping call has one engine
// completion, and an ack's body is never read. The client keeps no copy of
// a record it sends: the engine keeps the frame for retransmission and hands
// a failed call's request body to the completion, which decodes the records.
// A source's records never leave its home rank, so each source's series
// lives in one shard. The default config takes none of these paths, so
// fault-free runs are byte-identical to the pre-reliability client.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "datamodel/node.hpp"
#include "net/rpc.hpp"
#include "sim/simulation.hpp"
#include "soma/batcher.hpp"
#include "soma/namespaces.hpp"

namespace soma::core {

/// How a client behaves when its collector stops answering.
struct ClientReliability {
  /// Per-publish retry policy. Disabled (zero timeout) = historical
  /// behaviour: one send, wait forever, no failure detection.
  net::RetryPolicy retry{};
  /// Buffer publishes while the target rank is down and replay them (in
  /// original order, with original timestamps) after it recovers.
  bool buffer_on_failure = false;
  /// How often a degraded client pings its dead collector.
  Duration probe_period = Duration::seconds(5);
  /// Buffer capacity; older records are dropped (and counted) beyond it.
  std::size_t max_buffered = 4096;

  [[nodiscard]] bool degradation_enabled() const {
    return retry.enabled() && buffer_on_failure;
  }
};

class SomaClient {
 public:
  /// Statistics a client keeps about its own publishing behaviour; the
  /// scaling experiments read the ack latency to check SOMA "keeps pace".
  struct ClientStats {
    std::uint64_t published = 0;
    std::uint64_t acked = 0;
    // Reliability layer (all zero with the default config).
    std::uint64_t publish_failures = 0;  ///< retry budgets exhausted
    std::uint64_t buffered = 0;          ///< publishes parked in the buffer
    std::uint64_t replayed = 0;          ///< buffered publishes re-sent
    std::uint64_t dropped_overflow = 0;  ///< buffer-capacity evictions
    /// Buffer-capacity evictions of records that arrived via a failed batch
    /// (kept distinct from dropped_overflow so reliability totals stay exact
    /// under batching + faults).
    std::uint64_t dropped_batch_records = 0;
    std::uint64_t batches_sent = 0;      ///< publish_batch frames sent
    Duration total_ack_latency;
    Duration max_ack_latency;

    [[nodiscard]] Duration mean_ack_latency() const {
      return acked == 0 ? Duration::zero() : total_ack_latency / double(acked);
    }
  };

  /// `node` is where the instrumented component runs; `instance_ranks` are
  /// the service addresses of the target namespace instance; `port` must be
  /// unique per client on that node.
  SomaClient(net::Network& network, NodeId node, int port, Namespace ns,
             const std::vector<net::Address>& instance_ranks,
             ClientReliability reliability = {}, BatchingConfig batching = {});
  ~SomaClient();
  SomaClient(const SomaClient&) = delete;
  SomaClient& operator=(const SomaClient&) = delete;

  [[nodiscard]] Namespace target_namespace() const { return ns_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] const ClientStats& stats() const { return stats_; }
  [[nodiscard]] const net::EngineStats& engine_stats() const {
    return engine_->stats();
  }
  /// Batcher flush statistics (zeroed when batching is off).
  [[nodiscard]] PublishBatcher::Stats batcher_stats() const {
    return batcher_ ? batcher_->stats() : PublishBatcher::Stats{};
  }

  /// True while at least one target rank is considered down (publishes to
  /// it are buffered). Only a degrading client marks ranks down, and its
  /// probe marks them back up.
  [[nodiscard]] bool degraded() const { return ranks_down_ > 0; }
  /// Publishes currently parked awaiting collector recovery.
  [[nodiscard]] std::size_t buffered_pending() const { return buffer_.size(); }

  /// Publish `data` under `source` (hostname, task uid, ...). `on_ack`
  /// (optional) fires when the service acknowledges.
  void publish(const std::string& source, datamodel::Node data,
               std::function<void()> on_ack = nullptr);

  /// Ship any coalesced-but-unflushed batches now. No-op when batching is
  /// off; owners call this on shutdown so the tail of a run is not lost.
  void flush_batches();

  /// Query the service (kind = "latest" / "sources" / "stats"; see
  /// SomaService). The reply arrives asynchronously.
  void query(datamodel::Node request,
             std::function<void(datamodel::Node)> on_reply);

 private:
  /// One publish parked while its collector is down.
  struct Buffered {
    std::string source;
    datamodel::Node data;
    SimTime published_at;
    std::function<void()> on_ack;
    bool from_batch = false;  ///< arrived via a failed batch
  };

  /// The source's home rank: every publish from `source` ships there.
  [[nodiscard]] std::size_t rank_index_for(const std::string& source) const;

  void send_publish(const std::string& source, const datamodel::Node& data,
                    SimTime published_at, std::function<void()> on_ack,
                    bool replay, bool from_batch = false);
  void send_batch(std::size_t rank_index, PublishBatcher::Batch batch);
  /// Count `count` records acked by one reply to a call sent at `sent_at`.
  void record_acks(SimTime sent_at, std::size_t count);
  void enqueue_buffered(Buffered record);
  /// Count one failed record. A degrading client marks `rank_index` down and
  /// buffers the record; a retry-only client only counts it.
  void on_publish_failure(std::size_t rank_index, Buffered record);
  /// Replay buffered publishes whose target rank is back up, oldest first.
  void flush_buffer();
  void ensure_probe_running();
  /// Mark a target rank down or back up, keeping ranks_down_ in step.
  void set_rank_down(std::size_t rank_index, bool down);
  void probe_tick();

  net::Network& network_;
  Namespace ns_;
  /// The instance's ranks, in shard order.
  std::vector<net::EndpointId> instance_ranks_;
  ClientReliability reliability_;
  std::unique_ptr<net::Engine> engine_;
  std::unique_ptr<PublishBatcher> batcher_;  ///< null when batching is off
  std::vector<char> rank_down_;       // 1 = considered down
  std::size_t ranks_down_ = 0;        // count of 1s in rank_down_
  std::vector<char> probe_in_flight_; // 1 = ping outstanding
  std::deque<Buffered> buffer_;
  std::unique_ptr<sim::PeriodicTask> probe_task_;
  ClientStats stats_;
};

}  // namespace soma::core
