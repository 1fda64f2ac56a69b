// Shard replication with heartbeat failure detection and crash recovery.
//
// Clients survive collector crashes by buffering and replaying to the
// source's home rank, but records already appended on a crashed rank were
// simply gone: its shard lived only in that rank's memory, and every
// StoreView read over the crash window returned a hole. This layer makes the sharded store itself durable,
// the same shape as LDMS aggregator redundancy:
//
//   * Replication — every publish a rank ingests (single-record and batch)
//     is appended to a per-shard replication log and asynchronously shipped
//     to the `factor - 1` successor ranks on the namespace instance's ring
//     (successor of shard s is shard (s+1) % ranks — the same stable ring
//     the FNV source hash routes over). Shipping reuses the PR 4 batch frame
//     behind a small replication prefix, and the PR 2 retry/backoff policy;
//     each (shard, peer) link keeps one window in flight and advances on the
//     peer's cumulative ack, so replicas apply records exactly once and in
//     home-shard order. The log holds each record as the Node::pack bytes
//     it arrived in, copied from the request frame, and shipping appends
//     them verbatim; only a recovery snapshot packs (once per record).
//
//   * Failure detection — a deterministic heartbeat loop (one PeriodicTask
//     per rank, start phases staggered by an Rng seeded like the fault
//     layer, so same-seed runs are bit-identical) has each rank probe its
//     successors. Consecutive misses mark a rank suspected, then dead; a
//     dead (or wiped) rank's StoreView reads are routed to the freshest live
//     replica of its shard until it recovers. `replica_lag_records`
//     (log records not yet acked by every replica) is surfaced per shard
//     through export_shard_report and the soma.query "shards" RPC.
//
//   * Crash recovery — each rank's tick polls the fault injector for its own
//     endpoint. On the down transition the rank's memory is wiped (primary
//     shard, replication log, held replicas), modeling a process restart; on
//     the up transition the rank anti-entropy re-syncs: it snapshots the
//     freshest live replica of its shard and streams it back in resync
//     chunks — the same cumulative-ack window and `ship` path as a replica
//     link, with the holder as sender — re-appending each record to the
//     primary shard AND the replication log (so its own replicas heal too),
//     then rejoins the read set. Live primaries re-ship their full logs to the recovered rank so
//     the replicas it held are rebuilt by the ordinary replication path.
//
// Replication is OFF by default (factor <= 1 constructs nothing), keeping
// fault-free fig10/fig11 byte-identical to the unreplicated pipeline.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "net/rpc.hpp"
#include "sim/simulation.hpp"
#include "soma/namespaces.hpp"
#include "soma/store.hpp"

namespace soma::core {

struct ReplicationConfig {
  /// Copies of each shard, including the primary. 1 = replication off.
  /// Clamped to the namespace instance size.
  int factor = 1;
  /// Seeds the heartbeat phase stagger (deterministic, like FaultConfig).
  std::uint64_t seed = 1;
  /// Heartbeat probe period per rank; a rank is declared dead after three
  /// consecutive missed probes.
  Duration heartbeat_period = Duration::seconds(5.0);
  /// Per-probe response timeout (single attempt; a miss is a miss).
  Duration heartbeat_timeout = Duration::seconds(2.0);
  /// Records per replication / resync frame window.
  std::size_t max_batch_records = 64;

  [[nodiscard]] bool enabled() const { return factor > 1; }
};

/// Failure-detector verdict for one rank, as routing sees it.
enum class RankHealth {
  kLive = 0,
  kSuspected = 1,  ///< missed probes; still in the read set
  kDead = 2,       ///< reads routed to the freshest live replica
  kRecovering = 3  ///< restarted; re-syncing before rejoining the read set
};

[[nodiscard]] std::string_view to_string(RankHealth health);

/// Aggregate replication counters (deployment reliability totals, export).
struct ReplicationStats {
  std::uint64_t records_replicated = 0;  ///< log entries acked by a replica
  std::uint64_t frames_sent = 0;         ///< replication + resync frames
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_missed = 0;
  std::uint64_t suspected_transitions = 0;
  std::uint64_t dead_transitions = 0;
  std::uint64_t crash_wipes = 0;          ///< rank memory losses observed
  std::uint64_t recoveries_started = 0;
  std::uint64_t recoveries_completed = 0;
  std::uint64_t resync_records = 0;       ///< records restored via resync
};

/// Per-shard replication status row (export_shard_report, "shards" query).
struct ReplicationShardStatus {
  Namespace ns = Namespace::kWorkflow;
  int shard = 0;
  RankHealth health = RankHealth::kLive;
  std::uint64_t log_records = 0;
  /// Log records not yet acknowledged by every replica of this shard.
  std::uint64_t replica_lag_records = 0;
};

/// Replication + recovery engine of one SomaService. Constructed only when
/// `config.factor > 1`; owns the replica backends, the per-shard logs, and
/// the heartbeat tasks. The service's store has one shard per rank, so
/// "rank" and "shard" are interchangeable below.
class ReplicationManager {
 public:
  ReplicationManager(net::Network& network, DataStore& store,
                     ReplicationConfig config);
  ~ReplicationManager();
  ReplicationManager(const ReplicationManager&) = delete;
  ReplicationManager& operator=(const ReplicationManager&) = delete;

  /// Register one service rank (called by SomaService during bring-up, in
  /// namespace-major rank order). Defines the soma.replicate and
  /// soma.heartbeat RPCs on the rank's engine.
  void add_rank(Namespace ns, int shard, net::Engine& engine);

  /// Start the heartbeat tasks (after every rank is added). Phases are
  /// staggered deterministically from `config.seed`.
  void start();

  /// Stop the heartbeat tasks so the simulation can drain to quiescence
  /// (end-of-run teardown; in-flight replication RPCs still complete).
  void stop();

  /// Hook called by the publish handlers for every record ingested by the
  /// home shard: appends the record's Node::pack encoding `packed`, copied
  /// from the request frame, to the replication log and kicks the shipper.
  void on_append(Namespace ns, int shard, const std::string& source,
                 SimTime time, std::span<const std::byte> packed);

  [[nodiscard]] const ReplicationConfig& config() const { return config_; }
  [[nodiscard]] const ReplicationStats& stats() const { return stats_; }

  [[nodiscard]] RankHealth health(Namespace ns, int shard) const;
  /// Log records of (ns, shard) not yet acked by every replica.
  [[nodiscard]] std::uint64_t replica_lag(Namespace ns, int shard) const;
  /// All shards' status rows, namespace-major then shard order.
  [[nodiscard]] std::vector<ReplicationShardStatus> shard_status() const;

  /// The replica of (ns, home_shard) held by `holder_shard`, or nullptr if
  /// that rank holds none. Test/inspection access.
  [[nodiscard]] const StorageBackend* replica(Namespace ns, int home_shard,
                                              int holder_shard) const;

  /// The packed record of entry `index` of (ns, shard)'s replication log,
  /// exactly the payload bytes shipped for it. Test/inspection access.
  [[nodiscard]] std::span<const std::byte> logged_record(
      Namespace ns, int shard, std::size_t index) const;

 private:
  /// One replication log entry. The record is held as its Node::pack
  /// encoding, copied from the frame it arrived in and shipped verbatim.
  struct LogEntry {
    std::string source;
    SimTime time;
    std::vector<std::byte> packed;
  };

  /// One cumulative-ack shipping window over a sequence of log entries.
  struct Window {
    std::size_t acked = 0;   ///< entries the receiver has acknowledged
    bool in_flight = false;  ///< one frame outstanding at a time
    bool stalled = false;    ///< retries exhausted; re-kicked by the tick
  };

  /// Shipping state of one (home shard -> replica holder) link.
  struct PeerLink {
    std::size_t peer = 0;  ///< holder's index into ranks_
    Window window;
  };

  /// Anti-entropy stream rebuilding one recovering primary (the rank that
  /// owns it). The entries are snapshotted (each record packed once) at
  /// recovery start; `source` is the holder whose engine streams them.
  struct Resync {
    std::size_t source = 0;
    std::vector<LogEntry> entries;
    Window window;
  };

  /// A replica one rank holds of another rank's shard.
  struct HeldReplica {
    std::unique_ptr<StorageBackend> backend;
    std::uint64_t applied = 0;  ///< records applied (cumulative ack)
  };

  struct Rank {
    Namespace ns = Namespace::kWorkflow;
    int shard = 0;
    net::Engine* engine = nullptr;
    RankHealth health = RankHealth::kLive;
    int missed_heartbeats = 0;
    /// Injector ground truth at this rank's last self-poll.
    bool down = false;
    /// Memory lost to a crash and not yet restored by resync (set by the
    /// wipe, cleared when recovery finishes; resync runs while it is set).
    bool wiped = false;
    /// Bumped on every wipe; async callbacks capture it and drop themselves
    /// when stale, so a restarted process never acts on pre-crash futures.
    std::uint64_t epoch = 0;
    std::vector<LogEntry> log;
    std::vector<PeerLink> links;  ///< successors holding this shard's replicas
    /// Replicas this rank holds FOR other primaries, by home rank index.
    std::map<std::size_t, HeldReplica> replicas;
    /// Resync records applied since this rank last began recovering.
    std::uint64_t resync_applied = 0;
    std::unique_ptr<sim::PeriodicTask> heartbeat;
    std::unique_ptr<Resync> resync;
  };

  [[nodiscard]] std::size_t rank_at(Namespace ns, int shard) const;
  [[nodiscard]] bool endpoint_down_now(const Rank& rank) const;

  void tick(std::size_t index);
  void send_heartbeats(std::size_t index);
  void wipe(std::size_t index);
  void begin_recovery(std::size_t index);
  void finish_recovery(std::size_t index);
  void send_resync_chunk(std::size_t target_index);
  void maybe_send(std::size_t index, std::size_t link_index);
  /// Ship the next window of one stream owned by rank `owner`: its link
  /// `link` (replica append, sent by the owner) or, for kResyncLink, its
  /// resync (sent by the source holder to the owner). The owner's epoch
  /// stales its completion: a wipe or a new recovery replaces the stream.
  void ship(std::size_t owner, std::size_t link);
  /// Freshest live holder of `index`'s shard (ties resolve to the nearest
  /// successor), or ranks_.size() when no holder is live.
  [[nodiscard]] std::size_t freshest_holder(std::size_t index) const;
  void record_missed_heartbeat(std::size_t target_index);
  void record_heartbeat_ack(std::size_t target_index);
  /// Install or clear the read-route override of one rank's shard.
  void update_read_route(std::size_t index);
  void update_instance_read_routes(Namespace ns);
  /// Apply one record at a recovering rank: primary shard + replication log.
  void apply_resync_record(Rank& rank, const std::string& source, SimTime time,
                           std::span<const std::byte> packed);
  datamodel::Node handle_replicate(std::size_t holder_index,
                                   std::span<const std::byte> body);

  /// `ship` link index of a rank's resync stream.
  static constexpr std::size_t kResyncLink = static_cast<std::size_t>(-1);

  net::Network& network_;
  DataStore& store_;
  ReplicationConfig config_;
  std::vector<Rank> ranks_;
  /// Rank indices per namespace, in shard order.
  std::array<std::vector<std::size_t>, kAllNamespaces.size()> instances_{};
  ReplicationStats stats_;
  bool started_ = false;
};

}  // namespace soma::core
