// SOMA-on-RP deployment orchestration (paper Fig. 2).
//
// Reproduces the bootstrap sequence of §2.3.1: once the RP agent is up,
//   (3) the SOMA service task is scheduled first (on the service nodes),
//   (4) the RP monitoring task is scheduled, co-located with the agent,
//   (5) one hardware monitoring task per compute node is scheduled,
//   (6) only then does the experiment release application tasks.
// The deployment also wires the two interference mechanisms: hardware
// monitors add per-node execution noise, and the RP monitor's CPU share on
// the agent node inflates scheduler decision cost.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "monitors/hw_monitor.hpp"
#include "monitors/rp_monitor.hpp"
#include "net/fault.hpp"
#include "profiler/tau.hpp"
#include "rp/session.hpp"
#include "soma/client.hpp"
#include "soma/service.hpp"
#include "workloads/openfoam.hpp"

namespace soma::experiments {

/// The SOMA-stack knobs a workflow run sets (paper Fig. 2): network faults,
/// client reliability, shard replication, storage and publish batching.
/// Every default is off, so a default stack reproduces the calibrated
/// baselines byte for byte. Both experiment configs derive from it; the
/// fig/table benches fill one from their flags (bench::parse_stack).
struct StackConfig {
  /// Fault injection on every cross-node link; absent = perfect fabric.
  std::optional<net::FaultConfig> faults;
  core::ClientReliability reliability{};
  /// Shard replication + crash recovery (factor 1 = off).
  core::ReplicationConfig replication{};
  /// Storage layer of the service (default: map backend, one shard per
  /// rank).
  core::StorageConfig storage{};
  /// Publish coalescing for every client (off by default).
  core::BatchingConfig batching{};

  /// The stack part of a derived config, to assign a parsed stack at once.
  StackConfig& stack() { return *this; }
};

/// What a run's SOMA stack counted, read back in one call
/// (SomaDeployment::reliability_totals): the network's drops, the clients'
/// reliability, batching and ack latency, the service's ingest, the shard
/// balance of its store and its replication. Everything but `net_drops` is
/// zero when no service was deployed.
struct StackTotals {
  std::uint64_t net_drops = 0;
  // Clients, summed over every client the deployment created.
  std::uint64_t publish_failures = 0;
  std::uint64_t dropped_overflow = 0;
  std::uint64_t dropped_batch_records = 0;
  std::uint64_t batches_sent = 0;
  std::uint64_t rpc_retries = 0;
  /// Publish -> ack latency: mean over every acked publish, and the worst.
  double mean_ack_latency_ms = 0.0;
  double max_ack_latency_ms = 0.0;
  // Service.
  std::uint64_t soma_publishes = 0;
  std::uint64_t replayed_publishes = 0;  ///< replays the service ingested
  double max_queue_delay_ms = 0.0;
  /// Shard balance: per shard index, records summed over namespaces, then
  /// min/max over shards. A wide spread means the source hash routed load
  /// unevenly over ranks.
  int store_shards = 0;
  std::uint64_t shard_records_min = 0;
  std::uint64_t shard_records_max = 0;
  // Replication (all zero when the service runs unreplicated).
  std::uint64_t records_replicated = 0;
  std::uint64_t resync_records = 0;
  std::uint64_t crash_wipes = 0;
  std::uint64_t ranks_recovered = 0;
  std::uint64_t replica_lag_records = 0;

  bool operator==(const StackTotals&) const = default;
};

enum class SomaMode {
  kNone,       ///< no SOMA nodes, no monitoring (the Fig. 11 baseline)
  kExclusive,  ///< SOMA nodes reserved; app tasks never use them
  kShared,     ///< RP may schedule app tasks on SOMA nodes' free capacity
};

[[nodiscard]] std::string_view to_string(SomaMode mode);

struct DeploymentConfig {
  SomaMode mode = SomaMode::kExclusive;
  /// Nodes for the SOMA service task; for the OpenFOAM runs this is the
  /// agent node (service co-located with RP), for scaling runs a dedicated
  /// node set.
  std::vector<NodeId> service_nodes;

  core::ServiceConfig service{};
  monitors::RpMonitorConfig rp_monitor{};
  monitors::HwMonitorConfig hw_monitor{};

  bool enable_rp_monitor = true;
  /// One hardware monitor per pilot node.
  bool enable_hw_monitors = true;

  /// First port for client-stub engines (service uses service.base_port).
  int base_client_port = 20000;

  /// Reliability policy applied to every client the deployment creates
  /// (monitors, TAU plugins, make_client). The default — no retries, no
  /// degradation — reproduces the historical perfect-transport behaviour.
  core::ClientReliability client_reliability{};

  /// Publish coalescing policy applied to every client the deployment
  /// creates. Off by default (every publish ships as its own RPC).
  core::BatchingConfig client_batching{};
};

class SomaDeployment {
 public:
  SomaDeployment(rp::Session& session, DeploymentConfig config);
  ~SomaDeployment();

  /// Submit the service + monitor tasks; `on_ready` fires when the service
  /// endpoints are live and all monitors are ticking. With mode == kNone the
  /// callback fires immediately and nothing is deployed.
  void deploy(std::function<void()> on_ready);

  /// Stop monitors and the service task (end-of-workflow control command).
  void shutdown();

  [[nodiscard]] bool deployed() const { return service_ != nullptr; }
  [[nodiscard]] core::SomaService& service();
  [[nodiscard]] monitors::RpMonitor* rp_monitor() { return rp_monitor_.get(); }
  [[nodiscard]] const std::vector<std::unique_ptr<monitors::HwMonitor>>&
  hw_monitors() const {
    return hw_monitors_;
  }

  /// Attach TAU profiling: every completed application task whose
  /// description carries an OpenFoamModel gets profiled and published to the
  /// performance namespace (paper §3.1, third data source).
  void enable_openfoam_tau(
      std::shared_ptr<const workloads::OpenFoamModel> model);

  [[nodiscard]] std::uint64_t tau_profiles_published() const;

  /// Everything the stack counted so far (see StackTotals).
  [[nodiscard]] StackTotals reliability_totals() const;
  /// Every client the deployment created (monitors, TAU plugins).
  [[nodiscard]] std::vector<const core::SomaClient*> clients() const;

  /// Build a fresh client against one namespace instance (for the adaptive
  /// advisor or application-namespace use).
  std::unique_ptr<core::SomaClient> make_client(core::Namespace ns,
                                                NodeId node);

 private:
  void register_standard_analyzers();
  void start_monitors();
  int next_port() { return next_client_port_++; }

  rp::Session& session_;
  DeploymentConfig config_;
  std::function<void()> on_ready_;

  std::optional<rp::TaskId> service_task_;
  std::unique_ptr<core::SomaService> service_;

  std::unique_ptr<core::SomaClient> rp_monitor_client_;
  std::unique_ptr<monitors::RpMonitor> rp_monitor_;
  std::optional<rp::TaskId> rp_monitor_task_;

  std::vector<std::unique_ptr<core::SomaClient>> hw_clients_;
  std::vector<std::unique_ptr<monitors::HwMonitor>> hw_monitors_;
  std::vector<rp::TaskId> hw_monitor_tasks_;

  /// What to start when a monitor task reaches rank_start.
  struct MonitorStart {
    monitors::HwMonitor* hw_monitor = nullptr;  ///< null: the RP monitor
    Duration stagger;
  };
  std::unordered_map<rp::TaskId, MonitorStart> monitor_starts_;

  std::vector<std::unique_ptr<core::SomaClient>> tau_clients_;
  std::vector<std::unique_ptr<profiler::TauSomaPlugin>> tau_plugins_;
  std::shared_ptr<const workloads::OpenFoamModel> tau_model_;

  int next_client_port_;
  bool shutdown_ = false;
};

}  // namespace soma::experiments
