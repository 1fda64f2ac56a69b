#include "experiments/deployment.hpp"

#include <algorithm>

#include "analysis/advisor.hpp"
#include "common/error.hpp"

namespace soma::experiments {
namespace {

/// Scale factor from the RP monitor's agent-node CPU share to scheduler
/// decision slowdown. The agent's scheduler and the monitor compete for the
/// same few cores, so contention is super-proportional.
constexpr double kAgentContentionCoeff = 4.0;

}  // namespace

std::string_view to_string(SomaMode mode) {
  switch (mode) {
    case SomaMode::kNone: return "none";
    case SomaMode::kExclusive: return "exclusive";
    case SomaMode::kShared: return "shared";
  }
  return "?";
}

SomaDeployment::SomaDeployment(rp::Session& session, DeploymentConfig config)
    : session_(session),
      config_(std::move(config)),
      next_client_port_(config_.base_client_port) {}

SomaDeployment::~SomaDeployment() = default;

core::SomaService& SomaDeployment::service() {
  check(service_ != nullptr, "SOMA service not deployed");
  return *service_;
}

void SomaDeployment::deploy(std::function<void()> on_ready) {
  check(session_.agent_ready(), "deploy requires a bootstrapped agent");
  on_ready_ = std::move(on_ready);

  if (config_.mode == SomaMode::kNone) {
    // Baseline: no SOMA nodes, no monitoring (paper Fig. 11, "none").
    session_.simulation().schedule(Duration::zero(), [this] {
      if (on_ready_) on_ready_();
    });
    return;
  }

  check(!config_.service_nodes.empty(), "deployment needs service nodes");
  session_.set_service_nodes(config_.service_nodes,
                             config_.mode == SomaMode::kShared);

  // (Fig. 2, step 3) SOMA service task: scheduled before anything else so
  // its RPC addresses are known to every later client.
  rp::TaskDescription service_desc;
  service_desc.uid = "soma.service";
  service_desc.kind = rp::TaskKind::kService;
  service_desc.label = "soma-service";
  service_desc.ranks = config_.service.ranks_per_namespace *
                       static_cast<int>(config_.service.namespaces.size());
  service_desc.cores_per_rank = 1;
  service_desc.cpu_activity = 0.4;
  service_desc.mem_per_rank_mib = 256.0;

  session_.add_task_start_listener([this](const rp::Task& task) {
    if (task.id() == service_task_ && service_ == nullptr) {
      // Endpoints come alive exactly where the scheduler placed the
      // service ranks.
      service_ = std::make_unique<core::SomaService>(
          session_.network(), task.placement()->nodes(), config_.service);
      register_standard_analyzers();
      start_monitors();
    }
  });
  service_task_ = session_.submit(service_desc).id();
}

void SomaDeployment::register_standard_analyzers() {
  // In-situ analyzers every consumer can invoke remotely via
  // {"kind":"analyze","analyzer":...} — the analysis runs inside the
  // service, only the result crosses the wire (paper §6: "in situ
  // processing for runtime decision actuation").
  service_->register_analyzer(
      "hardware_report", [](const core::StoreView& view) {
        datamodel::Node result;
        const auto report = analysis::analyze_hardware(view);
        result["mean_cpu_utilization"].set(report.mean_utilization());
        result["mean_gpu_utilization"].set(report.mean_gpu_utilization());
        datamodel::Node& hosts = result["hosts"];
        for (const auto& node : report.nodes) {
          datamodel::Node& h = hosts[node.hostname];
          h["mean_cpu"].set(node.mean_utilization);
          h["last_cpu"].set(node.last_utilization);
          h["mean_gpu"].set(node.mean_gpu_utilization);
          h["available_ram_mib"].set(node.available_ram_mib);
        }
        return result;
      });
  service_->register_analyzer(
      "progress", [](const core::StoreView& view) {
        datamodel::Node result;
        const auto progress = analysis::workflow_progress(view);
        if (!progress.empty()) {
          const auto& latest = progress.back();
          result["tasks_done"].set(latest.done);
          result["tasks_executing"].set(latest.executing);
          result["tasks_pending"].set(latest.pending);
          result["throughput_per_min"].set(latest.throughput_per_min);
        }
        result["samples"].set(static_cast<std::int64_t>(progress.size()));
        return result;
      });
}

void SomaDeployment::start_monitors() {
  // Count the monitor tasks that must reach rank_start before the
  // deployment is ready.
  auto outstanding = std::make_shared<int>(0);
  // One start listener for every monitor task: it finds the started task's
  // monitor in monitor_starts_ (filled as the tasks are submitted below)
  // instead of each monitor comparing uids on every task start.
  session_.add_task_start_listener(
      [this, outstanding](const rp::Task& task) {
        const auto it = monitor_starts_.find(task.id());
        if (it == monitor_starts_.end()) return;
        const MonitorStart start = it->second;
        if (start.hw_monitor != nullptr) {
          start.hw_monitor->start(start.stagger);
        } else {
          rp_monitor_->start(config_.rp_monitor.period);
        }
        if (--*outstanding == 0 && on_ready_) on_ready_();
      });

  // (Fig. 2, step 4) RP monitoring task, one per workflow, co-located with
  // the agent.
  if (config_.enable_rp_monitor) {
    const NodeId agent_node = session_.agent_node_ids().front();
    rp_monitor_client_ = std::make_unique<core::SomaClient>(
        session_.network(), agent_node, next_port(),
        core::Namespace::kWorkflow,
        service_->instance(core::Namespace::kWorkflow).ranks,
        config_.client_reliability, config_.client_batching);
    rp_monitor_ = std::make_unique<monitors::RpMonitor>(
        session_, *rp_monitor_client_, config_.rp_monitor);

    // The monitor competes with the agent scheduler for the agent node's
    // cores: decision cost inflates with the monitor's CPU share.
    session_.scheduler().set_decision_slowdown([this] {
      return 1.0 + kAgentContentionCoeff * rp_monitor_->cpu_share();
    });

    rp::TaskDescription desc;
    desc.uid = "monitor.rp";
    desc.kind = rp::TaskKind::kMonitor;
    desc.label = "rp-monitor";
    desc.pinned_node = agent_node;
    desc.cpu_activity = 0.1;
    desc.mem_per_rank_mib = 128.0;
    ++*outstanding;
    rp_monitor_task_ = session_.submit(desc).id();
    monitor_starts_.emplace(*rp_monitor_task_, MonitorStart{});
  }

  // (Fig. 2, step 5) one hardware monitoring task per pilot node, each on
  // a reserved core, running for the whole workflow.
  if (config_.enable_hw_monitors) {
    const std::vector<NodeId>& monitored = session_.pilot_nodes();
    for (std::size_t i = 0; i < monitored.size(); ++i) {
      const NodeId node_id = monitored[i];
      auto client = std::make_unique<core::SomaClient>(
          session_.network(), node_id, next_port(),
          core::Namespace::kHardware,
          service_->instance(core::Namespace::kHardware).ranks,
          config_.client_reliability, config_.client_batching);
      auto monitor = std::make_unique<monitors::HwMonitor>(
          session_.simulation(), session_.platform().node(node_id), *client,
          session_.rng().split("hw_monitor_" + std::to_string(node_id)),
          config_.hw_monitor);

      // /proc scraping perturbs co-located application ranks.
      session_.executor().set_node_noise(node_id, monitor->noise_fraction());

      rp::TaskDescription desc;
      desc.uid = "monitor.hw." + std::to_string(node_id);
      desc.kind = rp::TaskKind::kMonitor;
      desc.label = "hw-monitor";
      desc.pinned_node = node_id;
      desc.cpu_activity = 0.05;
      desc.mem_per_rank_mib = 64.0;

      monitors::HwMonitor* monitor_ptr = monitor.get();
      // Stagger ticks across nodes so publishes do not arrive in lockstep.
      const Duration stagger =
          config_.hw_monitor.period * (static_cast<double>(i % 97) / 97.0);
      ++*outstanding;
      hw_monitor_tasks_.push_back(session_.submit(desc).id());
      monitor_starts_.emplace(hw_monitor_tasks_.back(),
                              MonitorStart{monitor_ptr, stagger});
      hw_clients_.push_back(std::move(client));
      hw_monitors_.push_back(std::move(monitor));
    }
  }

  if (*outstanding == 0 && on_ready_) {
    // Service only, no monitors: ready immediately.
    session_.simulation().schedule(Duration::zero(), [this] {
      if (on_ready_) on_ready_();
    });
  }
}

void SomaDeployment::enable_openfoam_tau(
    std::shared_ptr<const workloads::OpenFoamModel> model) {
  check(config_.mode != SomaMode::kNone, "TAU requires a deployed service");
  tau_model_ = std::move(model);
  session_.add_task_completion_listener(
      [this](const rp::Task& task) {
        // Keep publishing through shutdown: the last task's completion
        // races the shutdown listener, and its profile must not be lost.
        if (service_ == nullptr) return;
        if (task.description().kind != rp::TaskKind::kApplication) return;
        if (task.description().label.rfind("openfoam", 0) != 0) return;

        // The plugin runs in the task's address space: its client lives on
        // the task's first node (one shared publisher engine per node).
        const NodeId node = task.placement()->ranks.front().node;
        while (tau_plugins_.size() <=
               static_cast<std::size_t>(node)) {
          tau_plugins_.push_back(nullptr);
          tau_clients_.push_back(nullptr);
        }
        if (!tau_plugins_[static_cast<std::size_t>(node)]) {
          tau_clients_[static_cast<std::size_t>(node)] =
              std::make_unique<core::SomaClient>(
                  session_.network(), node, next_port(),
                  core::Namespace::kPerformance,
                  service_->instance(core::Namespace::kPerformance).ranks,
                  config_.client_reliability, config_.client_batching);
          tau_plugins_[static_cast<std::size_t>(node)] =
              std::make_unique<profiler::TauSomaPlugin>(
                  *tau_clients_[static_cast<std::size_t>(node)]);
        }
        const profiler::TauProfile profile = profiler::profile_openfoam_task(
            task, *tau_model_, session_.platform());
        tau_plugins_[static_cast<std::size_t>(node)]->publish(profile);
      });
}

std::uint64_t SomaDeployment::tau_profiles_published() const {
  std::uint64_t total = 0;
  for (const auto& plugin : tau_plugins_) {
    if (plugin) total += plugin->profiles_published();
  }
  return total;
}

std::unique_ptr<core::SomaClient> SomaDeployment::make_client(
    core::Namespace ns, NodeId node) {
  check(service_ != nullptr, "SOMA service not deployed");
  return std::make_unique<core::SomaClient>(
      session_.network(), node, next_port(), ns, service_->instance(ns).ranks,
      config_.client_reliability, config_.client_batching);
}

std::vector<const core::SomaClient*> SomaDeployment::clients() const {
  std::vector<const core::SomaClient*> all;
  if (rp_monitor_client_) all.push_back(rp_monitor_client_.get());
  for (const auto& client : hw_clients_) {
    if (client) all.push_back(client.get());
  }
  for (const auto& client : tau_clients_) {
    if (client) all.push_back(client.get());
  }
  return all;
}

StackTotals SomaDeployment::reliability_totals() const {
  StackTotals totals;
  totals.net_drops = session_.network().messages_dropped();
  Duration ack_latency;
  Duration max_ack_latency;
  std::uint64_t acked = 0;
  for (const core::SomaClient* client : clients()) {
    const core::SomaClient::ClientStats& s = client->stats();
    totals.publish_failures += s.publish_failures;
    totals.dropped_overflow += s.dropped_overflow;
    totals.dropped_batch_records += s.dropped_batch_records;
    totals.batches_sent += s.batches_sent;
    totals.rpc_retries += client->engine_stats().retries;
    ack_latency += s.total_ack_latency;
    max_ack_latency = std::max(max_ack_latency, s.max_ack_latency);
    acked += s.acked;
  }
  if (acked > 0) {
    totals.mean_ack_latency_ms =
        ack_latency.to_seconds() * 1e3 / static_cast<double>(acked);
  }
  totals.max_ack_latency_ms = max_ack_latency.to_seconds() * 1e3;
  if (service_ == nullptr) return totals;

  totals.soma_publishes = service_->publishes_received();
  totals.replayed_publishes = service_->replayed_publishes();
  totals.max_queue_delay_ms = service_->max_queue_delay().to_seconds() * 1e3;
  const core::DataStore& store = service_->store();
  totals.store_shards = store.shard_count();
  std::vector<std::uint64_t> records(
      static_cast<std::size_t>(store.shard_count()), 0);
  for (const core::ShardCounters& c : store.shard_counters()) {
    records[static_cast<std::size_t>(c.shard)] += c.records;
  }
  const auto [rec_min, rec_max] =
      std::minmax_element(records.begin(), records.end());
  totals.shard_records_min = *rec_min;
  totals.shard_records_max = *rec_max;
  if (const core::ReplicationManager* replication = service_->replication()) {
    const core::ReplicationStats& r = replication->stats();
    totals.records_replicated = r.records_replicated;
    totals.resync_records = r.resync_records;
    totals.crash_wipes = r.crash_wipes;
    totals.ranks_recovered = r.recoveries_completed;
    for (const core::ReplicationShardStatus& row :
         replication->shard_status()) {
      totals.replica_lag_records += row.replica_lag_records;
    }
  }
  return totals;
}

void SomaDeployment::shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  if (rp_monitor_) rp_monitor_->stop();
  for (auto& monitor : hw_monitors_) monitor->stop();
  // Ship the tail of every coalescing client: the monitors' stop paths flush
  // their own clients, but TAU plugin clients (and any publish that raced
  // shutdown) may still hold half-open batches.
  if (rp_monitor_client_) rp_monitor_client_->flush_batches();
  for (auto& client : hw_clients_) {
    if (client) client->flush_batches();
  }
  for (auto& client : tau_clients_) {
    if (client) client->flush_batches();
  }
  for (const rp::TaskId task : hw_monitor_tasks_) session_.stop_task(task);
  if (rp_monitor_task_) session_.stop_task(*rp_monitor_task_);
  if (service_task_) session_.stop_task(*service_task_);
  // Heartbeats would otherwise keep the simulation from draining to
  // quiescence; in-flight replication frames still complete.
  if (service_ && service_->replication() != nullptr) {
    service_->replication()->stop();
  }
}

}  // namespace soma::experiments
