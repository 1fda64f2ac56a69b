// ddmd_scaling: the Fig. 11 Scaling B point at 256 pipelines, run as `none`
// and then `frequent-exclusive` (10 s monitoring). The stack is composed from
// rp::Session, SomaDeployment, entk::AppManager and workloads::ddmd_* the
// same way run_ddmd_experiment composes it, so the driver holds the store and
// the monitors and can probe them; check_ddmd_identity proves the two agree.

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "entk/entk.hpp"
#include "experiments/ddmd_experiment.hpp"
#include "probes.hpp"
#include "workloads.hpp"
#include "workloads/ddmd.hpp"

namespace perfbench {

using soma::Duration;
using soma::SimTime;
using soma::core::Namespace;
using soma::experiments::DdmdExperimentConfig;
using soma::experiments::SomaMode;

namespace {

constexpr int kPipelines = 256;
constexpr double kFrequentPeriodS = 10.0;
constexpr double kPaperOverheadPct = 3.2;

std::vector<DdmdExperimentConfig> rep_configs(std::uint64_t seed) {
  return {DdmdExperimentConfig::scaling_b(kPipelines, SomaMode::kNone,
                                          Duration::seconds(60.0), seed),
          DdmdExperimentConfig::scaling_b(kPipelines, SomaMode::kExclusive,
                                          Duration::seconds(kFrequentPeriodS),
                                          seed)};
}

soma::entk::Pipeline build_pipeline(const DdmdExperimentConfig& config,
                                    int pipeline_index) {
  soma::entk::Pipeline pipeline;
  pipeline.name = "p" + std::to_string(pipeline_index);
  for (int phase = 0; phase < config.phases; ++phase) {
    const auto& pc = config.phase_config(phase);
    for (const auto& spec : soma::workloads::ddmd_phase_stages(
             config.params, pc.cores_per_sim_task, pc.train_tasks,
             pc.cores_per_train_task)) {
      soma::entk::Stage stage;
      stage.name = std::string(soma::workloads::to_string(spec.stage)) +
                   ".ph" + std::to_string(phase);
      stage.tasks = soma::workloads::make_ddmd_stage_tasks(
          spec, config.params, pipeline_index, phase, pc.train_tasks);
      pipeline.stages.push_back(std::move(stage));
    }
  }
  return pipeline;
}

/// One SOMA mode's stack. Members are destroyed in reverse order: probes,
/// app manager, deployment, then the session they all borrow.
struct DdmdStack {
  DdmdExperimentConfig config;
  bool traced = false;
  std::unique_ptr<soma::rp::Session> session;
  std::unique_ptr<soma::experiments::SomaDeployment> deployment;
  std::unique_ptr<soma::entk::AppManager> app_manager;
  std::unique_ptr<soma::sim::PeriodicTask> pending_sampler;
  std::unique_ptr<soma::sim::PeriodicTask> summary_probe;
  std::vector<soma::entk::Pipeline> pipelines;
  std::optional<SimTime> run_started;
  std::optional<SimTime> run_finished;

  std::size_t peak_pending = 0;
  std::size_t probe_cursor = 0;
  OpStats summary, view_latest, view_range, view_sources;

  void start();
  void on_ready();
  void probe();
};

void DdmdStack::start() {
  const int total_nodes = 1 + config.app_nodes + config.soma_nodes;
  soma::rp::SessionConfig session_config;
  session_config.platform = soma::cluster::summit(total_nodes);
  session_config.pilot.nodes = total_nodes;
  session_config.pilot.runtime = Duration::minutes(600);
  session_config.agent_nodes = 1;
  session_config.seed = config.seed;
  session = std::make_unique<soma::rp::Session>(session_config);
  session->simulation().reserve(static_cast<std::size_t>(config.pipelines) *
                                64);
  for (int p = 0; p < config.pipelines; ++p) {
    pipelines.push_back(build_pipeline(config, p));
  }

  session->start([this] {
    std::vector<soma::NodeId> service_nodes;
    const auto& pilot_nodes = session->pilot_nodes();
    for (int i = 0; i < config.soma_nodes; ++i) {
      service_nodes.push_back(
          pilot_nodes[pilot_nodes.size() - 1 - static_cast<std::size_t>(i)]);
    }
    soma::experiments::DeploymentConfig deploy_config;
    deploy_config.mode = config.mode;
    deploy_config.service_nodes = service_nodes;
    deploy_config.service.ranks_per_namespace =
        config.soma_ranks_per_namespace;
    deploy_config.service.namespaces = {Namespace::kWorkflow,
                                        Namespace::kHardware};
    deploy_config.rp_monitor.period = config.monitor_period;
    deploy_config.hw_monitor.period = config.monitor_period;
    deploy_config.client_reliability = config.reliability;
    deploy_config.client_batching = config.batching;
    deploy_config.service.storage = config.storage;
    deploy_config.service.replication = config.replication;
    deployment = std::make_unique<soma::experiments::SomaDeployment>(
        *session, deploy_config);
    deployment->deploy([this] { on_ready(); });
  });
}

void DdmdStack::on_ready() {
  app_manager = std::make_unique<soma::entk::AppManager>(*session);
  for (auto& pipeline : pipelines) {
    app_manager->add_pipeline(std::move(pipeline));
  }
  pipelines.clear();
  run_started = session->simulation().now();
  if (traced) {
    // Probe events only read state, so simulated output is unchanged; the
    // correctness gate compares traced and untraced digests to prove it.
    auto& simulation = session->simulation();
    pending_sampler = std::make_unique<soma::sim::PeriodicTask>(
        simulation, Duration::seconds(1.0), [this] {
          peak_pending = std::max(peak_pending, session->simulation().pending());
        });
    pending_sampler->start(Duration::seconds(1.0));
    if (deployment->rp_monitor() != nullptr) {
      summary_probe = std::make_unique<soma::sim::PeriodicTask>(
          simulation, config.monitor_period, [this] { probe(); });
      summary_probe->start(config.monitor_period);
    }
  }
  app_manager->run([this] {
    run_finished = session->simulation().now();
    if (pending_sampler) pending_sampler->stop();
    if (summary_probe) summary_probe->stop();
    deployment->shutdown();
    session->finalize();
  });
}

void DdmdStack::probe() {
  const auto* monitor = deployment->rp_monitor();
  timed(summary, [&] { return monitor->compute_summary(); });
  const soma::core::StoreView view = deployment->service().store_view();
  const auto sources =
      timed(view_sources, [&] { return view.sources(Namespace::kHardware); });
  if (sources.empty()) return;
  const std::string& source = sources[probe_cursor++ % sources.size()];
  const SimTime now = session->simulation().now();
  const SimTime from = now - Duration::seconds(10.0);
  timed(view_latest, [&] { return view.latest(Namespace::kHardware, source); });
  timed(view_range,
        [&] { return view.range(Namespace::kHardware, source, from, now); });
}

struct ModeRun {
  std::unique_ptr<DdmdStack> stack;
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> pipeline_seconds;
  std::uint64_t records = 0;
};

ModeRun run_mode(const DdmdExperimentConfig& config, bool traced) {
  ModeRun run;
  const std::int64_t t_setup = now_ns();
  run.stack = std::make_unique<DdmdStack>();
  run.stack->config = config;
  run.stack->traced = traced;
  run.stack->start();
  const std::int64_t t_run = now_ns();

  DdmdStack& s = *run.stack;
  s.session->run();
  soma::check(s.run_finished.has_value(), "ddmd workload did not finish");
  for (const auto& pipeline : s.app_manager->results()) {
    run.pipeline_seconds.push_back(pipeline.duration_seconds());
  }
  if (s.deployment->deployed()) {
    run.records = s.deployment->service().store_view().total_records();
  }
  const std::int64_t t_done = now_ns();
  run.setup_s = static_cast<double>(t_run - t_setup) * 1e-9;
  run.wall_s = static_cast<double>(t_done - t_run) * 1e-9;
  return run;
}

double timed_teardown(std::unique_ptr<DdmdStack>& stack) {
  const std::int64_t t = now_ns();
  stack.reset();
  return static_cast<double>(now_ns() - t) * 1e-9;
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

}  // namespace

RepResult run_ddmd_rep(const RepOptions& options) {
  RepResult result;
  const auto configs = rep_configs(options.seed);
  Digest digest;
  std::vector<ModeRun> runs;
  std::size_t peak_pending = 0;
  for (const auto& config : configs) {
    ModeRun run = run_mode(config, options.traced);
    peak_pending = std::max(peak_pending, run.stack->peak_pending);
    result.setup_s += run.setup_s;
    result.wall_s += run.wall_s;
    result.events += run.stack->session->simulation().events_dispatched();
    result.records += run.records;
    result.attempted += static_cast<std::uint64_t>(config.pipelines);
    result.failed += static_cast<std::uint64_t>(config.pipelines) -
                     std::min<std::uint64_t>(config.pipelines,
                                             run.pipeline_seconds.size());
    digest.add_u64(run.pipeline_seconds.size());
    for (double seconds : run.pipeline_seconds) digest.add_f64(seconds);
    result.pipeline_seconds.push_back(run.pipeline_seconds);
    if (&config != &configs.back()) {
      // Only the monitored run is kept for the per-layer read-out.
      result.teardown_s += timed_teardown(run.stack);
    }
    runs.push_back(std::move(run));
  }
  result.digest = digest.hex();
  result.checks.push_back(
      {"every pipeline finished", result.failed == 0,
       std::to_string(result.attempted - result.failed) + " of " +
           std::to_string(result.attempted)});

  const double overhead_pct =
      (mean(runs[1].pipeline_seconds) / mean(runs[0].pipeline_seconds) - 1.0) *
      100.0;
  result.notes.push_back("frequent-exclusive vs none at " +
                         std::to_string(kPipelines) +
                         " pipelines: " + format_number(overhead_pct) +
                         " % pipeline time (paper Fig. 11: +" +
                         format_number(kPaperOverheadPct) + " %)");

  // ---- per-layer read-out of the monitored run ----
  DdmdStack& s = *runs[1].stack;
  auto& deployment = *s.deployment;
  const auto totals = deployment.reliability_totals();
  std::uint64_t requests = 0, bytes_out = 0, retries = 0, timeouts = 0,
                calls_failed = 0, duplicate_responses = 0, published = 0,
                acked = 0, buffered = 0, replayed = 0, batches_sent = 0;
  for (const soma::core::SomaClient* client : deployment.clients()) {
    const auto& e = client->engine_stats();
    requests += e.requests_sent;
    bytes_out += e.bytes_out;
    retries += e.retries;
    timeouts += e.timeouts;
    calls_failed += e.calls_failed;
    duplicate_responses += e.duplicate_responses;
    published += client->stats().published;
    acked += client->stats().acked;
    buffered += client->stats().buffered;
    replayed += client->stats().replayed;
    batches_sent += client->stats().batches_sent;
  }
  auto& service = deployment.service();
  const soma::net::EngineStats hw = service.instance_stats(Namespace::kHardware);
  const double makespan =
      (*s.run_finished - *s.run_started).to_seconds();
  const double hw_ranks = static_cast<double>(
      service.instance(Namespace::kHardware).ranks.size());
  std::uint64_t hw_ticks = 0;
  for (const auto& monitor : deployment.hw_monitors()) {
    hw_ticks += monitor->ticks();
  }
  const auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  const auto n = [](auto value) { return static_cast<double>(value); };
  auto& L = result.layers;
  L.push_back({"sim.events", n(result.events), "count"});
  L.push_back({"sim.peak_pending", n(peak_pending), "count"});
  L.push_back({"net.requests_sent", n(requests), "count"});
  L.push_back({"net.bytes_out", n(bytes_out), "B"});
  L.push_back({"net.messages_dropped",
               n(s.session->network().messages_dropped()), "count"});
  L.push_back({"net.retries", n(retries), "count"});
  L.push_back({"net.timeouts", n(timeouts), "count"});
  L.push_back({"net.calls_failed", n(calls_failed), "count"});
  L.push_back({"net.duplicate_responses", n(duplicate_responses), "count"});
  L.push_back({"soma.client.published", n(published), "count"});
  L.push_back({"soma.client.acked", n(acked), "count"});
  L.push_back({"soma.client.buffered", n(buffered), "count"});
  L.push_back({"soma.client.replayed", n(replayed), "count"});
  L.push_back({"soma.batcher.batches_sent", n(batches_sent), "count"});
  L.push_back({"soma.batcher.records_per_batch", 0.0, "count"});
  L.push_back({"soma.service.publishes_received",
               n(service.publishes_received()), "count"});
  L.push_back({"soma.service.batches_received", n(service.batches_received()),
               "count"});
  L.push_back({"soma.service.busy_fraction",
               ratio(hw.total_service_time.to_seconds(), makespan * hw_ranks),
               "ratio"});
  L.push_back({"soma.service.mean_queue_ms",
               ratio(hw.total_queue_delay.to_seconds() * 1e3,
                     n(hw.requests_handled)),
               "ms"});
  L.push_back(
      {"soma.service.max_queue_ms", hw.max_queue_delay.to_seconds() * 1e3, "ms"});
  L.push_back({"soma.store.shard_skew",
               ratio(n(totals.shard_records_max) * n(totals.store_shards),
                     n(runs[1].records)),
               "ratio"});
  L.push_back({"soma.replication.records_replicated",
               n(totals.records_replicated), "count"});
  L.push_back({"soma.replication.resync_records", n(totals.resync_records),
               "count"});
  L.push_back({"soma.replication.replica_lag_records",
               n(totals.replica_lag_records), "count"});
  L.push_back({"soma.replication.ship_ratio", 0.0, "ratio"});
  L.push_back({"failed_share",
               ratio(n(totals.publish_failures + totals.dropped_overflow +
                       totals.dropped_batch_records),
                     n(published)),
               "ratio"});
  // The monitors publish without an ack callback the driver could hook, so
  // per-publish latency percentiles exist only on the publish workloads.
  L.push_back({"sim_ack_p50_ms", 0.0, "ms"});
  L.push_back({"sim_ack_p99_ms", 0.0, "ms"});
  L.push_back({"sim_ack_samples", 0.0, "count"});
  L.push_back({"rp.tasks", n(s.session->tasks().size()), "count"});
  L.push_back({"rp.task_events", n(s.session->profiles().size()), "count"});
  L.push_back({"rp.summary_calls", n(s.summary.count), "count"});
  L.push_back({"monitors.hw_ticks", n(hw_ticks), "count"});
  L.push_back({"monitors.rp_ticks", n(deployment.rp_monitor()->ticks()), "count"});
  L.push_back({"sim_overhead_pct", overhead_pct, "%"});
  if (options.traced) {
    L.push_back({"rp.summary_ns", s.summary.mean_ns(), "ns"});
    L.push_back({"soma.client.publish_call_ns", 0.0, "ns"});
    L.push_back({"soma.store.view_latest_ns", s.view_latest.mean_ns(), "ns"});
    L.push_back({"soma.store.view_range_ns", s.view_range.mean_ns(), "ns"});
    L.push_back({"soma.store.view_sources_ns", s.view_sources.mean_ns(), "ns"});
  } else {
    L.push_back({"rp.summary_ns", 0.0, "ns"});
  }

  if (options.replay) {
    const soma::core::StoreView view = service.store_view();
    const RecordSet records(view, {Namespace::kWorkflow, Namespace::kHardware});
    replay_datamodel(records, L);
    replay_wire(records, L);
    replay_storage(records, service.store().shard_count(), L);
    replay_analysis(view, L);
    L.push_back({"sim.dispatch_ns", sim_dispatch_ns(peak_pending), "ns"});
  }

  result.teardown_s += timed_teardown(runs[1].stack);
  return result;
}

Check check_ddmd_identity(std::uint64_t seed,
                          const std::vector<std::vector<double>>& composed) {
  const auto configs = rep_configs(seed);
  std::string detail;
  bool ok = composed.size() == configs.size();
  for (std::size_t i = 0; ok && i < configs.size(); ++i) {
    const auto reference =
        soma::experiments::run_ddmd_experiment(configs[i]).pipeline_seconds;
    const bool same =
        reference.size() == composed[i].size() &&
        std::memcmp(reference.data(), composed[i].data(),
                    reference.size() * sizeof(double)) == 0;
    detail += std::string(soma::experiments::to_string(configs[i].mode)) +
              (same ? " identical; " : " DIFFERS; ");
    ok = ok && same;
  }
  return {"composed stack == run_ddmd_experiment (bitwise pipeline seconds)",
          ok, detail};
}

}  // namespace perfbench
