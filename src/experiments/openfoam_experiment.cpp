#include "experiments/openfoam_experiment.hpp"

#include <algorithm>

#include "analysis/advisor.hpp"
#include "analysis/timeline.hpp"
#include "common/error.hpp"
#include "workloads/openfoam.hpp"

namespace soma::experiments {

OpenFoamExperimentConfig OpenFoamExperimentConfig::tuning(std::uint64_t seed) {
  OpenFoamExperimentConfig config;
  config.seed = seed;
  return config;
}

OpenFoamExperimentConfig OpenFoamExperimentConfig::overloaded(
    std::uint64_t seed) {
  OpenFoamExperimentConfig config;
  config.worker_nodes = 10;
  config.instances_per_config = 20;
  config.seed = seed;
  return config;
}

namespace {

/// Period of the hardware and RP monitors (paper Fig. 7).
constexpr Duration kMonitorPeriod = Duration::seconds(30.0);

static_assert(std::is_sorted(kOpenFoamRankConfigs.begin(),
                             kOpenFoamRankConfigs.end()));

/// Task submission order: descending rank count, repeated per instance. The
/// tuning run then reproduces Fig. 8 (bottom): the 164-rank task takes every
/// core first, and the smaller tasks run simultaneously after it.
std::vector<int> submission_order(const OpenFoamExperimentConfig& config) {
  std::vector<int> order;
  order.reserve(kOpenFoamRankConfigs.size() *
                static_cast<std::size_t>(config.instances_per_config));
  for (int instance = 0; instance < config.instances_per_config; ++instance) {
    order.insert(order.end(), kOpenFoamRankConfigs.rbegin(),
                 kOpenFoamRankConfigs.rend());
  }
  return order;
}

}  // namespace

OpenFoamResult run_openfoam_experiment(
    const OpenFoamExperimentConfig& config) {
  OpenFoamResult result;

  // Platform: worker nodes plus one extra node reserved for the RP agent
  // and the SOMA service (paper §3.1: "one extra node (for 5, and 11
  // total)").
  rp::SessionConfig session_config;
  session_config.platform = cluster::summit(config.worker_nodes + 1);
  session_config.pilot.nodes = config.worker_nodes + 1;
  session_config.agent_nodes = 1;
  session_config.seed = config.seed;
  rp::Session session(session_config);

  // Fault injection is installed before anything touches the network so the
  // per-link streams cover the whole run. An absent injector (the default)
  // keeps the fabric perfect and the run byte-identical to pre-fault builds.
  if (config.faults) session.network().install_faults(*config.faults);

  auto model = workloads::make_openfoam_model(&session.platform());

  std::unique_ptr<SomaDeployment> deployment;
  int app_outstanding = 0;
  std::optional<SimTime> first_submit;
  std::optional<SimTime> last_complete;

  session.add_task_completion_listener(
      [&](const rp::Task& task) {
        if (task.description().kind != rp::TaskKind::kApplication) return;
        last_complete = session.simulation().now();
        if (--app_outstanding == 0) {
          deployment->shutdown();
          session.finalize();
        }
      });

  session.start([&] {
    DeploymentConfig deploy_config;
    deploy_config.mode = SomaMode::kExclusive;
    // SOMA service co-located with the RP agent node.
    deploy_config.service_nodes = session.agent_node_ids();
    deploy_config.service.ranks_per_namespace =
        config.soma_ranks_per_namespace;
    deploy_config.rp_monitor.period = kMonitorPeriod;
    deploy_config.hw_monitor.period = kMonitorPeriod;
    deploy_config.service.storage = config.storage;
    deploy_config.service.replication = config.replication;
    deploy_config.client_reliability = config.reliability;
    deploy_config.client_batching = config.batching;
    deployment = std::make_unique<SomaDeployment>(session, deploy_config);
    deployment->enable_openfoam_tau(model);
    deployment->deploy([&] {
      first_submit = session.simulation().now();
      int index = 0;
      for (int ranks : submission_order(config)) {
        rp::TaskDescription desc;
        char uid[48];
        std::snprintf(uid, sizeof(uid), "openfoam.%03d.r%03d", index++,
                      ranks);
        desc.uid = uid;
        desc.label = "openfoam-" + std::to_string(ranks);
        desc.ranks = ranks;
        desc.cores_per_rank = 1;
        desc.cpu_activity = 0.97;  // MPI solver: cores spin while waiting
        desc.model = model;
        desc.mem_per_rank_mib = 1024.0;
        ++app_outstanding;
        session.submit(desc);
      }
    });
  });

  session.run();
  check(deployment != nullptr && app_outstanding == 0,
        "openfoam experiment: tasks did not finish");

  // ---- extract results ----
  for (const rp::Task& task : session.tasks()) {
    if (task.description().kind != rp::TaskKind::kApplication) continue;
    OpenFoamTaskRecord record;
    record.uid = task.uid();
    record.ranks = task.description().ranks;
    record.exec_seconds = task.rank_duration().value().to_seconds();
    record.nodes_spanned = task.placement()->nodes_spanned();
    record.started_at =
        task.event_time(rp::Event::kRankStart).value().to_seconds();
    result.tasks.push_back(std::move(record));
  }

  // Fig. 4 (scaling) and Fig. 6 (spread).
  std::map<int, std::vector<double>> by_ranks;
  for (const auto& record : result.tasks) {
    by_ranks[record.ranks].push_back(record.exec_seconds);
    result.by_spread[{record.ranks, record.nodes_spanned}].push_back(
        record.exec_seconds);
  }
  for (const auto& [ranks, times] : by_ranks) {
    result.scaling[ranks] = summarize(times);
  }

  // Fig. 8: the worker-node core map.
  auto timeline =
      analysis::UtilizationTimeline::build(session, session.worker_node_ids());
  result.frac_bootstrap = timeline.fraction(analysis::CoreState::kBootstrap);
  result.frac_scheduling = timeline.fraction(analysis::CoreState::kScheduling);
  result.frac_running = timeline.fraction(analysis::CoreState::kRunning);
  result.frac_idle = timeline.fraction(analysis::CoreState::kIdle);
  result.timeline_render = timeline.render();

  result.makespan_seconds =
      first_submit && last_complete
          ? (*last_complete - *first_submit).to_seconds()
          : 0.0;

  const core::StoreView store = deployment->service().store_view();

  // Fig. 7: utilization series per host + observed task starts.
  result.node_utilization = analysis::utilization_series(store);
  for (const auto& [time, uid] : analysis::observed_task_starts(store)) {
    result.observed_task_starts.emplace_back(time.to_seconds(), uid);
  }

  // Fig. 5: the TAU profile of one max-rank task, read back from the
  // performance namespace.
  for (const auto& record : result.tasks) {
    if (record.ranks != kOpenFoamRankConfigs.back()) continue;
    const auto series = store.series(core::Namespace::kPerformance, record.uid);
    if (series.empty()) continue;
    result.sample_profile =
        profiler::TauProfile::from_node(record.uid, series.back()->data);
    break;
  }

  result.tau_profiles = deployment->tau_profiles_published();
  result.totals = deployment->reliability_totals();

  return result;
}

}  // namespace soma::experiments
