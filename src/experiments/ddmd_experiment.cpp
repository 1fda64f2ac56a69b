#include "experiments/ddmd_experiment.hpp"

#include <algorithm>

#include "analysis/advisor.hpp"
#include "common/error.hpp"
#include "entk/entk.hpp"

namespace soma::experiments {

DdmdExperimentConfig DdmdExperimentConfig::tuning(std::uint64_t seed) {
  DdmdExperimentConfig config;
  config.pipelines = 1;
  config.phases = 6;
  config.app_nodes = 2;
  config.soma_nodes = 1;
  config.seed = seed;
  // Six phases sweeping cores/sim in {1,3,7} under cores/train 7 then 3
  // (Fig. 9: gray background = 7 cores per training task, green = 3;
  // shading light to dark for 1, 3, 7 cores per simulation task).
  config.phase_configs = {
      {.cores_per_sim_task = 1, .train_tasks = 1, .cores_per_train_task = 7},
      {.cores_per_sim_task = 3, .train_tasks = 1, .cores_per_train_task = 7},
      {.cores_per_sim_task = 7, .train_tasks = 1, .cores_per_train_task = 7},
      {.cores_per_sim_task = 1, .train_tasks = 1, .cores_per_train_task = 3},
      {.cores_per_sim_task = 3, .train_tasks = 1, .cores_per_train_task = 3},
      {.cores_per_sim_task = 7, .train_tasks = 1, .cores_per_train_task = 3},
  };
  return config;
}

DdmdExperimentConfig DdmdExperimentConfig::adaptive(std::uint64_t seed) {
  DdmdExperimentConfig config;
  config.pipelines = 1;
  config.phases = 4;
  config.app_nodes = 2;
  config.soma_nodes = 1;
  config.adaptive_analysis = true;
  config.seed = seed;
  // Training tasks 1, 2, 4, 6 set a priori (Table 2, Adaptive column).
  config.phase_configs = {
      {.cores_per_sim_task = 6, .train_tasks = 1, .cores_per_train_task = 1},
      {.cores_per_sim_task = 6, .train_tasks = 2, .cores_per_train_task = 1},
      {.cores_per_sim_task = 6, .train_tasks = 4, .cores_per_train_task = 1},
      {.cores_per_sim_task = 6, .train_tasks = 6, .cores_per_train_task = 1},
  };
  return config;
}

DdmdExperimentConfig DdmdExperimentConfig::scaling_a(int soma_nodes,
                                                     int ranks_per_namespace,
                                                     SomaMode mode,
                                                     std::uint64_t seed) {
  DdmdExperimentConfig config;
  config.pipelines = 64;
  config.phases = 1;
  config.app_nodes = 64;
  config.soma_nodes = soma_nodes;
  config.soma_ranks_per_namespace = ranks_per_namespace;
  config.mode = mode;
  config.seed = seed;
  config.phase_configs = {
      {.cores_per_sim_task = 3, .train_tasks = 1, .cores_per_train_task = 7}};
  return config;
}

DdmdExperimentConfig DdmdExperimentConfig::scaling_b(int pipelines,
                                                     SomaMode mode,
                                                     Duration monitor_period,
                                                     std::uint64_t seed) {
  DdmdExperimentConfig config;
  config.pipelines = pipelines;
  config.phases = 1;
  config.app_nodes = pipelines;
  // Table 2: SOMA nodes 4/7/13/25 for 64/128/256/512 pipelines — enough
  // nodes to host ranks:pipelines at 1:1 over two namespace instances.
  config.soma_nodes = mode == SomaMode::kNone ? 0 : (pipelines / 21 + 1);
  config.soma_ranks_per_namespace = pipelines;
  config.mode = mode;
  config.monitor_period = monitor_period;
  config.seed = seed;
  config.phase_configs = {
      {.cores_per_sim_task = 3, .train_tasks = 1, .cores_per_train_task = 7}};
  return config;
}

const DdmdPhaseConfig& DdmdExperimentConfig::phase_config(int phase) const {
  check(!phase_configs.empty(), "ddmd: no phase configs");
  const auto index = std::min<std::size_t>(
      static_cast<std::size_t>(phase), phase_configs.size() - 1);
  return phase_configs[index];
}

namespace {

entk::Pipeline build_pipeline(const DdmdExperimentConfig& config,
                              int pipeline_index) {
  entk::Pipeline pipeline;
  pipeline.name = "p";
  pipeline.name += std::to_string(pipeline_index);
  for (int phase = 0; phase < config.phases; ++phase) {
    const DdmdPhaseConfig& pc = config.phase_config(phase);
    const auto stage_specs = workloads::ddmd_phase_stages(
        config.params, pc.cores_per_sim_task, pc.train_tasks,
        pc.cores_per_train_task);
    for (const auto& spec : stage_specs) {
      entk::Stage stage;
      stage.name = std::string(workloads::to_string(spec.stage)) + ".ph" +
                   std::to_string(phase);
      stage.tasks = workloads::make_ddmd_stage_tasks(
          spec, config.params, pipeline_index, phase, pc.train_tasks);
      pipeline.stages.push_back(std::move(stage));
    }
  }
  return pipeline;
}

}  // namespace

DdmdResult run_ddmd_experiment(const DdmdExperimentConfig& config,
                               const StoreInspector& inspect) {
  check(config.mode != SomaMode::kNone || config.soma_nodes == 0,
        "mode none requires soma_nodes == 0");
  DdmdResult result;

  const int total_nodes = 1 + config.app_nodes + config.soma_nodes;
  rp::SessionConfig session_config;
  session_config.platform = cluster::summit(total_nodes);
  session_config.pilot.nodes = total_nodes;
  session_config.pilot.runtime = Duration::minutes(600);
  session_config.agent_nodes = 1;
  session_config.seed = config.seed;
  rp::Session session(session_config);
  // Pre-size the event queue: every pipeline stage, monitor tick and publish
  // turns into events, and the big runs push tens of thousands concurrently.
  session.simulation().reserve(
      static_cast<std::size_t>(config.pipelines) * 64);

  // Fault injection is installed before anything touches the network so the
  // per-link streams cover the whole run. An absent injector (the default)
  // keeps the fabric perfect and the run byte-identical to pre-fault builds.
  if (config.faults) session.network().install_faults(*config.faults);

  std::unique_ptr<SomaDeployment> deployment;
  std::unique_ptr<entk::AppManager> app_manager;
  std::optional<SimTime> run_started;
  std::optional<SimTime> run_finished;

  session.start([&] {
    // Node layout: node 0 = agent; last `soma_nodes` nodes host SOMA.
    std::vector<NodeId> service_nodes;
    const auto& pilot_nodes = session.pilot_nodes();
    for (int i = 0; i < config.soma_nodes; ++i) {
      service_nodes.push_back(
          pilot_nodes[pilot_nodes.size() - 1 - static_cast<std::size_t>(i)]);
    }

    DeploymentConfig deploy_config;
    deploy_config.mode = config.mode;
    deploy_config.service_nodes = service_nodes;
    deploy_config.service.ranks_per_namespace =
        config.soma_ranks_per_namespace;
    // The DDMD experiments collect from two sources: RP task info and /proc
    // (paper §3.2: "we implemented data collection from two sources").
    deploy_config.service.namespaces = {core::Namespace::kWorkflow,
                                        core::Namespace::kHardware};
    deploy_config.rp_monitor.period = config.monitor_period;
    deploy_config.hw_monitor.period = config.monitor_period;
    deploy_config.client_reliability = config.reliability;
    deploy_config.client_batching = config.batching;
    deploy_config.service.storage = config.storage;
    deploy_config.service.replication = config.replication;
    deployment = std::make_unique<SomaDeployment>(session, deploy_config);

    deployment->deploy([&] {
      app_manager = std::make_unique<entk::AppManager>(session);
      for (int p = 0; p < config.pipelines; ++p) {
        app_manager->add_pipeline(build_pipeline(config, p));
      }
      if (config.adaptive_analysis) {
        app_manager->set_stage_callback([&](std::size_t pipeline,
                                            std::size_t stage) {
          // Phase boundary = every 4th stage barrier of pipeline 0.
          if (pipeline != 0 || (stage + 1) % 4 != 0) return;
          if (!deployment->deployed()) return;
          const auto hardware =
              analysis::analyze_hardware(deployment->service().store_view());
          const int phase = static_cast<int>(stage) / 4;
          const auto advice = analysis::advise_ddmd(
              hardware, session.scheduler().free_app_gpus(),
              config.phase_config(phase).train_tasks);
          result.adaptive_advice.push_back(
              "after phase " + std::to_string(phase) + ": " +
              advice.rationale);
        });
      }
      run_started = session.simulation().now();
      app_manager->run([&] {
        run_finished = session.simulation().now();
        deployment->shutdown();
        session.finalize();
      });
    });
  });

  session.run();
  check(run_finished.has_value(), "ddmd experiment did not finish");

  // ---- extract results ----
  for (const auto& pipeline_result : app_manager->results()) {
    result.pipeline_seconds.push_back(pipeline_result.duration_seconds());
  }
  result.pipeline_summary = summarize(result.pipeline_seconds);
  result.makespan_seconds = (*run_finished - *run_started).to_seconds();
  result.totals = deployment->reliability_totals();

  if (deployment->deployed()) {
    const core::StoreView store = deployment->service().store_view();
    if (inspect) inspect(store);
    result.node_utilization = analysis::utilization_series(store);
    // Fig. 9: mean utilization of the *application* nodes within each phase
    // of pipeline 0 (stage spans come in groups of four per phase).
    const auto& pipeline0 = app_manager->results().front();
    // Application nodes = worker nodes minus the tail reserved for SOMA.
    std::vector<NodeId> app_node_ids = session.worker_node_ids();
    if (config.soma_nodes > 0 &&
        static_cast<int>(app_node_ids.size()) > config.soma_nodes) {
      app_node_ids.resize(app_node_ids.size() -
                          static_cast<std::size_t>(config.soma_nodes));
    }

    for (std::size_t phase = 0;
         phase * 4 + 3 < pipeline0.stage_spans.size(); ++phase) {
      const SimTime begin = pipeline0.stage_spans[phase * 4].first;
      const SimTime end = pipeline0.stage_spans[phase * 4 + 3].second;
      DdmdResult::PhaseUtilization pu;
      pu.phase = static_cast<int>(phase);
      pu.config = config.phase_config(static_cast<int>(phase));
      pu.span_seconds = (end - begin).to_seconds();

      double sum = 0.0;
      double gpu_sum = 0.0;
      std::size_t count = 0;
      for (NodeId id : app_node_ids) {
        const std::string host = session.platform().node(id).hostname();
        const auto it = result.node_utilization.find(host);
        if (it == result.node_utilization.end()) continue;
        for (const auto& [t, u, g] : it->second) {
          if (t >= begin.to_seconds() && t <= end.to_seconds()) {
            sum += u;
            gpu_sum += g;
            ++count;
          }
        }
      }
      if (count > 0) {
        pu.mean_utilization = sum / static_cast<double>(count);
        pu.mean_gpu_utilization = gpu_sum / static_cast<double>(count);
      }
      result.phase_utilization.push_back(pu);
    }
  }

  return result;
}

}  // namespace soma::experiments
