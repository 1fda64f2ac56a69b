// DeepDriveMD mini-app workflow example (paper §3.2, Fig. 3).
//
// Shows the EnTK-level API directly: build a pipeline of DDMD phases
// (Simulation -> Training -> Selection -> Agent), run several pipelines
// concurrently under RP with SOMA monitoring, and read back per-stage
// timings and the utilization SOMA recorded.
//
// Run:  ./build/examples/ddmd_workflow [pipelines] [phases]

#include <cstdio>
#include <string>

#include "bench_stack.hpp"
#include "common/table.hpp"
#include "entk/entk.hpp"
#include "experiments/deployment.hpp"
#include "workloads/ddmd.hpp"

using namespace soma;

int main(int argc, char** argv) {
  constexpr const char* kUsage = "[pipelines >= 1] [phases >= 1]";
  if (argc > 3) {
    bench::usage_error(std::string("unexpected argument '") + argv[3] + "'",
                       kUsage);
  }
  const int pipelines =
      argc > 1 ? bench::parse_int("pipelines", argv[1], kUsage) : 2;
  const int phases = argc > 2 ? bench::parse_int("phases", argv[2], kUsage) : 2;
  if (pipelines < 1 || phases < 1) {
    bench::usage_error("pipelines and phases must be at least 1", kUsage);
  }

  // Platform: 1 agent node + enough app nodes for the pipelines + 1 SOMA
  // node.
  const int app_nodes = std::max(2, pipelines);
  rp::SessionConfig session_config;
  session_config.platform = cluster::summit(app_nodes + 2);
  session_config.pilot.nodes = app_nodes + 2;
  session_config.seed = 7;
  rp::Session session(session_config);

  workloads::DdmdParams params;
  std::unique_ptr<experiments::SomaDeployment> deployment;
  entk::AppManager manager(session);

  // Build the pipelines: each phase contributes its four stages.
  for (int p = 0; p < pipelines; ++p) {
    entk::Pipeline pipeline;
    pipeline.name = "pipeline-" + std::to_string(p);
    for (int phase = 0; phase < phases; ++phase) {
      for (const auto& spec : workloads::ddmd_phase_stages(
               params, /*cores_per_sim_task=*/3, /*train_tasks=*/1,
               /*cores_per_train_task=*/7)) {
        entk::Stage stage;
        stage.name = std::string(workloads::to_string(spec.stage));
        stage.tasks = workloads::make_ddmd_stage_tasks(spec, params, p, phase,
                                                       /*train_tasks=*/1);
        pipeline.stages.push_back(std::move(stage));
      }
    }
    manager.add_pipeline(std::move(pipeline));
  }

  session.start([&] {
    experiments::DeploymentConfig config;
    config.mode = experiments::SomaMode::kExclusive;
    config.service_nodes = {session.pilot_nodes().back()};
    config.service.namespaces = {core::Namespace::kWorkflow,
                                 core::Namespace::kHardware};
    config.rp_monitor.period = Duration::seconds(30.0);
    config.hw_monitor.period = Duration::seconds(30.0);
    deployment = std::make_unique<experiments::SomaDeployment>(session, config);
    deployment->deploy([&] {
      std::printf("SOMA deployed; launching %d pipeline(s) x %d phase(s)\n",
                  pipelines, phases);
      manager.run([&] {
        deployment->shutdown();
        session.finalize();
      });
    });
  });
  session.run();

  std::printf("\nper-pipeline, per-stage timings:\n");
  TextTable table({"pipeline", "stage", "span (s)"});
  const char* stage_names[] = {"sim", "train", "select", "agent"};
  for (const auto& result : manager.results()) {
    for (std::size_t s = 0; s < result.stage_spans.size(); ++s) {
      const auto& [begin, end] = result.stage_spans[s];
      table.add_row({result.name,
                     std::string(stage_names[s % 4]) + ".ph" +
                         std::to_string(s / 4),
                     format_seconds((end - begin).to_seconds(), 1)});
    }
    table.add_row({result.name, "TOTAL",
                   format_seconds(result.duration_seconds(), 1)});
  }
  std::printf("%s", table.to_string().c_str());

  const core::StoreView view = deployment->service().store_view();
  std::printf("\nSOMA captured %llu workflow records and %llu hardware "
              "records across %zu hosts\n",
              static_cast<unsigned long long>(
                  view.record_count(core::Namespace::kWorkflow)),
              static_cast<unsigned long long>(
                  view.record_count(core::Namespace::kHardware)),
              view.sources(core::Namespace::kHardware).size());
  return 0;
}
