// Quickstart: monitor a small RP workflow with SOMA.
//
// Builds a 3-node "cluster", starts an RP session, deploys the SOMA service
// plus the RP and hardware monitors, runs a handful of tasks, and then reads
// the collected observability data back out of the service: workflow
// progress, per-node CPU utilization, and service-side accounting.
//
// Run:  ./build/examples/quickstart

#include <cstdio>
#include <string>

#include "analysis/advisor.hpp"
#include "common/table.hpp"
#include "experiments/deployment.hpp"
#include "soma/export.hpp"
#include "rp/session.hpp"

using namespace soma;

namespace {

/// Place the exported store next to the binary (under the build tree), not
/// in whatever directory the example happens to be run from.
std::string output_path(const char* argv0, const std::string& filename) {
  const std::string self(argv0);
  const std::size_t slash = self.find_last_of('/');
  if (slash == std::string::npos) return filename;
  return self.substr(0, slash + 1) + filename;
}

}  // namespace

int main(int /*argc*/, char** argv) {
  // A 3-node machine: node 0 hosts the RP agent + SOMA service, nodes 1-2
  // run application tasks.
  rp::SessionConfig session_config;
  session_config.platform = cluster::summit(3);
  session_config.pilot.nodes = 3;
  session_config.seed = 42;
  rp::Session session(session_config);

  std::unique_ptr<experiments::SomaDeployment> deployment;
  int outstanding = 0;

  session.add_task_completion_listener(
      [&](const rp::Task& task) {
        if (task.description().kind != rp::TaskKind::kApplication) return;
        std::printf("[%8.2fs] %s done (ran %.2fs on %d node(s))\n",
                    session.simulation().now().to_seconds(),
                    task.uid().c_str(),
                    task.rank_duration()->to_seconds(),
                    task.placement()->nodes_spanned());
        if (--outstanding == 0) {
          deployment->shutdown();
          session.finalize();
        }
      });

  session.start([&] {
    std::printf("[%8.2fs] RP agent ready on %zu nodes\n",
                session.simulation().now().to_seconds(),
                session.pilot_nodes().size());

    experiments::DeploymentConfig config;
    config.mode = experiments::SomaMode::kExclusive;
    config.service_nodes = session.agent_node_ids();
    config.rp_monitor.period = Duration::seconds(10.0);
    config.hw_monitor.period = Duration::seconds(10.0);
    deployment = std::make_unique<experiments::SomaDeployment>(session, config);

    deployment->deploy([&] {
      std::printf("[%8.2fs] SOMA service + monitors deployed\n",
                  session.simulation().now().to_seconds());
      // Six CPU tasks of varying width and duration.
      for (int i = 0; i < 6; ++i) {
        rp::TaskDescription desc;
        desc.uid = "demo." + std::to_string(i);
        desc.ranks = 8 + 8 * (i % 3);
        desc.cores_per_rank = 1;
        desc.fixed_duration = Duration::seconds(30.0 + 10.0 * i);
        ++outstanding;
        session.submit(desc);
      }
    });
  });

  session.run();

  // ---- read the observability data back out of SOMA ----
  const core::StoreView store = deployment->service().store_view();

  std::printf("\nWorkflow progress (from the SOMA workflow namespace):\n");
  TextTable progress({"t (s)", "pending", "executing", "done", "thr/min"});
  for (const auto& point : analysis::workflow_progress(store)) {
    progress.add_row({format_seconds(point.time.to_seconds(), 1),
                      std::to_string(point.pending),
                      std::to_string(point.executing),
                      std::to_string(point.done),
                      format_seconds(point.throughput_per_min, 1)});
  }
  std::printf("%s", progress.to_string().c_str());

  std::printf("\nPer-node CPU utilization (from the hardware namespace):\n");
  const auto hardware = analysis::analyze_hardware(store);
  TextTable util({"host", "mean util", "last util", "free RAM (MiB)"});
  for (const auto& node : hardware.nodes) {
    util.add_row({node.hostname, format_seconds(node.mean_utilization, 3),
                  format_seconds(node.last_utilization, 3),
                  std::to_string(node.available_ram_mib)});
  }
  std::printf("%s", util.to_string().c_str());

  const experiments::StackTotals totals = deployment->reliability_totals();
  std::printf("\nSOMA service: %llu publishes, max queue delay %.3f ms, "
              "mean ack %.3f ms\n",
              static_cast<unsigned long long>(totals.soma_publishes),
              totals.max_queue_delay_ms, totals.mean_ack_latency_ms);

  // Post-mortem: archive the store for tools/soma_inspect.
  const std::string path = output_path(argv[0], "quickstart_store.jsonl");
  const std::size_t exported = core::export_store_to_file(store, path);
  std::printf("exported %zu records to %s "
              "(inspect with: ./build/tools/soma_inspect %s)\n",
              exported, path.c_str(), path.c_str());
  return 0;
}
