// Table 1: OpenFOAM experiment summary (paper §3.1).
//
// Prints the two experiment configurations (tuning / overload) exactly as
// Table 1 lays them out, then runs both and reports the realized counts so
// the configuration is demonstrably what executed.

#include "bench_stack.hpp"
#include "experiments/openfoam_experiment.hpp"

using namespace soma;
using namespace soma::experiments;

int main(int argc, char** argv) {
  const StackConfig stack = bench::parse_stack(
      argc, argv, "Table 1", "OpenFOAM experiment summary");

  auto tuning = OpenFoamExperimentConfig::tuning();
  tuning.stack() = stack;
  auto overload = OpenFoamExperimentConfig::overloaded();
  overload.stack() = stack;

  std::string rank_list;
  for (int ranks : kOpenFoamRankConfigs) {
    if (!rank_list.empty()) rank_list += ", ";
    rank_list += std::to_string(ranks);
  }
  TextTable table({"Experiment", "Tuning", "Overload"});
  table.add_row({"Number of Tasks",
                 std::to_string(tuning.instances_per_config *
                                kOpenFoamRankConfigs.size()),
                 std::to_string(overload.instances_per_config *
                                kOpenFoamRankConfigs.size())});
  table.add_row({"Number of Nodes", std::to_string(tuning.worker_nodes),
                 std::to_string(overload.worker_nodes)});
  table.add_row({"Number of MPI Ranks", rank_list, rank_list});
  table.add_row({"Monitors", "proc, rp, tau", "proc, rp, tau"});
  table.add_row({"SOMA Ranks Per Namespace",
                 std::to_string(tuning.soma_ranks_per_namespace),
                 std::to_string(overload.soma_ranks_per_namespace)});
  std::printf("%s", table.to_string().c_str());

  bench::section("realized runs (tasks completed, monitors active)");
  const OpenFoamResult tuning_result = run_openfoam_experiment(tuning);
  const OpenFoamResult overload_result = run_openfoam_experiment(overload);

  TextTable realized({"run", "tasks done", "SOMA publishes", "TAU profiles",
                      "hosts monitored", "makespan (s)"});
  realized.add_row({"tuning", std::to_string(tuning_result.tasks.size()),
                    std::to_string(tuning_result.totals.soma_publishes),
                    std::to_string(tuning_result.tau_profiles),
                    std::to_string(tuning_result.node_utilization.size()),
                    bench::fmt(tuning_result.makespan_seconds)});
  realized.add_row({"overload", std::to_string(overload_result.tasks.size()),
                    std::to_string(overload_result.totals.soma_publishes),
                    std::to_string(overload_result.tau_profiles),
                    std::to_string(overload_result.node_utilization.size()),
                    bench::fmt(overload_result.makespan_seconds)});
  std::printf("%s", realized.to_string().c_str());

  bench::print_run_tables(stack, {{"tuning", tuning_result.totals},
                                  {"overload", overload_result.totals}});

  bench::paper_vs_measured("tuning tasks", "4",
                           std::to_string(tuning_result.tasks.size()));
  bench::paper_vs_measured("overload tasks", "80",
                           std::to_string(overload_result.tasks.size()));
  bench::paper_vs_measured(
      "monitored sources (overload: 10 workers + 1 agent/SOMA node)", "11",
      std::to_string(overload_result.node_utilization.size()));
  return 0;
}
