// Table 2: DeepDriveMD mini-app experiment summary (paper §3.2).
//
// Prints the four experiment configurations (Tuning / Adaptive / Scaling A /
// Scaling B) as Table 2 lays them out, then executes the two small ones
// (Tuning, Adaptive) end to end to show the configuration is runnable.

#include "bench_stack.hpp"
#include "experiments/ddmd_experiment.hpp"

using namespace soma;
using namespace soma::experiments;

int main(int argc, char** argv) {
  const StackConfig stack = bench::parse_stack(
      argc, argv, "Table 2", "DeepDriveMD mini-app experiment summary");

  TextTable table({"Experiment", "Phases (n)", "Pipelines (m)", "App Nodes",
                   "SOMA Nodes", "Cores/Sim", "Train Tasks", "Cores/Train",
                   "Ranks/Namespace", "Freq (s)"});
  table.add_row({"Tuning", "6", "1", "2", "1", "1,3,7", "1", "1,3,7", "1",
                 "60"});
  table.add_row({"Adaptive", "4", "1", "2", "1", "6", "1,2,4,6", "1", "1",
                 "60"});
  table.add_row({"Scaling A", "1", "64", "64", "1,2,4", "3", "1", "7",
                 "16,32,64", "60"});
  table.add_row({"Scaling B", "1", "64,128,256,512", "64,128,256,512",
                 "4,7,13,25", "3", "1", "7", "64,128,256,512", "60,10"});
  std::printf("%s", table.to_string().c_str());

  bench::section("realized runs (Tuning and Adaptive executed end-to-end)");
  auto tuning_config = DdmdExperimentConfig::tuning();
  tuning_config.stack() = stack;
  auto adaptive_config = DdmdExperimentConfig::adaptive();
  adaptive_config.stack() = stack;
  const DdmdResult tuning = run_ddmd_experiment(tuning_config);
  const DdmdResult adaptive = run_ddmd_experiment(adaptive_config);

  TextTable realized({"run", "phases", "pipeline time (s)", "SOMA publishes",
                      "advice recorded"});
  realized.add_row({"tuning",
                    std::to_string(tuning.phase_utilization.size()),
                    bench::fmt(tuning.pipeline_seconds.front()),
                    std::to_string(tuning.totals.soma_publishes),
                    std::to_string(tuning.adaptive_advice.size())});
  realized.add_row({"adaptive",
                    std::to_string(adaptive.phase_utilization.size()),
                    bench::fmt(adaptive.pipeline_seconds.front()),
                    std::to_string(adaptive.totals.soma_publishes),
                    std::to_string(adaptive.adaptive_advice.size())});
  std::printf("%s", realized.to_string().c_str());

  bench::print_run_tables(
      stack, {{"tuning", tuning.totals}, {"adaptive", adaptive.totals}});

  bench::section("adaptive analysis between phases (paper Table 2, Adaptive)");
  for (const auto& advice : adaptive.adaptive_advice) {
    std::printf("  %s\n", advice.c_str());
  }

  bench::paper_vs_measured("tuning phases", "6",
                           std::to_string(tuning.phase_utilization.size()));
  bench::paper_vs_measured("adaptive phases", "4",
                           std::to_string(adaptive.phase_utilization.size()));
  bench::paper_vs_measured("SOMA analysis available between phases", "yes",
                           adaptive.adaptive_advice.empty() ? "NO" : "yes");
  return 0;
}
