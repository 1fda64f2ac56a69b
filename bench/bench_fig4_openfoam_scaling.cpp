// Fig. 4: OpenFOAM strong-scaling study (paper §4.1).
//
// The overloaded run executes 20 instances of each rank configuration
// {20, 41, 82, 164} inside one RP-managed workflow and reports per-config
// execution-time distributions. The paper's finding: "there is limited
// benefit to scaling the OpenFOAM tasks beyond two nodes" (82 ranks).

#include "bench_stack.hpp"
#include "experiments/openfoam_experiment.hpp"

using namespace soma;
using namespace soma::experiments;

int main(int argc, char** argv) {
  const StackConfig stack = bench::parse_stack(
      argc, argv, "Figure 4", "OpenFOAM task strong scaling (overloaded run)");

  auto config = OpenFoamExperimentConfig::overloaded();
  config.stack() = stack;
  const OpenFoamResult result = run_openfoam_experiment(config);

  TextTable table({"MPI ranks", "nodes", "instances", "exec time (s)",
                   "speedup vs 20", "bar"});
  const double base = result.scaling.at(20).mean;
  double max_mean = 0.0;
  for (const auto& [ranks, summary] : result.scaling) {
    max_mean = std::max(max_mean, summary.mean);
  }
  for (const auto& [ranks, summary] : result.scaling) {
    table.add_row({std::to_string(ranks),
                   bench::fmt(static_cast<double>(ranks) / 41.0, 1),
                   std::to_string(summary.count), bench::fmt_summary(summary),
                   bench::fmt(base / summary.mean, 2) + "x",
                   ascii_bar(summary.mean, max_mean, 40)});
  }
  std::printf("%s", table.to_string().c_str());

  const double gain_41_82 =
      result.scaling.at(41).mean - result.scaling.at(82).mean;
  const double gain_82_164 =
      result.scaling.at(82).mean - result.scaling.at(164).mean;

  bench::section("paper-vs-measured (shape)");
  bench::paper_vs_measured("20 -> 41 ranks improves", "yes",
                           result.scaling.at(20).mean >
                                   result.scaling.at(41).mean
                               ? "yes"
                               : "NO");
  bench::paper_vs_measured("41 -> 82 ranks improves", "yes",
                           gain_41_82 > 0 ? "yes" : "NO");
  bench::paper_vs_measured(
      "limited benefit beyond 82 ranks (2 nodes)", "yes",
      gain_82_164 < 0.35 * gain_41_82 ? "yes (gain " +
              bench::fmt(gain_82_164) + "s vs " + bench::fmt(gain_41_82) + "s)"
                                      : "NO");
  bench::paper_vs_measured(
      "variation across 20 instances visible", "yes",
      result.scaling.at(82).stddev > 0.0 ? "yes (sigma " +
              bench::fmt(result.scaling.at(82).stddev) + "s at 82 ranks)"
                                         : "NO");
  return 0;
}
