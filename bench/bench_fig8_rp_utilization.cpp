// Fig. 8: RP resource-utilization maps for the OpenFOAM workflows
// (paper §4.2). Top: overload run; bottom: tuning run.
//
// Light blue = RP bootstrap (here 'b'), purple = task scheduling ('s'),
// green = task running ('#'), white = unused ('.'). The paper's tuning-run
// observation: the 164-rank task first occupies every core, then the other
// three tasks run simultaneously.

#include "bench_stack.hpp"
#include "experiments/openfoam_experiment.hpp"

using namespace soma;
using namespace soma::experiments;

namespace {

void report(const char* name, const OpenFoamResult& result) {
  bench::section(name);
  std::printf("%s", result.timeline_render.c_str());
  TextTable table({"state", "fraction of core-time"});
  table.add_row({"bootstrap (light blue)", bench::fmt_pct(result.frac_bootstrap)});
  table.add_row({"scheduling (purple)", bench::fmt_pct(result.frac_scheduling)});
  table.add_row({"running (green)", bench::fmt_pct(result.frac_running)});
  table.add_row({"unused (white)", bench::fmt_pct(result.frac_idle)});
  std::printf("%s", table.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const StackConfig stack = bench::parse_stack(
      argc, argv, "Figure 8", "RP resource utilization maps (OpenFOAM)");

  auto overload_config = OpenFoamExperimentConfig::overloaded();
  overload_config.stack() = stack;
  auto tuning_config = OpenFoamExperimentConfig::tuning();
  tuning_config.stack() = stack;
  const OpenFoamResult overload = run_openfoam_experiment(overload_config);
  const OpenFoamResult tuning = run_openfoam_experiment(tuning_config);

  report("top: overload workflow (10 worker nodes, 80 tasks)", overload);
  report("bottom: tuning workflow (4 worker nodes, 4 tasks)", tuning);

  bench::section("paper-vs-measured (shape)");
  bench::paper_vs_measured(
      "overload run keeps resources well used", "resources well used",
      overload.frac_running > 0.6
          ? "yes (running " + bench::fmt_pct(overload.frac_running) + ")"
          : "NO (running " + bench::fmt_pct(overload.frac_running) + ")");
  bench::paper_vs_measured(
      "tuning run shows unused white space", "visible white space",
      tuning.frac_idle > 0.1
          ? "yes (idle " + bench::fmt_pct(tuning.frac_idle) + ")"
          : "NO (idle " + bench::fmt_pct(tuning.frac_idle) + ")");
  bench::paper_vs_measured("bootstrap band present at the left edge", "yes",
                           tuning.frac_bootstrap > 0.0 ? "yes" : "NO");
  bench::paper_vs_measured("scheduling (purple) slivers before tasks", "yes",
                           overload.frac_scheduling > 0.0 ? "yes" : "NO");
  return 0;
}
