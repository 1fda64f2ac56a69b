// Fig. 9: CPU utilization across the DDMD mini-app tuning phases
// (paper §4.3).
//
// Six phases sweep cores/simulation-task over {1, 3, 7} with 7 then 3 cores
// per training task. The paper's finding: "even when changing the number of
// cores that can be used per task, CPU utilization remains low" because the
// two longest stages do their work on the GPU.

#include "bench_stack.hpp"
#include "experiments/ddmd_experiment.hpp"

using namespace soma;
using namespace soma::experiments;

int main(int argc, char** argv) {
  const StackConfig stack = bench::parse_stack(
      argc, argv, "Figure 9",
      "DDMD mini-app tuning: CPU utilization per phase");

  auto config = DdmdExperimentConfig::tuning();
  config.stack() = stack;
  const DdmdResult result = run_ddmd_experiment(config);

  TextTable table({"phase", "cores/sim", "cores/train", "span (s)",
                   "mean CPU util", "mean GPU util", "CPU bar"});
  for (const auto& phase : result.phase_utilization) {
    table.add_row({std::to_string(phase.phase),
                   std::to_string(phase.config.cores_per_sim_task),
                   std::to_string(phase.config.cores_per_train_task),
                   bench::fmt(phase.span_seconds),
                   bench::fmt_pct(phase.mean_utilization),
                   bench::fmt_pct(phase.mean_gpu_utilization),
                   ascii_bar(phase.mean_utilization, 1.0, 40)});
  }
  std::printf("%s", table.to_string().c_str());

  bench::section(
      "per-node CPU utilization series (all monitored nodes, sampled @60s;\n"
      "   first host = RP agent node, last = SOMA service node)");
  for (const auto& [host, series] : result.node_utilization) {
    std::printf("  %s:", host.c_str());
    for (const auto& [t, u, g] : series) {
      (void)t;
      (void)g;
      std::printf(" %4.0f%%", u * 100.0);
    }
    std::printf("\n");
  }

  double max_utilization = 0.0;
  for (const auto& phase : result.phase_utilization) {
    max_utilization = std::max(max_utilization, phase.mean_utilization);
  }
  const auto& first = result.phase_utilization.front();
  const auto& third = result.phase_utilization[2];

  double mean_gpu = 0.0;
  for (const auto& phase : result.phase_utilization) {
    mean_gpu += phase.mean_gpu_utilization;
  }
  mean_gpu /= static_cast<double>(result.phase_utilization.size());

  bench::section("paper-vs-measured (shape)");
  bench::paper_vs_measured(
      "the work is on the GPU (low CPU, busy GPUs)",
      "GPU-bound stages",
      mean_gpu > 3.0 * max_utilization
          ? "yes (mean GPU util " + bench::fmt_pct(mean_gpu) +
                " vs CPU <= " + bench::fmt_pct(max_utilization) + ")"
          : "NO (GPU " + bench::fmt_pct(mean_gpu) + ")");
  bench::paper_vs_measured(
      "CPU utilization remains low in every phase", "low",
      max_utilization < 0.5
          ? "yes (max phase mean " + bench::fmt_pct(max_utilization) + ")"
          : "NO (max " + bench::fmt_pct(max_utilization) + ")");
  bench::paper_vs_measured(
      "more cores/sim raises utilization only mildly (shading trend)",
      "light-to-dark shading",
      third.mean_utilization > first.mean_utilization
          ? "yes (" + bench::fmt_pct(first.mean_utilization) + " @1 core -> " +
                bench::fmt_pct(third.mean_utilization) + " @7 cores)"
          : "NO");
  // The paper's conclusion from this figure: since the GPU stages barely
  // use the CPUs, giving tasks FEWER host cores costs (almost) nothing —
  // which then frees cores/GPUs for parallel training. Check exactly that:
  // the 1-core phases are no slower than the 7-core phases (at 7 cores the
  // 12 simulation tasks oversubscribe the 2 nodes' cores and queue).
  bench::paper_vs_measured(
      "using fewer CPU cores per task costs nothing", "minimal effect",
      [&] {
        const double span_1core = result.phase_utilization[0].span_seconds;
        const double span_7core = result.phase_utilization[2].span_seconds;
        return span_1core <= span_7core * 1.05
                   ? "yes (1-core phase " + bench::fmt(span_1core) +
                         "s vs 7-core phase " + bench::fmt(span_7core) + "s)"
                   : "NO (" + bench::fmt(span_1core) + "s vs " +
                         bench::fmt(span_7core) + "s)";
      }());
  return 0;
}
