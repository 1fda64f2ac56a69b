// Ablation X2 (DESIGN.md): shared-mode scheduling benefit vs GPU
// oversubscription.
//
// The shared configuration lets RP place application tasks on the SOMA
// nodes' leftover cores/GPUs. Its benefit depends on how oversubscribed the
// GPUs are: this ablation sweeps the number of SOMA nodes (i.e. the spare
// GPU pool) at a fixed workload and reports the shared-vs-exclusive gap.

#include "bench_stack.hpp"
#include "experiments/ddmd_experiment.hpp"

using namespace soma;
using namespace soma::experiments;

int main(int argc, char** argv) {
  const StackConfig stack = bench::parse_stack(
      argc, argv, "Ablation X2",
      "shared-mode benefit vs spare SOMA-node capacity");

  const int pipelines = 32;
  TextTable table({"SOMA nodes", "spare GPUs", "mode", "pipeline time (s)",
                   "shared gain"});
  for (int soma_nodes : {1, 2, 4, 8}) {
    DdmdExperimentConfig exclusive;
    exclusive.stack() = stack;
    exclusive.pipelines = pipelines;
    exclusive.phases = 1;
    exclusive.app_nodes = pipelines;
    exclusive.soma_nodes = soma_nodes;
    // Modest rank count so the SOMA nodes keep spare cores for app tasks.
    exclusive.soma_ranks_per_namespace = 8;
    exclusive.mode = SomaMode::kExclusive;
    DdmdExperimentConfig shared = exclusive;
    shared.mode = SomaMode::kShared;

    const DdmdResult excl_result = run_ddmd_experiment(exclusive);
    const DdmdResult shared_result = run_ddmd_experiment(shared);
    const double gain = (1.0 - shared_result.pipeline_summary.mean /
                                   excl_result.pipeline_summary.mean) *
                        100.0;
    table.add_row({std::to_string(soma_nodes),
                   std::to_string(soma_nodes * 6), "exclusive",
                   bench::fmt_summary(excl_result.pipeline_summary), ""});
    table.add_row({std::to_string(soma_nodes),
                   std::to_string(soma_nodes * 6), "shared",
                   bench::fmt_summary(shared_result.pipeline_summary),
                   bench::fmt(gain) + "%"});
  }
  std::printf("%s", table.to_string().c_str());

  bench::section("reading");
  std::printf(
      "  * every pipeline's simulation stage wants 12 GPUs with only 6 per\n"
      "    node: the spare GPUs on shared SOMA nodes relieve the second\n"
      "    wave, and the relief grows with the spare pool — the Fig. 10/11\n"
      "    shared-vs-exclusive gap is this mechanism.\n");
  return 0;
}
