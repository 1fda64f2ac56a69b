// OpenFOAM-workflow example (paper §3.1).
//
// Runs the ExaAM-style OpenFOAM ensemble under RADICAL-Pilot with full SOMA
// monitoring (proc + rp + tau), then walks through everything the
// observability stack captured: strong-scaling statistics, the TAU MPI
// breakdown of one task, per-node utilization, and the RP core-state map.
//
// Run:  ./build/examples/openfoam_workflow [tuning|overload]

#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "analysis/anomaly.hpp"
#include "experiments/openfoam_experiment.hpp"

using namespace soma;
using namespace soma::experiments;

int main(int argc, char** argv) {
  constexpr const char* kUsage = "[tuning|overload]";
  if (argc > 2) {
    bench::usage_error(std::string("unexpected argument '") + argv[2] + "'",
                       kUsage);
  }
  const std::string mode = argc > 1 ? argv[1] : "tuning";
  if (mode != "tuning" && mode != "overload") {
    bench::usage_error("unknown mode '" + mode + "'", kUsage);
  }
  const bool overload = mode == "overload";
  const OpenFoamExperimentConfig config =
      overload ? OpenFoamExperimentConfig::overloaded()
               : OpenFoamExperimentConfig::tuning();

  std::printf("running the %s OpenFOAM workflow (%d worker nodes, %zu tasks, "
              "monitors: proc, rp, tau)...\n",
              overload ? "overloaded" : "tuning", config.worker_nodes,
              kOpenFoamRankConfigs.size() *
                  static_cast<std::size_t>(config.instances_per_config));

  const OpenFoamResult result = run_openfoam_experiment(config);

  std::printf("\nworkflow finished: makespan %.1f s, %llu SOMA publishes, "
              "%llu TAU profiles\n",
              result.makespan_seconds,
              static_cast<unsigned long long>(result.totals.soma_publishes),
              static_cast<unsigned long long>(result.tau_profiles));

  std::printf("\n[1] task strong scaling (what an adaptive RP would use to "
              "pick rank counts):\n");
  TextTable scaling({"ranks", "instances", "mean (s)", "sigma", "bar"});
  double max_mean = 0.0;
  for (const auto& [ranks, summary] : result.scaling) {
    max_mean = std::max(max_mean, summary.mean);
  }
  for (const auto& [ranks, summary] : result.scaling) {
    scaling.add_row({std::to_string(ranks), std::to_string(summary.count),
                     format_seconds(summary.mean, 1),
                     format_seconds(summary.stddev, 1),
                     ascii_bar(summary.mean, max_mean, 32)});
  }
  std::printf("%s", scaling.to_string().c_str());

  std::printf("\n[2] TAU view of one %zu-rank task (rank 0 vs mid rank):\n",
              result.sample_profile.ranks.size());
  if (!result.sample_profile.ranks.empty()) {
    const auto& ranks = result.sample_profile.ranks;
    for (const auto* rank : {&ranks.front(), &ranks[ranks.size() / 2]}) {
      std::printf("  rank %4d on %s:", rank->rank, rank->hostname.c_str());
      for (const auto& [fn, seconds] : rank->inclusive_seconds) {
        std::printf("  %s=%.1fs", fn.c_str(), seconds);
      }
      std::printf("\n");
    }
  }

  std::printf("\n[3] per-node CPU utilization (SOMA hardware namespace):\n");
  for (const auto& [host, series] : result.node_utilization) {
    double mean = 0.0;
    for (const auto& sample : series) mean += sample.cpu;
    if (!series.empty()) mean /= static_cast<double>(series.size());
    std::printf("  %s: %zu samples, mean %.0f%%  %s\n", host.c_str(),
                series.size(), mean * 100.0,
                ascii_bar(mean, 1.0, 30).c_str());
  }

  std::printf("\n[4] RP core-state map (b=bootstrap s=scheduling #=running "
              ".=idle):\n%s",
              result.timeline_render.c_str());
  std::printf("fractions: bootstrap %.1f%%, scheduling %.1f%%, running "
              "%.1f%%, idle %.1f%%\n",
              result.frac_bootstrap * 100.0, result.frac_scheduling * 100.0,
              result.frac_running * 100.0, result.frac_idle * 100.0);

  std::printf("\n[5] straggler scan (robust z-score per configuration):\n");
  std::vector<analysis::TaskSample> samples;
  for (const auto& record : result.tasks) {
    samples.push_back({record.uid, "openfoam-" + std::to_string(record.ranks),
                       record.exec_seconds});
  }
  const auto anomalies = analysis::detect_task_anomalies(samples, 2.5);
  if (anomalies.empty()) {
    std::printf("  no stragglers at |z| >= 2.5 (expected for a healthy "
                "run)\n");
  }
  for (const auto& anomaly : anomalies) {
    std::printf("  %s: %.1fs vs group median %.1fs (z=%.1f, %s)\n",
                anomaly.sample.uid.c_str(), anomaly.sample.exec_seconds,
                anomaly.group_median, anomaly.robust_z,
                anomaly.kind == analysis::AnomalyKind::kStraggler
                    ? "straggler"
                    : "unexpectedly fast");
  }
  return 0;
}
