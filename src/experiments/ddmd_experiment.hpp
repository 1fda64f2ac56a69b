// The DeepDriveMD mini-app experiments (paper §3.2, Table 2; Figs. 9-11).
//
// EnTK runs m concurrent pipelines of n phases; each phase is the four DDMD
// stages. The experiment variants:
//   * Tuning:    n=6, m=1, 2 app nodes, cores/task varied per phase (Fig. 9)
//   * Adaptive:  n=4, m=1, training tasks 1/2/4/6 per phase, SOMA analysis
//                between phases (Table 2)
//   * Scaling A: n=1, m=64, SOMA nodes 1/2/4, shared vs exclusive (Fig. 10)
//   * Scaling B: n=1, m in {64,128,256,512}, ranks:pipelines 1:1,
//                none/shared/exclusive at 60 s and 10 s (Fig. 11)
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "analysis/advisor.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "experiments/deployment.hpp"
#include "workloads/ddmd.hpp"

namespace soma::experiments {

/// Per-phase stage configuration (one entry per phase; the last entry
/// repeats if there are more phases than entries).
struct DdmdPhaseConfig {
  int cores_per_sim_task = 3;
  int train_tasks = 1;
  int cores_per_train_task = 7;
};

struct DdmdExperimentConfig : StackConfig {
  int pipelines = 1;
  int phases = 1;
  int app_nodes = 2;
  int soma_nodes = 1;  ///< 0 with mode == kNone

  SomaMode mode = SomaMode::kExclusive;
  int soma_ranks_per_namespace = 1;
  Duration monitor_period = Duration::seconds(60.0);

  std::vector<DdmdPhaseConfig> phase_configs{DdmdPhaseConfig{}};

  /// Run the SOMA in-situ analysis between phases and record its advice
  /// (the Adaptive experiment).
  bool adaptive_analysis = false;

  workloads::DdmdParams params{};
  std::uint64_t seed = 1;

  // Presets matching Table 2.
  static DdmdExperimentConfig tuning(std::uint64_t seed = 1);
  static DdmdExperimentConfig adaptive(std::uint64_t seed = 1);
  static DdmdExperimentConfig scaling_a(int soma_nodes,
                                        int ranks_per_namespace,
                                        SomaMode mode,
                                        std::uint64_t seed = 1);
  static DdmdExperimentConfig scaling_b(int pipelines, SomaMode mode,
                                        Duration monitor_period,
                                        std::uint64_t seed = 1);

  [[nodiscard]] const DdmdPhaseConfig& phase_config(int phase) const;
};

struct DdmdResult {
  /// One entry per pipeline: start -> finish (Figs. 10 and 11).
  std::vector<double> pipeline_seconds;
  Summary pipeline_summary;
  double makespan_seconds = 0.0;  ///< first stage submit -> last pipeline end

  /// Fig. 9: mean app-node CPU utilization within each phase of pipeline 0.
  struct PhaseUtilization {
    int phase = 0;
    DdmdPhaseConfig config;
    double mean_utilization = 0.0;      ///< CPU, app nodes
    double mean_gpu_utilization = 0.0;  ///< GPU, app nodes
    double span_seconds = 0.0;
  };
  std::vector<PhaseUtilization> phase_utilization;

  /// Full per-host utilization series (plot backing data).
  analysis::UtilizationSeries node_utilization;

  /// Advice recorded between phases (Adaptive experiment).
  std::vector<std::string> adaptive_advice;

  /// What the SOMA stack counted (net_drops also with mode none).
  StackTotals totals;
};

/// Reads the store once the run has drained, before the stack is torn down.
using StoreInspector = std::function<void(const core::StoreView&)>;

/// Run one DDMD experiment. `inspect` (optional) sees the final store of a
/// deployed stack; tests pin what the store holds through it.
DdmdResult run_ddmd_experiment(const DdmdExperimentConfig& config,
                               const StoreInspector& inspect = nullptr);

}  // namespace soma::experiments
