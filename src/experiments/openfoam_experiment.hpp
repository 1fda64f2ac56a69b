// The OpenFOAM workflow experiments (paper §3.1, Table 1; Figs. 4-8).
//
// Two configurations:
//   * "tuning":    1 instance of each rank configuration on 4 worker nodes,
//   * "overloaded": 20 instances of each on 10 worker nodes,
// plus one extra node reserved for the RP agent and the SOMA service. Rank
// configurations are {20, 41, 82, 164}; one core per node is reserved for
// the SOMA hardware monitoring client, and the three monitors are proc, rp,
// and tau, the first two sampling every 30 s (Fig. 7).
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "analysis/advisor.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "experiments/deployment.hpp"
#include "profiler/tau.hpp"

namespace soma::experiments {

/// MPI ranks of the four task configurations every run submits, ascending
/// (Table 1).
inline constexpr std::array<int, 4> kOpenFoamRankConfigs = {20, 41, 82, 164};

struct OpenFoamExperimentConfig : StackConfig {
  int worker_nodes = 4;              ///< tuning: 4, overload: 10
  int instances_per_config = 1;      ///< tuning: 1, overload: 20
  int soma_ranks_per_namespace = 1;  ///< Table 1
  std::uint64_t seed = 1;

  [[nodiscard]] static OpenFoamExperimentConfig tuning(std::uint64_t seed = 1);
  [[nodiscard]] static OpenFoamExperimentConfig overloaded(
      std::uint64_t seed = 1);
};

struct OpenFoamTaskRecord {
  std::string uid;
  int ranks = 0;
  double exec_seconds = 0.0;   ///< rank_start -> rank_stop
  int nodes_spanned = 0;
  double started_at = 0.0;     ///< rank_start, seconds since t=0
};

struct OpenFoamResult {
  std::vector<OpenFoamTaskRecord> tasks;

  /// Fig. 4: rank count -> execution-time summary across instances.
  std::map<int, Summary> scaling;

  /// Fig. 6: (rank count, nodes spanned) -> execution times.
  std::map<std::pair<int, int>, std::vector<double>> by_spread;

  /// Fig. 7: per-host utilization series (from the SOMA hardware store) and
  /// the task starts the RP monitor observed.
  analysis::UtilizationSeries node_utilization;
  std::vector<std::pair<double, std::string>> observed_task_starts;

  /// Fig. 8: core-state fractions + ASCII map over the worker nodes.
  double frac_bootstrap = 0.0;
  double frac_scheduling = 0.0;
  double frac_running = 0.0;
  double frac_idle = 0.0;
  std::string timeline_render;

  /// Fig. 5: TAU profile of one completed max-rank task (from the SOMA
  /// performance store).
  profiler::TauProfile sample_profile;

  double makespan_seconds = 0.0;  ///< first submit -> last app completion

  /// What the SOMA stack counted.
  StackTotals totals;
  std::uint64_t tau_profiles = 0;
};

/// Run the experiment end to end (builds its own Session) and extract every
/// figure's data.
OpenFoamResult run_openfoam_experiment(const OpenFoamExperimentConfig& config);

}  // namespace soma::experiments
