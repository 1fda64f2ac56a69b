// In-situ analysis and adaptive advice (paper §4 and §6 / future work).
//
// These functions run against the SOMA service's store through the
// StoreView — the data is already "in SOMA's possession",
// sharded across the service ranks — and compute the decisions the paper
// motivates: where free resources are (Fig. 9 discussion) and how to
// reconfigure the next DDMD phase (Table 2, "Adaptive"). The feedback loop
// into RP that the paper lists as future work is implemented here and
// demonstrated in examples/adaptive_feedback.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "soma/store.hpp"

namespace soma::analysis {

/// One hardware record's leaves for one host, each empty when absent: the
/// utilizations the hardware monitor attaches to every snapshot and the
/// newest `Available RAM` among the record's snapshot blocks. `read_host` is
/// the one reader of these leaf names.
struct HostReading {
  std::optional<double> cpu;
  std::optional<double> gpu;
  std::optional<std::int64_t> available_ram_mib;
};
HostReading read_host(const core::TimedRecord& record, const std::string& host);

/// One point of a host's utilization series (gpu 0 when the record has none).
struct UtilizationSample {
  double t = 0.0;  ///< ingest time, seconds
  double cpu = 0.0;
  double gpu = 0.0;
};
using UtilizationSeries =
    std::map<std::string, std::vector<UtilizationSample>>;

/// Host -> utilization series of the hardware namespace, in ingest order,
/// skipping records without a CPU utilization.
UtilizationSeries utilization_series(const core::StoreView& view);

/// Per-node free-resource estimate derived from the hardware namespace.
struct FreeResourceReport {
  struct NodeReport {
    std::string hostname;
    double mean_utilization = 0.0;  ///< CPU, over the observed window
    double last_utilization = 0.0;
    double mean_gpu_utilization = 0.0;
    double last_gpu_utilization = 0.0;
    std::int64_t available_ram_mib = 0;
  };
  std::vector<NodeReport> nodes;

  [[nodiscard]] double mean_utilization() const;
  [[nodiscard]] double mean_gpu_utilization() const;
};

/// Scan the hardware namespace of the store behind `view` and summarize
/// per-node CPU utilization (uses the online `cpu_utilization` values the
/// monitors attach to every snapshot).
FreeResourceReport analyze_hardware(const core::StoreView& view);

/// Workflow-progress series from the workflow namespace: one entry per
/// monitor tick.
struct ProgressPoint {
  SimTime time;
  std::int64_t done = 0;
  std::int64_t executing = 0;
  std::int64_t pending = 0;
  double throughput_per_min = 0.0;
};
std::vector<ProgressPoint> workflow_progress(const core::StoreView& view,
                                             const std::string& source =
                                                 "rp_monitor");

/// Task-start times observed by the RP monitor (the orange dots of Fig. 7):
/// rank_start events extracted from the published event blocks.
std::vector<std::pair<SimTime, std::string>> observed_task_starts(
    const core::StoreView& view,
    const std::string& source = "rp_monitor");

/// Adaptive recommendation for the DDMD mini-app (paper §4.3): given the
/// observed mean CPU utilization and the GPU headroom, suggest the training
/// parallelism and cores/task for the next phase.
struct DdmdAdvice {
  int train_tasks = 1;
  int cores_per_sim_task = 1;
  std::string rationale;
};
DdmdAdvice advise_ddmd(const FreeResourceReport& hardware, int gpus_free,
                       int current_train_tasks);

}  // namespace soma::analysis
