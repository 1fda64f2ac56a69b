// The benchmark's workloads. Each repetition builds a fresh stack from the
// simulator's public API, runs it to quiescence and tears it down, timing
// every phase from outside. See README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "helpers.hpp"

namespace perfbench {

struct RepOptions {
  std::uint64_t seed = 1;
  /// Time calls into the layers (driver publishes, store reads, monitor
  /// summaries) and sample the event queue. Never changes simulated output.
  bool traced = false;
  /// After the run, replay the stored records through the datamodel, wire
  /// and storage layers and the analysis routines (per-layer host costs).
  bool replay = false;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct RepResult {
  double setup_s = 0.0;     ///< workload start -> first simulated event
  double wall_s = 0.0;      ///< first event -> drained + results extracted
  double teardown_s = 0.0;  ///< destroying the driver-owned stack
  std::uint64_t events = 0;
  std::uint64_t records = 0;  ///< records in the final StoreView
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;  ///< of the simulated output
  std::vector<Check> checks;
  /// Per-layer metrics of this repetition (simulated counts always; host
  /// times only when traced; replay costs only when replayed).
  std::vector<Metric> layers;
  /// One-line notes for the log (paper comparison, sample counts).
  std::vector<std::string> notes;
  /// Composed-stack pipeline seconds (ddmd_scaling only), per SOMA mode.
  std::vector<std::vector<double>> pipeline_seconds;
};

/// Fig. 11 Scaling B at 256 pipelines: `none`, then `frequent-exclusive`.
RepResult run_ddmd_rep(const RepOptions& options);
/// run_ddmd_experiment on the same two configurations must reproduce the
/// composed stack's pipeline seconds bit for bit.
Check check_ddmd_identity(std::uint64_t seed,
                          const std::vector<std::vector<double>>& composed);

/// Open-loop publish storm; `batched_replicated` adds 16-record batching,
/// replication factor 2 and the lossy fabric.
RepResult run_publish_rep(const RepOptions& options, bool batched_replicated);

}  // namespace perfbench
