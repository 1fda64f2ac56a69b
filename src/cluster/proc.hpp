// Synthetic /proc snapshot (paper Listing 2).
//
// The hardware monitoring client reads /proc on each node. Here the snapshot
// is synthesized from the compute-node occupancy model: jiffy counters are
// derived from exact busy-time integrals, so utilization computed from two
// snapshots matches the simulation's ground truth (plus a small background
// OS activity term).
#pragma once

#include "cluster/platform.hpp"
#include "common/rng.hpp"
#include "datamodel/node.hpp"

namespace soma::cluster {

/// Fraction of one core consumed by background OS daemons.
inline constexpr double kBackgroundActivity = 0.01;
/// Jiffy frequency (Linux USER_HZ).
inline constexpr double kJiffiesPerSecond = 100.0;
/// Baseline process count for an idle node.
inline constexpr int kBaselineProcesses = 2;

/// Build a /proc-style snapshot for `node` at the current simulated time:
///
///   cnNNNN/
///     <timestamp ns>/
///       Uptime:         <seconds>
///       Num Processes:  <count>
///       Available RAM:  <MiB>
///       stat/
///         cpu:  [user, nice, system, idle, iowait, irq]
///         cpu0: [...]   (per usable core)
///
/// Counters are cumulative, as in the real /proc/stat; the monitor diffs
/// consecutive snapshots to obtain utilization.
datamodel::Node make_proc_snapshot(const ComputeNode& node, SimTime now,
                                   Rng& rng);

/// Utilization in [0,1] from two cumulative `stat/cpu` jiffy arrays
/// (busy-delta over total-delta). Returns 0 when no time elapsed.
double utilization_from_stat(const std::vector<std::int64_t>& before,
                             const std::vector<std::int64_t>& after);

}  // namespace soma::cluster
