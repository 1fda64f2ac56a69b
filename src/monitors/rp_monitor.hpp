// The RP workflow-monitoring client (paper §2.3.2, "Workflow Namespace").
//
// One per workflow, co-located with the RP agent. At a configurable
// frequency it tails RP's profile stream, computes summary statistics (task
// counts by state, throughput, state dwell times) plus the raw new events,
// and publishes the result to the SOMA workflow instance.
//
// Cost model: summarizing n tracked tasks costs base + per_task * n of agent
// -node CPU per tick. The resulting CPU share is exported so the session can
// inflate agent scheduler decision cost — the mechanism behind the
// frequent-monitoring overhead at scale (paper Fig. 11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "rp/session.hpp"
#include "sim/simulation.hpp"
#include "soma/client.hpp"

namespace soma::monitors {

struct RpMonitorConfig {
  Duration period = Duration::seconds(60.0);
};

/// The monitor is a single-threaded daemon: its CPU share saturates well
/// below one core once ticks start overrunning the period.
inline constexpr double kCpuShareCap = 0.30;

/// Snapshot of workflow state the monitor publishes each tick.
struct WorkflowSummary {
  std::int64_t tasks_total = 0;
  std::int64_t tasks_pending = 0;    ///< NEW/TMGR/AGENT scheduling
  std::int64_t tasks_executing = 0;
  std::int64_t tasks_done = 0;
  std::int64_t tasks_failed = 0;
  double throughput_per_min = 0.0;   ///< completions in the last window
  double mean_exec_seconds = 0.0;    ///< mean rank duration of done tasks

  // Mean time spent in each state by tasks that left it (paper §2.3.2:
  // "calculates the time spent in each state, and sends it via RPC").
  double mean_tmgr_wait_seconds = 0.0;    ///< TMGR_SCHEDULING dwell
  double mean_agent_wait_seconds = 0.0;   ///< AGENT_SCHEDULING dwell
  double mean_launch_overhead_seconds = 0.0;  ///< launch_start -> rank_start
};

class RpMonitor {
 public:
  RpMonitor(rp::Session& session, core::SomaClient& client,
            RpMonitorConfig config = {});

  void start(Duration initial_delay = Duration::zero());
  void stop();

  /// Fraction of one agent-node core this monitor consumes (cost / period);
  /// the session reads this to derive scheduler contention.
  [[nodiscard]] double cpu_share() const;

  [[nodiscard]] const WorkflowSummary& last_summary() const {
    return last_summary_;
  }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] const RpMonitorConfig& config() const { return config_; }

  /// Compute the summary without publishing (used by tests/advisor).
  /// Calling it between ticks does not change what a tick publishes.
  [[nodiscard]] WorkflowSummary compute_summary() const;

 private:
  /// Sum and count of one dwell time over the tasks that have it.
  struct DwellSum {
    Duration total;
    std::int64_t count = 0;

    void add(Duration dwell) {
      total += dwell;
      ++count;
    }
    [[nodiscard]] double mean_seconds() const;
  };

  /// A task whose summary inputs may still change. Each dwell is folded
  /// into the totals once, when the later of its two timestamps exists;
  /// from then on the task's logs can only grow, so it cannot change.
  struct TaskFold {
    rp::TaskId id;
    std::uint32_t records_seen = 0;  ///< the task's records() at last look
    bool tmgr = false;
    bool agent = false;
    bool launch = false;
    bool exec = false;
  };

  /// Fold the dwells of `fold`'s task that became known since the last look.
  void fold_task(TaskFold& fold, const rp::Task& task) const;

  void tick();

  rp::Session& session_;
  core::SomaClient& client_;
  RpMonitorConfig config_;
  std::unique_ptr<sim::PeriodicTask> periodic_;
  std::size_t profile_cursor_ = 0;
  std::uint64_t ticks_ = 0;
  std::int64_t done_at_last_tick_ = 0;
  WorkflowSummary last_summary_;

  // Summary state folded so far. compute_summary() is const (callers
  // probe it through a const monitor) and advances it: the fold is exact,
  // so where it stands never changes a result.
  mutable std::size_t tasks_seen_ = 0;
  mutable std::vector<TaskFold> in_flight_;
  mutable std::int64_t settled_done_ = 0;
  mutable std::int64_t settled_failed_ = 0;
  mutable DwellSum exec_, tmgr_wait_, agent_wait_, launch_overhead_;
};

}  // namespace soma::monitors
