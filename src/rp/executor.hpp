// Agent-side executor (paper Fig. 1, step 8).
//
// Takes a placed task, sets up its execution environment, launches it, and
// emits the Listing-1 event sequence: launch_start, exec_start, rank_start,
// rank_stop, exec_stop, launch_stop. Application task durations come from
// the task's ExecutionModel; service and monitor tasks run until stopped.
//
// A per-node "noise factor" models interference from co-located monitoring
// clients (OS jitter from frequent /proc scraping + RPC publishing): task
// durations stretch by (1 + max noise over the task's nodes).
#pragma once

#include <functional>
#include <unordered_map>

#include "common/rng.hpp"
#include "rp/task.hpp"
#include "sim/simulation.hpp"

namespace soma::rp {

class Executor {
 public:
  using Callback = std::function<void(TaskId)>;

  /// Runs tasks of `tasks`, which must outlive the executor.
  Executor(sim::Simulation& simulation, TaskTable& tasks, Rng rng);

  /// Fired at launch_stop for application tasks (DONE or FAILED), and when
  /// a service / monitor task is stopped.
  void set_on_complete(Callback callback) {
    on_complete_ = std::move(callback);
  }

  /// Fired at rank_start for every task (services included) — the moment a
  /// service task's RPC endpoints come alive.
  void set_on_start(Callback callback) {
    on_start_ = std::move(callback);
  }

  /// Launch a placed task. Application tasks complete on their own;
  /// service/monitor tasks run until stop().
  void launch(TaskId id);

  /// Stop a long-running service/monitor task (paper §2.3.1: service tasks
  /// are shut down through a control command once the workflow completes).
  /// No-op if the task already finished or was never launched.
  void stop(TaskId id);

  /// Kill a running task (walltime expiry, user abort): the task ends in
  /// CANCELED immediately, with rank_stop recorded at the kill. No-op if
  /// the task is not running.
  void cancel(TaskId id);

  /// Interference from co-located monitoring on `node` (0 = none). The
  /// session recomputes this when monitors are deployed or retuned.
  void set_node_noise(NodeId node, double fraction);
  [[nodiscard]] double node_noise(NodeId node) const;

  /// Launched (EXECUTING) and its ranks not yet stopped.
  [[nodiscard]] bool is_running(TaskId id) const {
    return id < tasks_.size() && tasks_[id].state() == TaskState::kExecuting &&
           !tasks_[id].event_time(Event::kRankStop);
  }

 private:
  void begin_launch(TaskId id);
  [[nodiscard]] Duration staging_time(double mib) const;
  void finish(TaskId id, SimTime rank_stop_at);
  void fail(TaskId id, SimTime at);
  [[nodiscard]] double max_noise(const Placement& placement) const;

  sim::Simulation& simulation_;
  TaskTable& tasks_;
  Rng rng_;
  Callback on_complete_;
  Callback on_start_;
  std::unordered_map<NodeId, double> node_noise_;
};

}  // namespace soma::rp
