#include "rp/executor.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "rp/execution_model.hpp"

namespace soma::rp {
namespace {

/// launch_start -> exec_start: jsrun/launcher spawn cost (Listing 1 shows
/// ~0.36 s on Summit).
constexpr Duration kLaunchCostMedian = Duration::milliseconds(360);
constexpr double kLaunchCostSigma = 0.25;
/// exec_start -> rank_start: runtime init inside the task (~7 ms).
constexpr Duration kExecPrologue = Duration::milliseconds(7);
/// rank_stop -> exec_stop (~8 ms).
constexpr Duration kExecEpilogue = Duration::milliseconds(8);
/// exec_stop -> launch_stop: launcher teardown (~73 ms).
constexpr Duration kLaunchTeardown = Duration::milliseconds(73);

/// Parallel-filesystem bandwidth seen by one task's staging (GPFS-class).
constexpr double kStagingBandwidthMibPerS = 500.0;
/// Fixed metadata cost per staging phase.
constexpr Duration kStagingLatency = Duration::milliseconds(50);

}  // namespace

Executor::Executor(sim::Simulation& simulation, TaskTable& tasks, Rng rng)
    : simulation_(simulation), tasks_(tasks), rng_(rng) {}

void Executor::set_node_noise(NodeId node, double fraction) {
  check(fraction >= 0.0, "node noise must be non-negative");
  node_noise_[node] = fraction;
}

double Executor::node_noise(NodeId node) const {
  const auto it = node_noise_.find(node);
  return it == node_noise_.end() ? 0.0 : it->second;
}

double Executor::max_noise(const Placement& placement) const {
  double noise = 0.0;
  for (NodeId node : placement.nodes()) {
    noise = std::max(noise, node_noise(node));
  }
  return noise;
}

Duration Executor::staging_time(double mib) const {
  if (mib <= 0.0) return Duration::zero();
  return kStagingLatency + Duration::seconds(mib / kStagingBandwidthMibPerS);
}

void Executor::launch(TaskId id) {
  Task& task = tasks_.at(id);
  check(task.placement().has_value(), "executor: task has no placement");
  const TaskDescription& d = task.description();

  task.advance(TaskState::kExecuting, simulation_.now());

  // Stage input files before the launcher runs (Fig. 1: "after staging
  // files when required, tasks are queued...").
  if (d.input_staging_mib > 0.0) {
    task.record_event(Event::kStageInStart, simulation_.now());
    simulation_.schedule(staging_time(d.input_staging_mib), [this, id] {
      tasks_[id].record_event(Event::kStageInStop, simulation_.now());
      begin_launch(id);
    });
    return;
  }
  begin_launch(id);
}

void Executor::begin_launch(TaskId id) {
  if (!is_running(id)) return;  // cancelled during staging
  Task& task = tasks_[id];
  task.record_event(Event::kLaunchStart, simulation_.now());

  Rng task_rng = rng_.split(task.description().uid);
  const Duration launch = Duration::seconds(task_rng.lognormal(
      kLaunchCostMedian.to_seconds(), kLaunchCostSigma));

  simulation_.schedule(launch, [this, id, task_rng]() mutable {
    tasks_[id].record_event(Event::kExecStart, simulation_.now());
    simulation_.schedule(kExecPrologue, [this, id,
                                                 task_rng]() mutable {
      Task& task = tasks_[id];
      task.record_event(Event::kRankStart, simulation_.now());
      if (on_start_) on_start_(id);
      const TaskDescription& d = task.description();

      if (d.kind != TaskKind::kApplication) {
        // Service/monitor tasks run until stop(); nothing more to schedule.
        return;
      }

      Duration duration = d.model
                              ? d.model->sample_duration(
                                    d, *task.placement(), task_rng)
                              : d.fixed_duration;
      duration = duration * (1.0 + max_noise(*task.placement()));

      // Failure injection: a crashing task dies partway through.
      if (d.failure_probability > 0.0 &&
          task_rng.bernoulli(d.failure_probability)) {
        const Duration until_crash = duration * task_rng.uniform(0.05, 0.95);
        simulation_.schedule(until_crash, [this, id] {
          fail(id, simulation_.now());
        });
        return;
      }
      simulation_.schedule(duration, [this, id] {
        finish(id, simulation_.now());
      });
    });
  });
}

void Executor::stop(TaskId id) {
  // A task stopped before rank_start simply records the stop sequence now.
  finish(id, simulation_.now());
}

void Executor::fail(TaskId id, SimTime at) {
  if (!is_running(id)) return;

  // The launcher observes the crash: rank_stop/exec_stop are recorded at
  // the abort, then the launcher tears down and RP marks the task FAILED.
  Task& task = tasks_[id];
  task.record_event(Event::kRankStop, at);
  task.record_event(Event::kExecStop, at);
  const SimTime launch_stop = at + kLaunchTeardown;
  simulation_.schedule_at(launch_stop, [this, id, launch_stop] {
    Task& task = tasks_[id];
    task.record_event(Event::kLaunchStop, launch_stop);
    task.advance(TaskState::kFailed, launch_stop);
    if (on_complete_) on_complete_(id);
  });
}

void Executor::cancel(TaskId id) {
  if (!is_running(id)) return;
  Task& task = tasks_[id];
  const SimTime now = simulation_.now();
  task.record_event(Event::kRankStop, now);
  task.record_event(Event::kExecStop, now);
  task.record_event(Event::kLaunchStop, now);
  task.advance(TaskState::kCanceled, now);
  if (on_complete_) on_complete_(id);
}

void Executor::finish(TaskId id, SimTime rank_stop_at) {
  if (!is_running(id)) return;  // stopped twice / already completed

  tasks_[id].record_event(Event::kRankStop, rank_stop_at);
  const SimTime exec_stop = rank_stop_at + kExecEpilogue;
  const SimTime launch_stop = exec_stop + kLaunchTeardown;

  simulation_.schedule_at(exec_stop, [this, id, exec_stop] {
    tasks_[id].record_event(Event::kExecStop, exec_stop);
  });
  simulation_.schedule_at(launch_stop, [this, id, launch_stop] {
    Task& task = tasks_[id];
    task.record_event(Event::kLaunchStop, launch_stop);
    // Stage output files back to the shared filesystem, then finish.
    const double out_mib = task.description().output_staging_mib;
    if (out_mib > 0.0) {
      task.record_event(Event::kStageOutStart, simulation_.now());
      simulation_.schedule(staging_time(out_mib), [this, id] {
        Task& task = tasks_[id];
        task.record_event(Event::kStageOutStop, simulation_.now());
        task.advance(TaskState::kDone, simulation_.now());
        if (on_complete_) on_complete_(id);
      });
      return;
    }
    task.advance(TaskState::kDone, launch_stop);
    if (on_complete_) on_complete_(id);
  });
}

}  // namespace soma::rp
