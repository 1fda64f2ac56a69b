// Task and Pilot descriptions and runtime records (paper §2.1).
//
// RP implements two abstractions: Pilot (a placeholder for resources) and
// Task (a unit of work plus its resource requirements). TaskDescription is
// what the user supplies; Task is the runtime record that accumulates state
// transitions, timestamped events, and the placement it received.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "rp/states.hpp"

namespace soma::rp {

class ExecutionModel;

/// Where one rank landed: a node plus the specific cores/GPUs it holds.
struct RankPlacement {
  NodeId node = -1;
  std::vector<CoreId> cores;
  std::vector<GpuId> gpus;
};

/// Placement of a whole task.
struct Placement {
  std::vector<RankPlacement> ranks;

  /// Number of distinct compute nodes the ranks span.
  [[nodiscard]] int nodes_spanned() const;
  /// Distinct node ids, ascending.
  [[nodiscard]] std::vector<NodeId> nodes() const;
};

/// What kind of entity this task is within the workflow (paper Fig. 2).
enum class TaskKind {
  kApplication,      ///< regular workload task
  kService,          ///< long-running service (the SOMA server)
  kMonitor,          ///< long-running monitoring client (RP / hardware)
  kWorker,           ///< long-running worker-pool member (RAPTOR): placed
                     ///< like an application task, lives until stopped
};

struct TaskDescription {
  std::string uid;
  TaskKind kind = TaskKind::kApplication;

  int ranks = 1;
  int cores_per_rank = 1;
  int gpus_per_rank = 0;
  double mem_per_rank_mib = 1024.0;

  /// Fraction of each allocated core the task keeps busy (drives /proc
  /// utilization). MPI solvers ~1.0; GPU-offloaded stages much lower.
  double cpu_activity = 1.0;

  /// Execution-time model; when null, `fixed_duration` is used. Service and
  /// monitor tasks ignore both (they run until stopped).
  std::shared_ptr<const ExecutionModel> model;
  Duration fixed_duration = Duration::seconds(1.0);

  /// Pin every rank to this node (monitor tasks; co-location with the
  /// agent). The scheduler fails the task if the node cannot hold it.
  std::optional<NodeId> pinned_node;

  /// Probability that the task crashes mid-execution (node fault, OOM,
  /// application abort). A failing task releases its resources and ends in
  /// FAILED at a uniformly random point of its nominal duration.
  double failure_probability = 0.0;

  /// Data staged in from the shared filesystem before launch and staged
  /// back out after execution (paper Fig. 1: "after staging files when
  /// required"). Zero skips the staging phases.
  double input_staging_mib = 0.0;
  double output_staging_mib = 0.0;

  /// Label used for grouping in analyses ("openfoam-82", "ddmd-sim", ...).
  std::string label;
};

/// Runtime record of a task.
class ProfileStore;

class Task {
 public:
  explicit Task(TaskDescription description)
      : description_(std::move(description)) {}

  /// Mirror every transition/event into `store` (RP writes .prof files as it
  /// goes; the SOMA RP monitor tails them). Pass nullptr to detach.
  void attach_profile(ProfileStore* store) { profile_ = store; }

  [[nodiscard]] const TaskDescription& description() const {
    return description_;
  }
  [[nodiscard]] const std::string& uid() const { return description_.uid; }

  [[nodiscard]] TaskState state() const { return state_; }
  /// Advance the state machine; records the transition time. Throws
  /// InternalError on an illegal transition.
  void advance(TaskState to, SimTime at);

  /// Timestamped fine-grained events (Listing 1).
  void record_event(std::string_view event, SimTime at);
  [[nodiscard]] const std::vector<std::pair<SimTime, std::string>>& event_log()
      const {
    return events_;
  }
  /// Time of the first occurrence of `event`, if recorded.
  [[nodiscard]] std::optional<SimTime> event_time(
      std::string_view event) const;

  /// State-entry timestamps, in transition order.
  [[nodiscard]] const std::vector<std::pair<SimTime, TaskState>>&
  state_history() const {
    return state_history_;
  }
  [[nodiscard]] std::optional<SimTime> state_entered(TaskState state) const;

  [[nodiscard]] const std::optional<Placement>& placement() const {
    return placement_;
  }
  void set_placement(Placement placement) {
    placement_ = std::move(placement);
  }

  /// rank_start -> rank_stop span, when both are recorded.
  [[nodiscard]] std::optional<Duration> rank_duration() const;

 private:
  TaskDescription description_;
  TaskState state_ = TaskState::kNew;
  std::vector<std::pair<SimTime, TaskState>> state_history_{
      {SimTime::zero(), TaskState::kNew}};
  std::vector<std::pair<SimTime, std::string>> events_;
  std::optional<Placement> placement_;
  ProfileStore* profile_ = nullptr;
};

struct PilotDescription {
  std::string uid = "pilot.0000";
  int nodes = 1;
  Duration runtime = Duration::minutes(120);
};

}  // namespace soma::rp
