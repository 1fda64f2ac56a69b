// Task and Pilot descriptions and runtime records (paper §2.1).
//
// RP implements two abstractions: Pilot (a placeholder for resources) and
// Task (a unit of work plus its resource requirements). TaskDescription is
// what the user supplies; Task is the runtime record of its state, the
// placement it received and when it first reached each state and event.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "rp/profile.hpp"
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

/// Runtime record of a task: its state, placement and the first time it
/// entered each state or recorded each event. Every transition and event is
/// also appended to the session's profile log, which alone keeps them all.
class Task {
 public:
  /// `log` receives this task's records under `id`; a standalone task may
  /// have none.
  explicit Task(TaskDescription description, TaskId id = 0,
                ProfileStore* log = nullptr);
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  [[nodiscard]] TaskId id() const { return id_; }
  [[nodiscard]] const TaskDescription& description() const {
    return description_;
  }
  [[nodiscard]] const std::string& uid() const { return description_.uid; }

  [[nodiscard]] TaskState state() const { return state_; }
  /// Advance the state machine; records the transition time. Throws
  /// InternalError on an illegal transition.
  void advance(TaskState to, SimTime at);

  /// Record a timestamped event (Listing 1 and the component events; a
  /// state is entered through advance()).
  void record_event(Event event, SimTime at);
  /// Time of the first occurrence of `event`, if recorded.
  [[nodiscard]] std::optional<SimTime> event_time(Event event) const;
  /// Time the task first entered `state`, if it did.
  [[nodiscard]] std::optional<SimTime> state_entered(TaskState state) const {
    return event_time(event_of(state));
  }
  /// Records this task has written to the log: grows with every transition
  /// and event, so a reader can tell that something changed.
  [[nodiscard]] std::uint32_t records() const { return records_; }

  [[nodiscard]] const std::optional<Placement>& placement() const {
    return placement_;
  }
  void set_placement(Placement placement) {
    placement_ = std::move(placement);
  }

  /// rank_start -> rank_stop span, when both are recorded.
  [[nodiscard]] std::optional<Duration> rank_duration() const;

 private:
  void record(Event event, SimTime at);

  TaskDescription description_;
  std::optional<Placement> placement_;
  ProfileStore* log_;
  TaskId id_;
  TaskState state_ = TaskState::kNew;
  std::uint32_t records_ = 0;
  /// The first time of each task code, indexed by Event.
  std::array<std::optional<SimTime>, kTaskEvents> first_{};
};

/// Every task of a session, indexed by TaskId. A deque: a task never moves
/// once added, and none is ever erased.
using TaskTable = std::deque<Task>;

/// The uid of a session's one pilot.
inline constexpr std::string_view kPilotUid = "pilot.0000";

struct PilotDescription {
  int nodes = 1;
  Duration runtime = Duration::minutes(120);
};

}  // namespace soma::rp
