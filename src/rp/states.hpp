// RADICAL-Pilot state machine (paper §2.3.2, "Workflow Namespace").
//
// RP components function as state machines; a task proceeds NEW ->
// TMGR_SCHEDULING -> AGENT_SCHEDULING -> EXECUTING -> DONE/FAILED, and the
// EXECUTING state is refined by timestamped events (Listing 1):
// launch_start, exec_start, rank_start, rank_stop, exec_stop, launch_stop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace soma::rp {

enum class TaskState : std::uint8_t {
  kNew,
  kTmgrScheduling,   ///< queued at the client TaskManager/Scheduler
  kAgentScheduling,  ///< waiting for / receiving an agent placement
  kExecuting,
  kDone,
  kFailed,
  kCanceled,
};

/// Everything the profile log records: a task's state entries (in TaskState
/// order, so a state converts by value), the events its components record,
/// and the pilot's states. Task codes come first: they index a task's
/// first-entry table.
enum class Event : std::uint8_t {
  kNew, kTmgrScheduling, kAgentScheduling, kExecuting, kDone, kFailed,
  kCanceled,
  kScheduleStart, kSlotsClaimed, kScheduleOk,
  // Data staging (Fig. 1: "after staging files when required").
  kStageInStart, kStageInStop, kStageOutStart, kStageOutStop,
  // Listing 1, in order.
  kLaunchStart, kExecStart, kRankStart, kRankStop, kExecStop, kLaunchStop,
  // The pilot: queued at the batch system, agent bootstrapped, released.
  kPilotNew, kPilotPmgrLaunching, kPilotActive, kPilotDone, kPilotFailed,
};

/// Number of codes a task records (everything before the pilot's).
inline constexpr std::size_t kTaskEvents =
    static_cast<std::size_t>(Event::kPilotNew);

[[nodiscard]] constexpr Event event_of(TaskState state) {
  return static_cast<Event>(state);
}

/// RP's profile names: "AGENT_SCHEDULING", "rank_start", "PMGR_LAUNCHING".
[[nodiscard]] std::string_view to_string(Event event);
[[nodiscard]] inline std::string_view to_string(TaskState state) {
  return to_string(event_of(state));
}

/// True for states a task can never leave.
[[nodiscard]] constexpr bool is_final(TaskState state) {
  return state == TaskState::kDone || state == TaskState::kFailed ||
         state == TaskState::kCanceled;
}

/// Legal forward transitions (used to assert state-machine integrity).
[[nodiscard]] bool is_valid_transition(TaskState from, TaskState to);

}  // namespace soma::rp
