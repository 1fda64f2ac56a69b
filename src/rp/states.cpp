#include "rp/states.hpp"

#include <iterator>

namespace soma::rp {

std::string_view to_string(Event event) {
  static constexpr std::string_view kNames[] = {
      "NEW", "TMGR_SCHEDULING", "AGENT_SCHEDULING", "EXECUTING", "DONE",
      "FAILED", "CANCELED",
      "schedule_start", "slots_claimed", "schedule_ok",
      "stage_in_start", "stage_in_stop", "stage_out_start", "stage_out_stop",
      "launch_start", "exec_start", "rank_start", "rank_stop", "exec_stop",
      "launch_stop",
      "NEW", "PMGR_LAUNCHING", "ACTIVE", "DONE", "FAILED"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(Event::kPilotFailed) + 1);
  const auto index = static_cast<std::size_t>(event);
  return index < std::size(kNames) ? kNames[index] : "?";
}

bool is_valid_transition(TaskState from, TaskState to) {
  if (is_final(from)) return false;
  switch (to) {
    case TaskState::kNew:
      return false;
    case TaskState::kTmgrScheduling:
      return from == TaskState::kNew;
    case TaskState::kAgentScheduling:
      return from == TaskState::kTmgrScheduling;
    case TaskState::kExecuting:
      return from == TaskState::kAgentScheduling;
    case TaskState::kDone:
    case TaskState::kFailed:
      return from == TaskState::kExecuting;
    case TaskState::kCanceled:
      return true;  // cancellation is legal from any non-final state
  }
  return false;
}

}  // namespace soma::rp
