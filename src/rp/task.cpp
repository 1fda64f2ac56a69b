#include "rp/task.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "rp/profile.hpp"

namespace soma::rp {

int Placement::nodes_spanned() const {
  return static_cast<int>(nodes().size());
}

std::vector<NodeId> Placement::nodes() const {
  std::vector<NodeId> ids;
  ids.reserve(ranks.size());
  for (const auto& r : ranks) ids.push_back(r.node);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

void Task::advance(TaskState to, SimTime at) {
  if (!is_valid_transition(state_, to)) {
    throw InternalError("illegal task state transition: " +
                        std::string(to_string(state_)) + " -> " +
                        std::string(to_string(to)) + " (task " + uid() + ")");
  }
  state_ = to;
  state_history_.emplace_back(at, to);
  if (profile_ != nullptr) profile_->record(at, uid(), to_string(to));
}

void Task::record_event(std::string_view event, SimTime at) {
  events_.emplace_back(at, std::string(event));
  if (profile_ != nullptr) profile_->record(at, uid(), event);
}

std::optional<SimTime> Task::event_time(std::string_view event) const {
  for (const auto& [time, name] : events_) {
    if (name == event) return time;
  }
  return std::nullopt;
}

std::optional<SimTime> Task::state_entered(TaskState state) const {
  for (const auto& [time, s] : state_history_) {
    if (s == state) return time;
  }
  return std::nullopt;
}

std::optional<Duration> Task::rank_duration() const {
  const auto start = event_time(events::kRankStart);
  const auto stop = event_time(events::kRankStop);
  if (!start || !stop) return std::nullopt;
  return *stop - *start;
}

}  // namespace soma::rp
