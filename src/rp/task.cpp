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

Task::Task(TaskDescription description, TaskId id, ProfileStore* log)
    : description_(std::move(description)), log_(log), id_(id) {
  // Every task is NEW from time zero; the log does not record that entry.
  first_[static_cast<std::size_t>(Event::kNew)] = SimTime::zero();
}

void Task::advance(TaskState to, SimTime at) {
  if (!is_valid_transition(state_, to)) {
    throw InternalError("illegal task state transition: " +
                        std::string(to_string(state_)) + " -> " +
                        std::string(to_string(to)) + " (task " + uid() + ")");
  }
  state_ = to;
  record(event_of(to), at);
}

void Task::record_event(Event event, SimTime at) {
  check(event >= Event::kScheduleStart &&
            static_cast<std::size_t>(event) < kTaskEvents,
        "record_event takes a task event, not a state");
  record(event, at);
}

void Task::record(Event event, SimTime at) {
  std::optional<SimTime>& first = first_[static_cast<std::size_t>(event)];
  if (!first) first = at;
  ++records_;
  if (log_ != nullptr) log_->record(at, id_, event);
}

std::optional<SimTime> Task::event_time(Event event) const {
  const auto index = static_cast<std::size_t>(event);
  return index < kTaskEvents ? first_[index] : std::nullopt;
}

std::optional<Duration> Task::rank_duration() const {
  const auto start = event_time(Event::kRankStart);
  const auto stop = event_time(Event::kRankStop);
  if (!start || !stop) return std::nullopt;
  return *stop - *start;
}

}  // namespace soma::rp
