#include "monitors/rp_monitor.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace soma::monitors {
namespace {

/// Fixed cost per tick (read profiles, build the Node).
constexpr Duration kSummarizeBaseCost = Duration::milliseconds(20);
/// Additional cost per tracked task per tick.
constexpr Duration kSummarizePerTaskCost = Duration::milliseconds(2);

}  // namespace

RpMonitor::RpMonitor(rp::Session& session, core::SomaClient& client,
                     RpMonitorConfig config)
    : session_(session), client_(client), config_(config) {
  check(client_.target_namespace() == core::Namespace::kWorkflow,
        "RP monitor requires a workflow-namespace client");
  periodic_ = std::make_unique<sim::PeriodicTask>(
      session_.simulation(), config_.period, [this] { tick(); });
}

void RpMonitor::start(Duration initial_delay) {
  periodic_->start(initial_delay);
}

void RpMonitor::stop() {
  // Final flush: publish the end-of-workflow state (completions that landed
  // since the last periodic tick would otherwise never be reported).
  if (periodic_->running()) tick();
  periodic_->stop();
  // ... and ship it, if the client is coalescing publishes into batches.
  client_.flush_batches();
}

double RpMonitor::cpu_share() const {
  const double tracked = static_cast<double>(session_.tasks().size());
  const double cost_seconds =
      kSummarizeBaseCost.to_seconds() +
      kSummarizePerTaskCost.to_seconds() * tracked;
  return std::min(kCpuShareCap,
                  cost_seconds / config_.period.to_seconds());
}

double RpMonitor::DwellSum::mean_seconds() const {
  return count == 0 ? 0.0 : total.to_seconds() / static_cast<double>(count);
}

void RpMonitor::fold_task(TaskFold& fold, const rp::Task& task) const {
  fold.records_seen = task.records();
  // State dwell times for every task that progressed past the state.
  if (!fold.tmgr || !fold.agent) {
    const auto tmgr = task.state_entered(rp::TaskState::kTmgrScheduling);
    const auto agent = task.state_entered(rp::TaskState::kAgentScheduling);
    if (!fold.tmgr && tmgr && agent) {
      tmgr_wait_.add(*agent - *tmgr);
      fold.tmgr = true;
    }
    if (!fold.agent && agent) {
      if (const auto executing =
              task.state_entered(rp::TaskState::kExecuting)) {
        agent_wait_.add(*executing - *agent);
        fold.agent = true;
      }
    }
  }
  if (!fold.launch) {
    const auto launch_start = task.event_time(rp::Event::kLaunchStart);
    const auto rank_start = task.event_time(rp::Event::kRankStart);
    if (launch_start && rank_start) {
      launch_overhead_.add(*rank_start - *launch_start);
      fold.launch = true;
    }
  }
  if (!fold.exec && task.state() == rp::TaskState::kDone) {
    if (const auto d = task.rank_duration()) {
      exec_.add(*d);
      fold.exec = true;
    }
  }
}

WorkflowSummary RpMonitor::compute_summary() const {
  const auto& tasks = session_.tasks();
  for (; tasks_seen_ < tasks.size(); ++tasks_seen_) {
    in_flight_.push_back(TaskFold{.id = static_cast<rp::TaskId>(tasks_seen_)});
  }

  WorkflowSummary summary;
  summary.tasks_total = static_cast<std::int64_t>(tasks.size());
  // A final task leaves the list once nothing it could still record would
  // add a dwell; one canceled before it ran stays, at one count read a tick.
  std::erase_if(in_flight_, [&](TaskFold& fold) {
    const rp::Task& task = tasks[fold.id];
    if (task.records() != fold.records_seen) fold_task(fold, task);
    const rp::TaskState state = task.state();
    const bool settled =
        rp::is_final(state) && fold.tmgr && fold.agent && fold.launch &&
        (fold.exec || state != rp::TaskState::kDone);
    switch (state) {
      case rp::TaskState::kNew:
      case rp::TaskState::kTmgrScheduling:
      case rp::TaskState::kAgentScheduling:
        ++summary.tasks_pending;
        break;
      case rp::TaskState::kExecuting:
        ++summary.tasks_executing;
        break;
      case rp::TaskState::kDone:
        ++(settled ? settled_done_ : summary.tasks_done);
        break;
      case rp::TaskState::kFailed:
      case rp::TaskState::kCanceled:
        ++(settled ? settled_failed_ : summary.tasks_failed);
        break;
    }
    return settled;
  });
  summary.tasks_done += settled_done_;
  summary.tasks_failed += settled_failed_;
  summary.mean_exec_seconds = exec_.mean_seconds();
  summary.mean_tmgr_wait_seconds = tmgr_wait_.mean_seconds();
  summary.mean_agent_wait_seconds = agent_wait_.mean_seconds();
  summary.mean_launch_overhead_seconds = launch_overhead_.mean_seconds();
  return summary;
}

void RpMonitor::tick() {
  ++ticks_;
  WorkflowSummary summary = compute_summary();
  summary.throughput_per_min =
      static_cast<double>(summary.tasks_done - done_at_last_tick_) /
      (config_.period.to_seconds() / 60.0);
  done_at_last_tick_ = summary.tasks_done;
  last_summary_ = summary;

  // Build the workflow-namespace record: a summary block plus the raw new
  // profile events since the last tick (Listing 1 layout:
  // <uid>/<timestamp> = <event>).
  datamodel::Node data;
  datamodel::Node& s = data["summary"];
  s["tasks_total"].set(summary.tasks_total);
  s["tasks_pending"].set(summary.tasks_pending);
  s["tasks_executing"].set(summary.tasks_executing);
  s["tasks_done"].set(summary.tasks_done);
  s["tasks_failed"].set(summary.tasks_failed);
  s["throughput_per_min"].set(summary.throughput_per_min);
  s["mean_exec_seconds"].set(summary.mean_exec_seconds);
  s["mean_tmgr_wait_seconds"].set(summary.mean_tmgr_wait_seconds);
  s["mean_agent_wait_seconds"].set(summary.mean_agent_wait_seconds);
  s["mean_launch_overhead_seconds"].set(
      summary.mean_launch_overhead_seconds);

  // Each subject's child is found through a tick-local table indexed by
  // TaskId (the pilot takes the last slot) rather than a scan of `events`,
  // which holds thousands of uids at Fig. 11 scale. Timestamps still go
  // through child(), so an event recorded in the same nanosecond as an
  // earlier one of its task overwrites it in place.
  datamodel::Node& events = data["events"];
  const rp::TaskTable& tasks = session_.tasks();
  constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  std::vector<std::size_t> child_of(tasks.size() + 1, kAbsent);
  for (const rp::ProfileRecord& record :
       session_.profiles().read_since(profile_cursor_)) {
    const bool pilot = record.subject == rp::kPilotSubject;
    std::size_t& child = child_of[pilot ? tasks.size() : record.subject];
    if (child == kAbsent) {
      child = events.number_of_children();
      const std::string_view uid =
          pilot ? rp::kPilotUid : std::string_view(tasks[record.subject].uid());
      events.append_child(uid);
    }
    events.child_at(child)
        .child(std::to_string(record.time.nanos()))
        .set(rp::to_string(record.event));
  }

  client_.publish("rp_monitor", std::move(data));
}

}  // namespace soma::monitors
