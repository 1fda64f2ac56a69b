#include "rp/session.hpp"

#include <cstdio>
#include <numeric>

#include "common/error.hpp"
#include "common/log.hpp"

namespace soma::rp {
namespace {

/// Median batch-queue wait of the pilot job. Kept short: the experiments
/// measure workflow-internal behaviour, not facility queue pressure.
constexpr Duration kQueueWaitMedian = Duration::seconds(5.0);
/// Shape of the lognormal queue-wait noise.
constexpr double kQueueWaitSigma = 0.3;

/// Agent bootstrap time (pilot grant -> ready to schedule). The light-blue
/// band of paper Fig. 8.
constexpr Duration kBootstrapMedian = Duration::seconds(20.0);
constexpr double kBootstrapSigma = 0.15;

/// Client-side TaskManager processing cost per task (queueing, staging).
constexpr Duration kTmgrCost = Duration::milliseconds(5);

}  // namespace

Session::Session(SessionConfig config)
    : config_(std::move(config)),
      simulation_(),
      rng_(config_.seed),
      platform_(simulation_, config_.platform),
      network_(simulation_, config_.network) {
  if (config_.pilot.nodes > config_.platform.nodes) {
    throw ConfigError("pilot requests more nodes than the platform has");
  }
  if (config_.agent_nodes < 1 || config_.agent_nodes >= config_.pilot.nodes) {
    throw ConfigError("agent_nodes must be in [1, pilot.nodes)");
  }
}

void Session::start(std::function<void()> on_ready) {
  check(!started_, "session already started");
  started_ = true;
  on_ready_ = std::move(on_ready);

  profiles_.record(simulation_.now(), kPilotSubject,
                   Event::kPilotPmgrLaunching);
  const Duration queue_wait = Duration::seconds(rng_.split("batch").lognormal(
      kQueueWaitMedian.to_seconds(), kQueueWaitSigma));
  grant_ = simulation_.schedule(queue_wait, [this] { bootstrap_agent(); });
}

void Session::bootstrap_agent() {
  pilot_nodes_.resize(static_cast<std::size_t>(config_.pilot.nodes));
  std::iota(pilot_nodes_.begin(), pilot_nodes_.end(), NodeId{0});
  pilot_granted_ = simulation_.now();
  walltime_ = simulation_.schedule(config_.pilot.runtime, [this] {
    // The batch system reports the kill of its job (the pilot is job 1),
    // then the pilot manager.
    warn({"batch job 1 hit walltime limit"});
    warn({"pilot hit walltime; finalizing session"});
    abort_running_tasks();
    finalize();
  });

  // The RP agent machinery occupies a few cores on each agent node for the
  // workflow's lifetime (client, agent components, ZMQ bridges).
  for (NodeId node_id : agent_node_ids()) {
    auto& node = platform_.node(node_id);
    auto cores = node.allocate_cores(kAgentCores, "rp.agent", /*activity=*/0.3);
    check(cores.has_value(), "agent node cannot host the RP agent");
    agent_core_claims_.push_back(std::move(*cores));
    node.process_started();
  }

  scheduler_ = std::make_unique<AgentScheduler>(
      simulation_, platform_, tasks_, pilot_nodes_, rng_.split("scheduler"),
      config_.scheduler);
  scheduler_->set_agent_nodes(agent_node_ids());
  executor_ =
      std::make_unique<Executor>(simulation_, tasks_, rng_.split("executor"));

  scheduler_->set_on_placed([this](TaskId id) { executor_->launch(id); });
  executor_->set_on_start(
      [this](TaskId id) { dispatch(start_listeners_, tasks_[id]); });
  executor_->set_on_complete([this](TaskId id) {
    scheduler_->task_completed(id);
    dispatch(completion_listeners_, tasks_[id]);
  });

  tmgr_to_agent_ = std::make_unique<comm::Channel<TaskId>>(
      simulation_, "tmgr->agent", Duration::milliseconds(2));
  tmgr_to_agent_->set_consumer([this](TaskId id) {
    tasks_[id].advance(TaskState::kAgentScheduling, simulation_.now());
    scheduler_->submit(id);
  });

  // Bootstrap delay: the light-blue band of Fig. 8.
  const Duration bootstrap = Duration::seconds(
      rng_.lognormal(kBootstrapMedian.to_seconds(), kBootstrapSigma));
  simulation_.schedule(bootstrap, [this] {
    agent_ready_ = simulation_.now();
    profiles_.record(simulation_.now(), kPilotSubject, Event::kPilotActive);
    if (on_ready_) on_ready_();
  });
}

SimTime Session::agent_ready_at() const {
  check(agent_ready_.has_value(), "agent not ready yet");
  return *agent_ready_;
}

SimTime Session::pilot_granted_at() const {
  check(pilot_granted_.has_value(), "pilot not granted yet");
  return *pilot_granted_;
}

std::vector<NodeId> Session::agent_node_ids() const {
  check(!pilot_nodes_.empty(), "pilot not granted yet");
  return {pilot_nodes_.begin(),
          pilot_nodes_.begin() + config_.agent_nodes};
}

std::vector<NodeId> Session::worker_node_ids() const {
  check(!pilot_nodes_.empty(), "pilot not granted yet");
  return {pilot_nodes_.begin() + config_.agent_nodes, pilot_nodes_.end()};
}

void Session::set_service_nodes(std::vector<NodeId> nodes, bool shared) {
  scheduler().set_service_nodes(std::move(nodes), shared);
}

Task& Session::submit(TaskDescription description) {
  check(agent_ready(), "submit before the agent is ready");
  const auto id = static_cast<TaskId>(tasks_.size());
  if (description.uid.empty()) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "task.%06zu", tasks_.size());
    description.uid = buffer;
  }
  if (!task_index_.try_emplace(description.uid, id).second) {
    throw ConfigError("duplicate task uid: " + description.uid);
  }

  Task& task = tasks_.emplace_back(std::move(description), id, &profiles_);
  task.advance(TaskState::kTmgrScheduling, simulation_.now());
  simulation_.schedule(kTmgrCost, [this, id] { tmgr_to_agent_->put(id); });
  return task;
}

void Session::stop_task(TaskId id) { executor().stop(id); }

void Session::add_task_completion_listener(Listener callback) {
  completion_listeners_.push_back(std::move(callback));
}

void Session::add_task_start_listener(Listener callback) {
  start_listeners_.push_back(std::move(callback));
}

const Task* Session::find_task(const std::string& uid) const {
  const auto it = task_index_.find(uid);
  return it == task_index_.end() ? nullptr : &tasks_[it->second];
}

void Session::dispatch(const std::deque<Listener>& listeners,
                       const Task& task) {
  const std::size_t count = listeners.size();
  for (std::size_t i = 0; i < count; ++i) listeners[i](task);
}

AgentScheduler& Session::scheduler() {
  check(scheduler_ != nullptr, "scheduler not created (pilot not granted)");
  return *scheduler_;
}

Executor& Session::executor() {
  check(executor_ != nullptr, "executor not created (pilot not granted)");
  return *executor_;
}

void Session::abort_running_tasks() {
  if (!executor_) return;
  // By id, up to the tasks submitted so far: a canceled task's completion
  // listeners may submit more (an EnTK stage barrier), and those never ran.
  const auto count = static_cast<TaskId>(tasks_.size());
  for (TaskId id = 0; id < count; ++id) {
    if (!executor_->is_running(id)) continue;
    if (tasks_[id].description().kind == TaskKind::kApplication) {
      executor_->cancel(id);
    } else {
      executor_->stop(id);
    }
  }
}

void Session::finalize() {
  if (finalized_) return;
  finalized_ = true;
  // Stop long-running service/monitor tasks (paper §2.3.1: control command
  // from RP at workflow completion).
  if (executor_) {
    for (const Task& task : tasks_) {
      if (task.description().kind != TaskKind::kApplication &&
          executor_->is_running(task.id())) {
        executor_->stop(task.id());
      }
    }
  }
  if (started_) {
    // A pilot still in the queue is never granted.
    grant_.cancel();
    // Release the pilot once teardown events have drained.
    simulation_.schedule(Duration::seconds(1.0), [this] {
      profiles_.record(simulation_.now(), kPilotSubject, Event::kPilotDone);
      walltime_.cancel();
    });
  }
}

SimTime Session::run() { return simulation_.run(); }

}  // namespace soma::rp
