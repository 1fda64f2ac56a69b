// Session: the top-level RP facade (paper Fig. 1 and Fig. 2).
//
// Owns the whole simulated deployment: platform, network, the RP Client
// (PilotManager + TaskManager) and Agent (Scheduler + Executor).
// The numbered execution process of Fig. 1 maps to:
//   1   start(): PilotManager submits the pilot job; after a seeded queue
//       wait the session grants it nodes 0..pilot.nodes-1 for its walltime
//       (the only part of the PSI/J + LSF layer a workflow can observe)
//   2   on grant, the Agent bootstraps; the Updater notifies the client
//   3-6 submit(): TaskManager forwards tasks over component channels to the
//       agent scheduler
//   7   the agent scheduler claims slots (serial decision process)
//   8   the executor launches the task and emits Listing-1 events
//
// SOMA integration points (paper §2.3.1) are first-class: service tasks are
// scheduled before application tasks, run for the whole workflow, and are
// shut down through stop_task(); `set_service_nodes` switches between the
// shared and exclusive placement policies of §4.3.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/platform.hpp"
#include "comm/channel.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "rp/executor.hpp"
#include "rp/profile.hpp"
#include "rp/scheduler.hpp"
#include "rp/task.hpp"
#include "sim/simulation.hpp"

namespace soma::rp {

struct SessionConfig {
  cluster::PlatformConfig platform = cluster::summit(2);
  PilotDescription pilot{.nodes = 2, .runtime = Duration::minutes(120)};
  /// Head nodes of the allocation reserved for the RP client/agent (and the
  /// co-located RP monitor client). Never used for application tasks.
  int agent_nodes = 1;

  SchedulerConfig scheduler{};
  net::NetworkConfig network{};

  std::uint64_t seed = 1;
};

/// Cores the RP agent machinery itself occupies on each agent node.
inline constexpr int kAgentCores = 4;

class Session {
 public:
  explicit Session(SessionConfig config);

  // ---- substrate access ----
  [[nodiscard]] sim::Simulation& simulation() { return simulation_; }
  [[nodiscard]] cluster::Platform& platform() { return platform_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] ProfileStore& profiles() { return profiles_; }
  [[nodiscard]] const SessionConfig& config() const { return config_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  // ---- lifecycle ----
  /// Submit the pilot job (Fig. 2 step 1). `on_ready` fires once the agent
  /// has bootstrapped; experiments deploy the SOMA service + monitors there
  /// before releasing application tasks. If the pilot is still held when
  /// its walltime runs out, running tasks are aborted and the session
  /// finalizes.
  void start(std::function<void()> on_ready);

  [[nodiscard]] bool agent_ready() const { return agent_ready_.has_value(); }
  [[nodiscard]] SimTime agent_ready_at() const;
  [[nodiscard]] SimTime pilot_granted_at() const;

  /// Nodes granted to the pilot, 0..pilot.nodes-1 (agent nodes first).
  [[nodiscard]] const std::vector<NodeId>& pilot_nodes() const {
    return pilot_nodes_;
  }
  [[nodiscard]] std::vector<NodeId> agent_node_ids() const;
  /// Nodes available to the agent scheduler (everything but agent nodes).
  [[nodiscard]] std::vector<NodeId> worker_node_ids() const;

  /// Mark `nodes` as reserved for services; `shared` selects whether app
  /// tasks may use leftover capacity there (paper §4.3).
  void set_service_nodes(std::vector<NodeId> nodes, bool shared);

  // ---- tasks ----
  /// Submit a task description (Fig. 1 steps 3-6). Requires agent_ready().
  /// The session owns the task; its id is its index in tasks().
  Task& submit(TaskDescription description);
  /// Stop a long-running service/monitor task.
  void stop_task(TaskId id);

  /// A completion or start listener sees the task that completed or started.
  using Listener = std::function<void(const Task&)>;

  /// Register a completion listener (several subsystems listen: EnTK stage
  /// barriers, the TAU plugin, experiment bookkeeping).
  void add_task_completion_listener(Listener callback);

  /// Register a start (rank_start) listener — used to detect when a service
  /// task's endpoints come alive.
  void add_task_start_listener(Listener callback);

  /// Every submitted task, indexed by TaskId.
  [[nodiscard]] const TaskTable& tasks() const { return tasks_; }
  /// The task named `uid`, or null.
  [[nodiscard]] const Task* find_task(const std::string& uid) const;

  [[nodiscard]] AgentScheduler& scheduler();
  [[nodiscard]] Executor& executor();

  /// Shut down remaining service tasks and release the pilot allocation.
  void finalize();

  /// Kill every still-running task (the walltime-expiry path): application
  /// tasks end CANCELED, services/monitors are stopped.
  void abort_running_tasks();

  /// Drive the event loop until it drains. Returns the final time.
  SimTime run();

 private:
  /// The queue wait is over: take the pilot's nodes, arm its walltime and
  /// bootstrap the agent.
  void bootstrap_agent();

  SessionConfig config_;
  sim::Simulation simulation_;
  Rng rng_;
  cluster::Platform platform_;
  net::Network network_;
  ProfileStore profiles_;

  bool started_ = false;
  /// Pending while the pilot waits in the queue.
  sim::EventHandle grant_;
  /// Pending until the pilot is released or its walltime fires.
  sim::EventHandle walltime_;
  std::vector<NodeId> pilot_nodes_;
  std::optional<SimTime> pilot_granted_;
  std::optional<SimTime> agent_ready_;
  std::function<void()> on_ready_;

  // Created once the pilot is granted.
  std::unique_ptr<AgentScheduler> scheduler_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<comm::Channel<TaskId>> tmgr_to_agent_;

  /// Call the listeners registered before this event, by index: a deque
  /// keeps them in place while one registers another, and the new one
  /// fires from the next event on.
  static void dispatch(const std::deque<Listener>& listeners,
                       const Task& task);

  TaskTable tasks_;
  /// uid -> TaskId.
  std::unordered_map<std::string, TaskId> task_index_;
  std::deque<Listener> completion_listeners_;
  std::deque<Listener> start_listeners_;
  std::vector<std::vector<CoreId>> agent_core_claims_;
  bool finalized_ = false;
};

}  // namespace soma::rp
