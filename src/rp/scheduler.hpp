// Agent-side scheduler (paper Fig. 1, step 7).
//
// Implements RP's "continuous" placement policy: walk the pilot's nodes in
// index order and claim free cores/GPUs rank by rank, splitting a task
// across nodes when no single node can hold it. This is the mechanism behind
// paper Fig. 6 (the same 20/41-rank task lands on 1..5 nodes depending on
// what was free).
//
// The scheduler is a *serial* decision process: each successful placement
// costs decision time, so a storm of small tasks queues up — the purple
// "scheduling" bands of paper Fig. 8. A slowdown hook lets co-located
// monitoring work (RP monitor on the agent node) inflate decision cost, the
// mechanism behind the frequent-monitoring overhead of Fig. 11.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "cluster/platform.hpp"
#include "common/rng.hpp"
#include "rp/task.hpp"
#include "sim/simulation.hpp"

namespace soma::rp {

/// Node-ordering policy for placement (paper §4.2: "RP could adapt its
/// scheduling decisions, prioritizing the use of the free CPUs on a node
/// with comparably lower overall CPU utilization").
enum class PlacementPolicy {
  kContinuous,     ///< RP default: walk nodes in index order
  kLeastUtilized,  ///< prefer nodes with the lowest observed utilization
};

struct SchedulerConfig {
  PlacementPolicy policy = PlacementPolicy::kContinuous;
};

class AgentScheduler {
 public:
  using PlacedCallback = std::function<void(TaskId)>;
  using SlowdownFn = std::function<double()>;

  /// Places tasks of `tasks`, which must outlive the scheduler.
  AgentScheduler(sim::Simulation& simulation, cluster::Platform& platform,
                 TaskTable& tasks, std::vector<NodeId> nodes, Rng rng,
                 SchedulerConfig config = {});

  /// Nodes reserved for services (the SOMA nodes). In exclusive mode
  /// application tasks never land there; in shared mode their leftover
  /// cores/GPUs are fair game (paper §4.3, shared vs exclusive). Replaces
  /// any earlier set.
  void set_service_nodes(std::vector<NodeId> nodes, bool shared);

  /// Nodes hosting the RP client/agent: never used for application tasks
  /// (regardless of the shared flag), but service/monitor tasks may land
  /// there (the OpenFOAM runs co-locate the SOMA service with the agent).
  /// Replaces any earlier set.
  void set_agent_nodes(std::vector<NodeId> nodes);

  /// Callback fired when a task's placement decision completes and its
  /// resources are claimed; the executor takes over from here.
  void set_on_placed(PlacedCallback callback) {
    on_placed_ = std::move(callback);
  }

  /// Multiplier (>= 1) applied to decision cost; supplied by the session to
  /// model contention on the agent node.
  void set_decision_slowdown(SlowdownFn fn) { slowdown_ = std::move(fn); }

  /// Utilization estimate used by the kLeastUtilized policy. Defaults to
  /// the platform's ground truth; experiments wire SOMA's *observed*
  /// utilization here to close the paper's feedback loop.
  using UtilizationFn = std::function<double(NodeId)>;
  void set_utilization_source(UtilizationFn fn) {
    utilization_ = std::move(fn);
  }

  /// Enqueue a task for placement. The task must be in AGENT_SCHEDULING.
  void submit(TaskId id);

  /// Release a completed/stopped task's resources and re-run placement.
  void task_completed(TaskId id);

  [[nodiscard]] std::size_t waitlist_size() const { return waitlist_.size(); }

  /// Cores/GPUs currently free on nodes eligible for application tasks.
  [[nodiscard]] int free_app_cores() const;
  [[nodiscard]] int free_app_gpus() const;

 private:
  /// Attempt to place `task` right now; claims resources on success.
  std::optional<Placement> try_place(const Task& task);
  /// Scan the waitlist and start decisions for everything that fits.
  void schedule_pass();
  /// Whether application tasks (and worker pools) may use `node`.
  [[nodiscard]] bool app_eligible(NodeId node) const;
  [[nodiscard]] bool node_eligible(NodeId node, const Task& task) const;
  /// Sum of `free` (free cores or GPUs) over the app-eligible nodes.
  [[nodiscard]] int free_on_app_nodes(
      int (cluster::ComputeNode::*free)() const) const;
  /// kLeastUtilized's node order; kContinuous walks `nodes_` itself.
  [[nodiscard]] std::vector<NodeId> least_utilized_order() const;

  /// Role bits of a node, indexed by NodeId.
  enum Role : std::uint8_t { kServiceRole = 1, kAgentRole = 2 };
  /// Clear `role` from every node, then set it on `nodes`.
  void assign_role(Role role, const std::vector<NodeId>& nodes);
  [[nodiscard]] bool has_role(NodeId node, Role role) const {
    const auto i = static_cast<std::size_t>(node);
    return i < roles_.size() && (roles_[i] & role) != 0;
  }

  sim::Simulation& simulation_;
  cluster::Platform& platform_;
  TaskTable& tasks_;
  std::vector<NodeId> nodes_;
  std::vector<std::uint8_t> roles_;  // Role bits; empty until a set_*_nodes
  bool any_service_nodes_ = false;
  bool shared_service_nodes_ = false;
  Rng rng_;
  SchedulerConfig config_;
  PlacedCallback on_placed_;
  SlowdownFn slowdown_;
  UtilizationFn utilization_;
  std::deque<TaskId> waitlist_;
  SimTime decision_busy_until_{};
};

}  // namespace soma::rp
