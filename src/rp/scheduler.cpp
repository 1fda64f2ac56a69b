#include "rp/scheduler.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace soma::rp {
namespace {

/// Median cost of one placement decision (state update, slot bookkeeping,
/// launcher handshake).
constexpr Duration kDecisionCostMedian = Duration::milliseconds(15);
constexpr double kDecisionCostSigma = 0.25;

}  // namespace

AgentScheduler::AgentScheduler(sim::Simulation& simulation,
                               cluster::Platform& platform,
                               TaskTable& tasks, std::vector<NodeId> nodes,
                               Rng rng, SchedulerConfig config)
    : simulation_(simulation),
      platform_(platform),
      tasks_(tasks),
      nodes_(std::move(nodes)),
      rng_(rng),
      config_(config) {
  check(!nodes_.empty(), "scheduler needs at least one node");
}

void AgentScheduler::assign_role(Role role, const std::vector<NodeId>& nodes) {
  for (auto& bits : roles_) bits &= static_cast<std::uint8_t>(~role);
  for (NodeId node : nodes) {
    check(node >= 0, "scheduler: negative node id");
    const auto i = static_cast<std::size_t>(node);
    if (i >= roles_.size()) roles_.resize(i + 1, 0);
    roles_[i] |= role;
  }
}

void AgentScheduler::set_service_nodes(std::vector<NodeId> nodes,
                                       bool shared) {
  assign_role(kServiceRole, nodes);
  any_service_nodes_ = !nodes.empty();
  shared_service_nodes_ = shared;
}

void AgentScheduler::set_agent_nodes(std::vector<NodeId> nodes) {
  assign_role(kAgentRole, nodes);
}

bool AgentScheduler::app_eligible(NodeId node) const {
  // App tasks (and worker pools) never land on agent nodes, and avoid
  // service nodes unless the deployment is "shared".
  if (has_role(node, kAgentRole)) return false;
  return !has_role(node, kServiceRole) || shared_service_nodes_;
}

bool AgentScheduler::node_eligible(NodeId node, const Task& task) const {
  if (task.description().pinned_node) {
    return node == *task.description().pinned_node;
  }
  if (task.description().kind == TaskKind::kApplication ||
      task.description().kind == TaskKind::kWorker) {
    return app_eligible(node);
  }
  // Unpinned service tasks go to the service nodes when any are defined.
  if (any_service_nodes_) return has_role(node, kServiceRole);
  return true;
}

std::vector<NodeId> AgentScheduler::least_utilized_order() const {
  // Least-utilized first (stable: ties keep index order). Utilization comes
  // from the configured source — SOMA's observed values when wired, the
  // platform's instantaneous truth otherwise.
  std::vector<NodeId> ordered = nodes_;
  auto utilization = [&](NodeId node) {
    if (utilization_) return utilization_(node);
    return platform_.node(node).utilization_now();
  };
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](NodeId a, NodeId b) {
                     return utilization(a) < utilization(b);
                   });
  return ordered;
}

std::optional<Placement> AgentScheduler::try_place(const Task& task) {
  const TaskDescription& d = task.description();
  const int cores_per_rank = std::max(1, d.cores_per_rank);

  Placement placement;
  placement.ranks.reserve(static_cast<std::size_t>(d.ranks));

  // First pass: build a placement plan (node -> rank count) without
  // claiming anything.
  int ranks_left = d.ranks;
  std::vector<std::pair<NodeId, int>> plan;  // node -> ranks placed there
  std::vector<std::pair<NodeId, int>> capacity;  // eligible node -> max ranks
  // The continuous plan below takes capacity in this order, so once what
  // is listed covers every rank, later nodes cannot change it; services
  // spread over all their nodes and need the whole list.
  const bool spread = d.kind == TaskKind::kService;
  int capacity_seen = 0;
  const auto scan = [&](const std::vector<NodeId>& order) {
    for (NodeId node_id : order) {
      if (!node_eligible(node_id, task)) continue;
      const auto& node = platform_.node(node_id);
      int fit = node.free_cores() / cores_per_rank;
      if (d.gpus_per_rank > 0) {
        fit = std::min(fit, node.free_gpus() / d.gpus_per_rank);
      }
      if (fit <= 0) continue;
      capacity.emplace_back(node_id, fit);
      capacity_seen += fit;
      if (!spread && capacity_seen >= ranks_left) return;
    }
  };
  if (config_.policy == PlacementPolicy::kContinuous) {
    scan(nodes_);
  } else {
    scan(least_utilized_order());
  }

  if (spread) {
    // Long-running services spread their ranks evenly across their nodes
    // (never packing a node solid), leaving each node's reserved monitor
    // core and leftover capacity usable — the paper's shared mode depends
    // on this headroom.
    if (capacity_seen < ranks_left) return std::nullopt;
    std::vector<int> assigned(capacity.size(), 0);
    std::size_t cursor = 0;
    while (ranks_left > 0) {
      const std::size_t i = cursor % capacity.size();
      if (assigned[i] < capacity[i].second) {
        ++assigned[i];
        --ranks_left;
      }
      ++cursor;
    }
    for (std::size_t i = 0; i < capacity.size(); ++i) {
      if (assigned[i] > 0) plan.emplace_back(capacity[i].first, assigned[i]);
    }
  } else {
    // RP "continuous" policy: walk nodes in order, claiming what fits.
    for (const auto& [node_id, fit_cap] : capacity) {
      if (ranks_left == 0) break;
      const int fit = std::min(fit_cap, ranks_left);
      plan.emplace_back(node_id, fit);
      ranks_left -= fit;
    }
    if (ranks_left > 0) return std::nullopt;
  }

  // Second pass: claim. The claims cannot fail because nothing else runs
  // between the passes (single-threaded event loop).
  for (const auto& [node_id, rank_count] : plan) {
    auto& node = platform_.node(node_id);
    for (int r = 0; r < rank_count; ++r) {
      RankPlacement rank;
      rank.node = node_id;
      auto cores = node.allocate_cores(cores_per_rank, d.uid, d.cpu_activity);
      check(cores.has_value(), "scheduler: core claim failed unexpectedly");
      rank.cores = std::move(*cores);
      if (d.gpus_per_rank > 0) {
        auto gpus = node.allocate_gpus(d.gpus_per_rank, d.uid);
        check(gpus.has_value(), "scheduler: gpu claim failed unexpectedly");
        rank.gpus = std::move(*gpus);
      }
      node.claim_ram(d.mem_per_rank_mib);
      placement.ranks.push_back(std::move(rank));
    }
  }
  return placement;
}

void AgentScheduler::submit(TaskId id) {
  Task& task = tasks_.at(id);
  check(task.state() == TaskState::kAgentScheduling,
        "scheduler: task must be in AGENT_SCHEDULING");
  task.record_event(Event::kScheduleStart, simulation_.now());
  waitlist_.push_back(id);
  schedule_pass();
}

void AgentScheduler::task_completed(TaskId id) {
  const Task& task = tasks_.at(id);
  const auto& placement = task.placement();
  check(placement.has_value(), "task_completed: task has no placement");
  const TaskDescription& d = task.description();
  for (const auto& rank : placement->ranks) {
    auto& node = platform_.node(rank.node);
    node.release_cores(rank.cores, d.uid);
    if (!rank.gpus.empty()) node.release_gpus(rank.gpus, d.uid);
    node.release_ram(d.mem_per_rank_mib);
  }
  schedule_pass();
}

void AgentScheduler::schedule_pass() {
  // Scan the whole waitlist: RP places any task that fits as soon as enough
  // resources are free, so a large head-of-line task does not block small
  // ones (paper §4.2). Once a task with a given resource shape fails to
  // place, any task needing at least as much of everything must fail too —
  // skip it without re-scanning the platform (ensemble waitlists are
  // thousands of identical tasks).
  int failed_cores = std::numeric_limits<int>::max();
  int failed_gpus = std::numeric_limits<int>::max();
  for (auto it = waitlist_.begin(); it != waitlist_.end();) {
    Task& task = tasks_[*it];
    const TaskDescription& d = task.description();
    const int need_cores = d.ranks * std::max(1, d.cores_per_rank);
    const int need_gpus = d.ranks * d.gpus_per_rank;
    const bool skippable = !d.pinned_node && d.kind == TaskKind::kApplication;
    if (skippable && need_cores >= failed_cores &&
        need_gpus >= failed_gpus) {
      ++it;
      continue;
    }
    auto placement = try_place(task);
    if (!placement) {
      if (skippable) {
        failed_cores = std::min(failed_cores, need_cores);
        failed_gpus = std::min(failed_gpus, need_gpus);
      }
      ++it;
      continue;
    }
    task.set_placement(std::move(*placement));
    task.record_event(Event::kSlotsClaimed, simulation_.now());

    // Serial decision process: the placement becomes effective after the
    // decision cost, queued behind earlier decisions.
    const double slowdown = slowdown_ ? std::max(1.0, slowdown_()) : 1.0;
    const Duration cost =
        Duration::seconds(rng_.lognormal(
            kDecisionCostMedian.to_seconds() * slowdown, kDecisionCostSigma));
    const SimTime start = std::max(simulation_.now(), decision_busy_until_);
    decision_busy_until_ = start + cost;

    const TaskId placed = *it;
    it = waitlist_.erase(it);
    simulation_.schedule_at(decision_busy_until_, [this, placed] {
      tasks_[placed].record_event(Event::kScheduleOk, simulation_.now());
      if (on_placed_) on_placed_(placed);
    });
  }
}

int AgentScheduler::free_on_app_nodes(
    int (cluster::ComputeNode::*free)() const) const {
  int total = 0;
  for (NodeId id : nodes_) {
    if (app_eligible(id)) total += (platform_.node(id).*free)();
  }
  return total;
}

int AgentScheduler::free_app_cores() const {
  return free_on_app_nodes(&cluster::ComputeNode::free_cores);
}

int AgentScheduler::free_app_gpus() const {
  return free_on_app_nodes(&cluster::ComputeNode::free_gpus);
}

}  // namespace soma::rp
