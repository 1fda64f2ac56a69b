#include "batch/batch.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "common/log.hpp"

namespace soma::batch {

BatchSystem::BatchSystem(sim::Simulation& simulation, int total_nodes, Rng rng,
                         BatchConfig config)
    : simulation_(simulation),
      total_nodes_(total_nodes),
      rng_(rng),
      config_(config),
      node_busy_(static_cast<std::size_t>(total_nodes), false) {
  check(total_nodes > 0, "batch system needs at least one node");
}

JobId BatchSystem::submit(const JobRequest& request, GrantCallback on_grant,
                          WalltimeCallback on_walltime) {
  if (request.nodes <= 0 || request.nodes > total_nodes_) {
    throw ConfigError("batch job requests " + std::to_string(request.nodes) +
                      " nodes; machine has " + std::to_string(total_nodes_));
  }
  const JobId id = next_job_id_++;
  const Duration wait = Duration::seconds(rng_.lognormal(
      config_.median_queue_wait.to_seconds(), config_.queue_wait_sigma));
  queue_.push_back(PendingJob{id, request, std::move(on_grant),
                              std::move(on_walltime),
                              simulation_.now() + wait});
  simulation_.schedule(wait, [this] { try_start_jobs(); });
  return id;
}

int BatchSystem::free_nodes() const {
  return static_cast<int>(
      std::count(node_busy_.begin(), node_busy_.end(), false));
}

void BatchSystem::try_start_jobs() {
  const SimTime now = simulation_.now();
  // Strict FIFO over eligible jobs: the head blocks later jobs, as a
  // conservative backfill-free scheduler would.
  while (!queue_.empty()) {
    auto head = std::min_element(queue_.begin(), queue_.end(),
                                 [](const PendingJob& a, const PendingJob& b) {
                                   return a.id < b.id;
                                 });
    if (head->eligible_at > now) return;
    if (head->request.nodes > free_nodes()) return;

    Allocation allocation;
    allocation.job = head->id;
    allocation.granted_at = now;
    allocation.deadline = now + head->request.walltime;
    for (std::size_t n = 0;
         n < node_busy_.size() &&
         allocation.nodes.size() < static_cast<std::size_t>(head->request.nodes);
         ++n) {
      if (!node_busy_[n]) {
        node_busy_[n] = true;
        allocation.nodes.push_back(static_cast<NodeId>(n));
      }
    }

    RunningJob running;
    running.allocation = allocation;
    running.on_walltime = std::move(head->on_walltime);
    const JobId job_id = head->id;
    running.walltime_event =
        simulation_.schedule(head->request.walltime, [this, job_id] {
          const auto it = std::find_if(
              running_.begin(), running_.end(), [&](const RunningJob& j) {
                return j.allocation.job == job_id;
              });
          if (it == running_.end()) return;
          warn({"batch job ", std::to_string(job_id), " hit walltime limit"});
          WalltimeCallback callback = std::move(it->on_walltime);
          release(job_id);
          if (callback) callback(job_id);
        });

    GrantCallback on_grant = std::move(head->on_grant);
    queue_.erase(head);
    running_.push_back(std::move(running));
    on_grant(allocation);
  }
}

void BatchSystem::release(JobId job) {
  const auto it =
      std::find_if(running_.begin(), running_.end(),
                   [&](const RunningJob& j) { return j.allocation.job == job; });
  if (it == running_.end()) return;
  for (NodeId n : it->allocation.nodes) {
    node_busy_[static_cast<std::size_t>(n)] = false;
  }
  it->walltime_event.cancel();
  running_.erase(it);
  // Freed nodes may unblock queued jobs.
  try_start_jobs();
}

}  // namespace soma::batch
