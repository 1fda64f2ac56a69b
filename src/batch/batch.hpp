// Batch system model (the PSI/J + LSF layer of paper Fig. 2, step 1).
//
// A pilot job is submitted to the platform's batch queue; after a queue wait
// it is granted a contiguous set of whole nodes for a walltime limit. Only
// behaviour observable to the workflow is modelled: the wait, the node
// grant, and forced termination at the walltime limit.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/simulation.hpp"

namespace soma::batch {

using JobId = std::uint64_t;

struct JobRequest {
  int nodes = 1;
  Duration walltime = Duration::minutes(120);
  std::string name = "pilot";
};

struct Allocation {
  JobId job = 0;
  std::vector<NodeId> nodes;
  SimTime granted_at;
  SimTime deadline;
};

struct BatchConfig {
  /// Median queue wait. Kept short by default: the experiments measure
  /// workflow-internal behaviour, not facility queue pressure.
  Duration median_queue_wait = Duration::seconds(5.0);
  /// Shape of the lognormal queue-wait noise.
  double queue_wait_sigma = 0.3;
};

/// FIFO whole-node batch allocator over a fixed pool [0, total_nodes).
class BatchSystem {
 public:
  using GrantCallback = std::function<void(const Allocation&)>;
  using WalltimeCallback = std::function<void(JobId)>;

  BatchSystem(sim::Simulation& simulation, int total_nodes, Rng rng,
              BatchConfig config = {});

  /// Submit a job; `on_grant` fires when nodes are allocated, and
  /// `on_walltime` (optional) fires if the job hits its walltime limit
  /// before being released. Throws ConfigError if the request can never be
  /// satisfied.
  JobId submit(const JobRequest& request, GrantCallback on_grant,
               WalltimeCallback on_walltime = nullptr);

  /// Release a running job's nodes (normal completion). Idempotent.
  void release(JobId job);

  [[nodiscard]] int free_nodes() const;
  [[nodiscard]] std::size_t queued_jobs() const { return queue_.size(); }

 private:
  struct PendingJob {
    JobId id;
    JobRequest request;
    GrantCallback on_grant;
    WalltimeCallback on_walltime;
    SimTime eligible_at;  ///< submit time + queue wait
  };
  struct RunningJob {
    Allocation allocation;
    WalltimeCallback on_walltime;
    sim::EventHandle walltime_event;
  };

  void try_start_jobs();

  sim::Simulation& simulation_;
  int total_nodes_;
  Rng rng_;
  BatchConfig config_;
  JobId next_job_id_ = 1;
  std::vector<PendingJob> queue_;
  std::vector<RunningJob> running_;
  std::vector<bool> node_busy_;
};

}  // namespace soma::batch
