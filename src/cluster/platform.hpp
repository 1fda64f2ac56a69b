// Compute-platform model (Summit-like by default).
//
// Models nodes with cores, GPUs, and RAM. Occupancy is tracked with exact
// time integrals (core-seconds) so that CPU-utilization queries over any
// window reproduce what a /proc-scraping monitor would compute from jiffy
// counters. The RP agent scheduler allocates slots through this model; the
// hardware monitor samples it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/simulation.hpp"

namespace soma::cluster {

// Every node has Summit's shape (paper §3.1).
inline constexpr int kNodeCores = 44;    ///< physical cores (2 x 22 Power9)
inline constexpr int kSystemCores = 2;   ///< reserved for the OS
inline constexpr int kUsableCores = kNodeCores - kSystemCores;
inline constexpr int kNodeGpus = 6;      ///< 6 x V100
inline constexpr double kNodeRamMib = 512.0 * 1024.0;

struct PlatformConfig {
  int nodes = 1;
};

/// Summit preset: 42 usable cores and 6 GPUs per node (paper §3.1).
PlatformConfig summit(int nodes);

/// One compute node. Core/GPU slots carry an owner tag (task uid) so that
/// utilization can be attributed and bugs (double-allocation, double-free)
/// are caught immediately.
class ComputeNode {
 public:
  ComputeNode(sim::Simulation& simulation, NodeId id);

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& hostname() const { return hostname_; }

  // ---- core allocation ----
  [[nodiscard]] int usable_cores() const { return kUsableCores; }
  [[nodiscard]] int busy_cores() const { return busy_cores_; }
  [[nodiscard]] int free_cores() const {
    return usable_cores() - busy_cores_;
  }
  /// Claim `count` specific free cores for `owner`. Returns the core ids, or
  /// nullopt (claiming nothing) if fewer than `count` are free.
  ///
  /// `activity` in [0, 1] is the fraction of each claimed core the owner
  /// actually keeps busy: an MPI solver spin-waiting in MPI_Recv is ~1.0,
  /// while a GPU-bound training task may only drive its host cores at ~0.2.
  /// Scheduling always sees the core as taken; /proc-style utilization
  /// integrates the activity.
  std::optional<std::vector<CoreId>> allocate_cores(int count,
                                                    const std::string& owner,
                                                    double activity = 1.0);
  /// Release cores previously allocated. Throws InternalError on a core that
  /// is not owned by `owner` (catches scheduler bugs).
  void release_cores(const std::vector<CoreId>& cores,
                     const std::string& owner);

  // ---- GPU allocation ----
  [[nodiscard]] int busy_gpus() const { return busy_gpus_; }
  [[nodiscard]] int free_gpus() const { return kNodeGpus - busy_gpus_; }
  std::optional<std::vector<GpuId>> allocate_gpus(int count,
                                                  const std::string& owner);
  void release_gpus(const std::vector<GpuId>& gpus, const std::string& owner);

  // ---- memory ----
  [[nodiscard]] double available_ram_mib() const {
    return kNodeRamMib - used_ram_mib_;
  }
  void claim_ram(double mib) { used_ram_mib_ += mib; }
  void release_ram(double mib) { used_ram_mib_ -= mib; }

  // ---- processes (for the /proc "Num Processes" field) ----
  [[nodiscard]] int num_processes() const { return num_processes_; }
  void process_started() { ++num_processes_; }

  // ---- utilization ----
  /// Instantaneous activity-weighted utilization over usable cores, [0, 1].
  [[nodiscard]] double utilization_now() const;
  /// Cumulative busy core-seconds since t=0, exact to the current instant.
  [[nodiscard]] double busy_core_seconds() const;
  /// Cumulative busy seconds of one core since t=0.
  [[nodiscard]] double core_busy_seconds(CoreId core) const;

  /// Instantaneous GPU utilization (allocated fraction), in [0, 1].
  [[nodiscard]] double gpu_utilization_now() const;
  /// Cumulative busy GPU-seconds since t=0 (allocation-weighted; a claimed
  /// GPU counts as busy, which is what nvidia-smi-style sampling reports
  /// for a kernel-resident task).
  [[nodiscard]] double busy_gpu_seconds() const;

 private:
  void integrate();

  sim::Simulation& simulation_;
  NodeId id_;
  std::string hostname_;
  std::vector<std::string> core_owner_;  ///< empty string = free
  std::vector<double> core_activity_;    ///< busy fraction of each core
  std::vector<std::string> gpu_owner_;
  int busy_cores_ = 0;
  int busy_gpus_ = 0;
  double used_ram_mib_ = 0.0;
  int num_processes_ = 0;
  // Exact occupancy integrals.
  SimTime last_change_{};
  double busy_core_seconds_ = 0.0;
  std::vector<double> per_core_busy_seconds_;
  double busy_gpu_seconds_ = 0.0;
};

/// The whole machine: an indexable set of nodes.
class Platform {
 public:
  Platform(sim::Simulation& simulation, PlatformConfig config);

  [[nodiscard]] const PlatformConfig& config() const { return config_; }
  [[nodiscard]] int node_count() const {
    return static_cast<int>(nodes_.size());
  }
  [[nodiscard]] ComputeNode& node(NodeId id);
  [[nodiscard]] const ComputeNode& node(NodeId id) const;

 private:
  sim::Simulation& simulation_;
  PlatformConfig config_;
  std::vector<ComputeNode> nodes_;
};

}  // namespace soma::cluster
