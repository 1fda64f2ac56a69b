// The hardware monitoring client (paper §2.3.2, "Hardware Namespace").
//
// One per compute node, running on a reserved core for the workflow's whole
// duration. Each tick it reads a /proc snapshot, computes the CPU
// utilization over the last window online (jiffy diff), and publishes the
// snapshot plus the derived utilization to the SOMA hardware instance.
//
// The scrape+publish work costs CPU on the node; although the client has a
// reserved core, frequent scraping perturbs application ranks through shared
// caches/OS jitter. This is exported as a noise fraction the session feeds
// into the executor (the overhead mechanism of paper Fig. 11).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/platform.hpp"
#include "cluster/proc.hpp"
#include "common/rng.hpp"
#include "sim/simulation.hpp"
#include "soma/client.hpp"

namespace soma::monitors {

struct HwMonitorConfig {
  Duration period = Duration::seconds(60.0);
};

class HwMonitor {
 public:
  HwMonitor(sim::Simulation& simulation, cluster::ComputeNode& node,
            core::SomaClient& client, Rng rng, HwMonitorConfig config = {});

  void start(Duration initial_delay = Duration::zero());
  void stop();

  /// Multiplicative slowdown this monitor imposes on application ranks
  /// sharing its node: the interfering share of one scrape's cost, per
  /// period.
  [[nodiscard]] double noise_fraction() const;

  /// The locally computed utilization series (time, utilization in [0,1]) —
  /// what the client also publishes; kept for test cross-checks.
  struct Sample {
    SimTime time;
    double utilization;      ///< CPU, window mean
    double gpu_utilization;  ///< GPU, window mean
  };
  [[nodiscard]] const std::vector<Sample>& samples() const {
    return samples_;
  }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] const HwMonitorConfig& config() const { return config_; }
  [[nodiscard]] const cluster::ComputeNode& node() const { return node_; }

 private:
  void tick();

  sim::Simulation& simulation_;
  cluster::ComputeNode& node_;
  core::SomaClient& client_;
  Rng rng_;
  HwMonitorConfig config_;
  std::unique_ptr<sim::PeriodicTask> periodic_;
  std::uint64_t ticks_ = 0;
  cluster::StatRow last_cpu_stat_{};  ///< zeros until the first tick
  SimTime last_tick_;
  double last_gpu_busy_seconds_ = 0.0;
  std::vector<Sample> samples_;
};

}  // namespace soma::monitors
