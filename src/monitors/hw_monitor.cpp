#include "monitors/hw_monitor.hpp"

#include <algorithm>

#include "cluster/proc.hpp"
#include "common/error.hpp"

namespace soma::monitors {
namespace {

/// Cost of one /proc scrape + record build + publish on the host (reads ~44
/// per-cpu stat rows, meminfo, the process table).
constexpr Duration kScrapeCost = Duration::milliseconds(100);
/// Fraction of scrape work that perturbs co-located application ranks
/// (cache pollution, interrupts); the rest stays on the reserved core.
constexpr double kInterferenceFraction = 0.50;

}  // namespace

HwMonitor::HwMonitor(sim::Simulation& simulation, cluster::ComputeNode& node,
                     core::SomaClient& client, Rng rng, HwMonitorConfig config)
    : simulation_(simulation),
      node_(node),
      client_(client),
      rng_(rng),
      config_(config) {
  check(client_.target_namespace() == core::Namespace::kHardware,
        "hardware monitor requires a hardware-namespace client");
  periodic_ = std::make_unique<sim::PeriodicTask>(
      simulation_, config_.period, [this] { tick(); });
}

void HwMonitor::start(Duration initial_delay) {
  periodic_->start(initial_delay);
}

void HwMonitor::stop() {
  periodic_->stop();
  // Ship any snapshots still coalescing in the client's batcher; a no-op
  // when batching is off.
  client_.flush_batches();
}

double HwMonitor::noise_fraction() const {
  return kInterferenceFraction * kScrapeCost.to_seconds() /
         config_.period.to_seconds();
}

void HwMonitor::tick() {
  ++ticks_;
  const SimTime now = simulation_.now();
  // The record {<host>: {<timestamp>: snapshot, cpu_utilization,
  // gpu_utilization}}, written packed into a buffer that lives for this tick
  // only (a run holds hundreds of monitors). A 42-core snapshot packs to
  // about 2.8 kB: one 61 B stat row per core plus the head.
  std::vector<std::byte> record;
  {
    datamodel::PackWriter out(
        record, 64 * (static_cast<std::size_t>(node_.usable_cores()) + 4));
    out.object(1);
    out.name(node_.hostname());
    out.object(3);
    const cluster::StatRow cpu_now =
        cluster::make_proc_snapshot(out, node_, now, rng_);

    // Online utilization: diff this tick's cumulative jiffies against the
    // previous tick's (the first tick diffs against boot, i.e. zeros).
    const double utilization =
        cluster::utilization_from_stat(last_cpu_stat_, cpu_now);
    last_cpu_stat_ = cpu_now;

    // GPU utilization over the same window (nvidia-smi-style sampling of the
    // node's allocation-resident kernels).
    const double gpu_busy = node_.busy_gpu_seconds();
    const double window = (now - last_tick_).to_seconds();
    double gpu_utilization = 0.0;
    if (window > 0.0) {
      gpu_utilization = std::clamp((gpu_busy - last_gpu_busy_seconds_) /
                                       (window * cluster::kNodeGpus),
                                   0.0, 1.0);
    }
    last_gpu_busy_seconds_ = gpu_busy;
    last_tick_ = now;
    samples_.push_back(Sample{now, utilization, gpu_utilization});

    // Attach the derived values so the service stores them alongside the
    // raw counters (paper: "calculates the current CPU utilization online";
    // §4.2 extends the idea to "overall CPU (or GPU) utilization").
    out.name("cpu_utilization");
    out.float64(utilization);
    out.name("gpu_utilization");
    out.float64(gpu_utilization);
  }
  client_.publish_packed(node_.hostname(), record);
}

}  // namespace soma::monitors
