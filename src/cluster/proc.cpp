#include "cluster/proc.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace soma::cluster {
namespace {

// stat array layout: [user, nice, system, idle, iowait, irq]
constexpr std::size_t kStatFields = 6;

std::vector<std::int64_t> make_stat(double busy_seconds, double total_seconds,
                                    double background_seconds, Rng& rng) {
  // Split busy time between user (dominant for HPC codes) and system, with
  // slight per-snapshot jitter so different cores don't look identical.
  const double user_fraction = 0.92 + 0.02 * rng.uniform();
  const double user = busy_seconds * user_fraction;
  const double system = busy_seconds - user + background_seconds * 0.5;
  const double nice = 0.0;
  const double irq = background_seconds * 0.1;
  const double iowait = background_seconds * 0.4;
  const double idle =
      std::max(0.0, total_seconds - busy_seconds - background_seconds);

  auto jiffies = [&](double seconds) {
    return static_cast<std::int64_t>(seconds * kJiffiesPerSecond);
  };
  return {jiffies(user), jiffies(nice),   jiffies(system),
          jiffies(idle), jiffies(iowait), jiffies(irq)};
}

}  // namespace

datamodel::Node make_proc_snapshot(const ComputeNode& node, SimTime now,
                                   Rng& rng) {
  // Every name below is new to its parent, so each level is appended
  // without a lookup.
  datamodel::Node snapshot;
  datamodel::Node& host = snapshot.append_child(node.hostname());
  datamodel::Node& at = host.append_child(std::to_string(now.nanos()));

  const double uptime = now.to_seconds();
  at.append_child("Uptime").set(static_cast<std::int64_t>(uptime));
  at.append_child("Num Processes")
      .set(static_cast<std::int64_t>(kBaselineProcesses +
                                     node.num_processes()));
  at.append_child("Available RAM")
      .set(static_cast<std::int64_t>(node.available_ram_mib()));

  datamodel::Node& stat = at.append_child("stat");
  const double background = uptime * kBackgroundActivity;
  stat.reserve_children(static_cast<std::size_t>(node.usable_cores()) + 1);

  // Aggregate row over all usable cores.
  stat.append_child("cpu").set(make_stat(node.busy_core_seconds(),
                                         uptime * node.usable_cores(),
                                         background * node.usable_cores(),
                                         rng));
  // Per-core rows.
  for (int c = 0; c < node.usable_cores(); ++c) {
    std::string name = "cpu";
    name += std::to_string(c);
    stat.append_child(std::move(name))
        .set(make_stat(node.core_busy_seconds(static_cast<CoreId>(c)), uptime,
                       background, rng));
  }
  return snapshot;
}

double utilization_from_stat(const std::vector<std::int64_t>& before,
                             const std::vector<std::int64_t>& after) {
  check(before.size() == kStatFields && after.size() == kStatFields,
        "utilization_from_stat: malformed stat arrays");
  std::int64_t busy_delta = 0;
  std::int64_t total_delta = 0;
  for (std::size_t i = 0; i < kStatFields; ++i) {
    const std::int64_t delta = after[i] - before[i];
    total_delta += delta;
    if (i != 3) busy_delta += delta;  // index 3 = idle
  }
  if (total_delta <= 0) return 0.0;
  return std::clamp(static_cast<double>(busy_delta) /
                        static_cast<double>(total_delta),
                    0.0, 1.0);
}

}  // namespace soma::cluster
