#include "cluster/proc.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <string>
#include <string_view>

namespace soma::cluster {
namespace {

StatRow make_stat(double busy_seconds, double total_seconds,
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

StatRow make_proc_snapshot(datamodel::PackWriter& out, const ComputeNode& node,
                           SimTime now, Rng& rng) {
  const int cores = node.usable_cores();
  out.name(std::to_string(now.nanos()));
  out.object(4);

  const double uptime = now.to_seconds();
  out.name("Uptime");
  out.int64(static_cast<std::int64_t>(uptime));
  out.name("Num Processes");
  out.int64(static_cast<std::int64_t>(kBaselineProcesses +
                                      node.num_processes()));
  out.name("Available RAM");
  out.int64(static_cast<std::int64_t>(node.available_ram_mib()));

  out.name("stat");
  out.object(static_cast<std::uint32_t>(cores) + 1);
  const double background = uptime * kBackgroundActivity;
  // Aggregate row over all usable cores.
  const StatRow total = make_stat(node.busy_core_seconds(), uptime * cores,
                                  background * cores, rng);
  out.name("cpu");
  out.int64_array(total);
  // Per-core rows.
  char name[16] = "cpu";
  for (int c = 0; c < cores; ++c) {
    const char* end = std::to_chars(name + 3, std::end(name), c).ptr;
    out.name(std::string_view(name, static_cast<std::size_t>(end - name)));
    out.int64_array(make_stat(node.core_busy_seconds(static_cast<CoreId>(c)),
                              uptime, background, rng));
  }
  return total;
}

double utilization_from_stat(const StatRow& before, const StatRow& after) {
  std::int64_t busy_delta = 0;
  std::int64_t total_delta = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
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
