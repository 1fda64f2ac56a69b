// /proc snapshot helpers shared by the unit tests: the packed record as
// make_proc_snapshot writes it, and a reference tree built by name lookups.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/platform.hpp"
#include "cluster/proc.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "datamodel/node.hpp"

namespace soma::testutil {

/// {<host>: {<timestamp>: snapshot}}, written by make_proc_snapshot.
inline std::vector<std::byte> packed_proc_snapshot(
    const cluster::ComputeNode& node, SimTime now, Rng& rng) {
  std::vector<std::byte> bytes;
  {
    datamodel::PackWriter out(bytes);
    out.object(1);
    out.name(node.hostname());
    out.object(1);
    cluster::make_proc_snapshot(out, node, now, rng);
  }
  return bytes;
}

/// The same snapshot as a tree built by name lookups, one child() per key,
/// drawing from `rng` in the same order: the reference the written bytes
/// must pack identically to.
inline datamodel::Node lookup_built_snapshot(const cluster::ComputeNode& node,
                                             SimTime now, Rng& rng) {
  auto stat_row = [&](double busy, double total, double background) {
    const double user = busy * (0.92 + 0.02 * rng.uniform());
    auto jiffies = [&](double seconds) {
      return static_cast<std::int64_t>(seconds * cluster::kJiffiesPerSecond);
    };
    return std::vector<std::int64_t>{
        jiffies(user),
        jiffies(0.0),
        jiffies(busy - user + background * 0.5),
        jiffies(std::max(0.0, total - busy - background)),
        jiffies(background * 0.4),
        jiffies(background * 0.1)};
  };
  datamodel::Node snapshot;
  datamodel::Node& at =
      snapshot[node.hostname()][std::to_string(now.nanos())];
  const double uptime = now.to_seconds();
  at["Uptime"].set(static_cast<std::int64_t>(uptime));
  at["Num Processes"].set(static_cast<std::int64_t>(
      cluster::kBaselineProcesses + node.num_processes()));
  at["Available RAM"].set(static_cast<std::int64_t>(node.available_ram_mib()));
  datamodel::Node& stat = at["stat"];
  const double background = uptime * cluster::kBackgroundActivity;
  stat["cpu"].set(stat_row(node.busy_core_seconds(),
                           uptime * node.usable_cores(),
                           background * node.usable_cores()));
  for (int c = 0; c < node.usable_cores(); ++c) {
    std::string name = "cpu";
    name += std::to_string(c);
    stat[name].set(
        stat_row(node.core_busy_seconds(static_cast<CoreId>(c)),
                 uptime, background));
  }
  return snapshot;
}

}  // namespace soma::testutil
