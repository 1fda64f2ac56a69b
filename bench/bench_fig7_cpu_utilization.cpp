// Fig. 7: per-node CPU utilization for the OpenFOAM tuning workflow
// (paper §4.2).
//
// Each compute node's utilization is measured every 30 s by the SOMA
// hardware monitoring client; the orange dots of the figure — task starts
// observed by the SOMA RP monitor — are printed as markers. The paper's
// observations: a spike in utilization as ranks start, and an imbalance
// across nodes in the latter half of the run.

#include <algorithm>

#include "bench_stack.hpp"
#include "experiments/openfoam_experiment.hpp"

using namespace soma;
using namespace soma::experiments;

int main(int argc, char** argv) {
  const StackConfig stack = bench::parse_stack(
      argc, argv, "Figure 7",
      "per-node CPU utilization, OpenFOAM tuning workflow");

  auto config = OpenFoamExperimentConfig::tuning();
  config.stack() = stack;
  const OpenFoamResult result = run_openfoam_experiment(config);

  // Time-bucketed utilization chart, one row per sample time, one column
  // per host (agent/SOMA node first, then workers).
  std::vector<std::string> hosts;
  for (const auto& [host, series] : result.node_utilization) {
    hosts.push_back(host);
  }
  std::sort(hosts.begin(), hosts.end());

  std::vector<std::string> headers = {"t (s)"};
  for (const auto& host : hosts) headers.push_back(host);
  headers.push_back("task starts observed by RP monitor");
  TextTable table(headers);

  // Align rows on the first host's sample times; the monitors tick with a
  // deterministic stagger, so match by nearest sample within half a period.
  const auto& reference = result.node_utilization.at(hosts.front());
  for (const auto& sample : reference) {
    const double t = sample.t;
    std::vector<std::string> row{bench::fmt(t, 0)};
    for (const auto& host : hosts) {
      const auto& series = result.node_utilization.at(host);
      double nearest = -1.0, best_dt = 16.0;
      for (const auto& other : series) {
        const double dt = std::abs(other.t - t);
        if (dt < best_dt) {
          best_dt = dt;
          nearest = other.cpu;
        }
      }
      row.push_back(nearest < 0 ? "-" : bench::fmt_pct(nearest, 0));
    }
    std::string marks;
    for (const auto& [start, uid] : result.observed_task_starts) {
      if (start >= t - 30.0 && start < t) {
        if (!marks.empty()) marks += ", ";
        marks += "* " + uid;
      }
    }
    row.push_back(marks);
    table.add_row(std::move(row));
  }
  std::printf("%s", table.to_string().c_str());

  // Shape checks.
  double peak = 0.0;
  for (const auto& host : hosts) {
    for (const auto& sample : result.node_utilization.at(host)) {
      peak = std::max(peak, sample.cpu);
    }
  }
  // Imbalance in the latter half: spread of per-node mean utilization over
  // the second half of the run.
  double t_end = 0.0;
  for (const auto& sample : reference) t_end = std::max(t_end, sample.t);
  std::vector<double> late_means;
  for (const auto& host : hosts) {
    if (host == hosts.front()) continue;  // skip agent/SOMA node
    double sum = 0.0;
    int count = 0;
    for (const auto& sample : result.node_utilization.at(host)) {
      if (sample.t > t_end / 2.0) {
        sum += sample.cpu;
        ++count;
      }
    }
    if (count > 0) late_means.push_back(sum / count);
  }
  const double late_spread =
      late_means.empty()
          ? 0.0
          : *std::max_element(late_means.begin(), late_means.end()) -
                *std::min_element(late_means.begin(), late_means.end());

  bench::section("paper-vs-measured (shape)");
  bench::paper_vs_measured("utilization spikes as ranks start", "yes",
                           peak > 0.8 ? "yes (peak " + bench::fmt_pct(peak) +
                                            ")"
                                      : "NO (peak " + bench::fmt_pct(peak) +
                                            ")");
  bench::paper_vs_measured(
      "imbalance across nodes in the latter half", "yes",
      late_spread > 0.1
          ? "yes (mean-utilization spread " + bench::fmt_pct(late_spread) + ")"
          : "NO (spread " + bench::fmt_pct(late_spread) + ")");
  bench::paper_vs_measured(
      "task starts observed online by the RP monitor", "orange dots",
      std::to_string(result.observed_task_starts.size()) + " markers");
  return 0;
}
