// Fig. 6: execution time vs the number of nodes a task's ranks landed on
// (paper §4.1).
//
// During the overloaded run the RP scheduler splits 20- and 41-rank tasks
// across 1..5 nodes "based on what was available". The paper observes an
// execution-time improvement for 20-rank tasks as ranks spread over more
// nodes (smaller runs tended to execute later, when nodes were less
// contended), with a weaker effect at 41 ranks.

#include "bench_stack.hpp"
#include "experiments/openfoam_experiment.hpp"

using namespace soma;
using namespace soma::experiments;

int main(int argc, char** argv) {
  const StackConfig stack = bench::parse_stack(
      argc, argv, "Figure 6",
      "OpenFOAM execution time by node spread (20 / 41 ranks)");

  // Aggregate several seeds: one overloaded run yields few distinct spread
  // groups, and the figure is a distribution.
  std::map<std::pair<int, int>, std::vector<double>> by_spread;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto config = OpenFoamExperimentConfig::overloaded(seed);
    config.stack() = stack;
    const OpenFoamResult result = run_openfoam_experiment(config);
    for (const auto& [key, times] : result.by_spread) {
      auto& bucket = by_spread[key];
      bucket.insert(bucket.end(), times.begin(), times.end());
    }
  }

  for (int ranks : {20, 41}) {
    bench::section((std::to_string(ranks) + " MPI ranks").c_str());
    TextTable table({"nodes spanned", "tasks", "exec time (s)", "bar"});
    double max_mean = 0.0;
    for (const auto& [key, times] : by_spread) {
      if (key.first == ranks) {
        max_mean = std::max(max_mean, summarize(times).mean);
      }
    }
    for (const auto& [key, times] : by_spread) {
      if (key.first != ranks) continue;
      const Summary s = summarize(times);
      table.add_row({std::to_string(key.second), std::to_string(s.count),
                     bench::fmt_summary(s), ascii_bar(s.mean, max_mean, 36)});
    }
    std::printf("%s", table.to_string().c_str());
  }

  // Shape checks: compare the single-node group against the most-spread
  // group for each rank count.
  auto group_mean = [&](int ranks, bool spread) {
    double best = -1.0;
    int best_nodes = spread ? -1 : 1000;
    for (const auto& [key, times] : by_spread) {
      if (key.first != ranks || times.empty()) continue;
      const bool better = spread ? key.second > best_nodes
                                 : key.second < best_nodes;
      if (better) {
        best_nodes = key.second;
        best = summarize(times).mean;
      }
    }
    return best;
  };

  const double packed20 = group_mean(20, false);
  const double spread20 = group_mean(20, true);
  const double packed41 = group_mean(41, false);
  const double spread41 = group_mean(41, true);

  bench::section("paper-vs-measured (shape)");
  bench::paper_vs_measured(
      "20-rank: spreading across nodes improves exec time", "yes",
      spread20 > 0 && spread20 < packed20
          ? "yes (" + bench::fmt(packed20) + "s -> " + bench::fmt(spread20) +
                "s)"
          : "weaker (" + bench::fmt(packed20) + "s -> " +
                bench::fmt(spread20) + "s)");
  if (packed41 > 0 && spread41 > 0) {
    const double improvement20 = (packed20 - spread20) / packed20;
    const double improvement41 = (packed41 - spread41) / packed41;
    bench::paper_vs_measured(
        "41-rank improvement less remarkable than 20-rank", "yes",
        improvement41 < improvement20
            ? "yes (" + bench::fmt_pct(improvement41) + " vs " +
                  bench::fmt_pct(improvement20) + ")"
            : "NO (" + bench::fmt_pct(improvement41) + " vs " +
                  bench::fmt_pct(improvement20) + ")");
  }
  return 0;
}
