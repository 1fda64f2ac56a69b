// Fig. 11: DDMD mini-app Scaling B — pipelines = application nodes in
// {64, 128, 256, 512}, SOMA ranks : pipelines fixed at 1:1, across five
// configurations: none (baseline), shared, exclusive, frequent-shared, and
// frequent-exclusive ("frequent" = publish every 10 s instead of 60 s).
// (paper §4.3; x-axis of the figure is log-scaled application nodes.)
//
// Pass a maximum scale (at least 64, e.g. "128") to truncate the sweep; it
// takes the stack flags of bench_stack.hpp too.

#include "bench_stack.hpp"
#include "experiments/ddmd_experiment.hpp"

using namespace soma;
using namespace soma::experiments;

int main(int argc, char** argv) {
  int max_scale = 0;
  const StackConfig stack = bench::parse_stack(
      argc, argv, "Figure 11",
      "DDMD Scaling B: pipeline-runtime distributions per config", &max_scale);

  struct Config {
    const char* name;
    SomaMode mode;
    double period_s;
  };
  const std::vector<Config> configs = {
      {"none", SomaMode::kNone, 60.0},
      {"shared", SomaMode::kShared, 60.0},
      {"exclusive", SomaMode::kExclusive, 60.0},
      {"frequent-shared", SomaMode::kShared, 10.0},
      {"frequent-exclusive", SomaMode::kExclusive, 10.0},
  };

  std::vector<StackTotals> totals;

  std::map<std::pair<int, std::string>, Summary> results;
  TextTable table({"app nodes", "config", "pipeline time (s)", "median",
                   "p95", "vs none"});
  for (int scale : {64, 128, 256, 512}) {
    if (scale > max_scale) break;
    double none_mean = 0.0;
    for (const auto& config : configs) {
      auto experiment = DdmdExperimentConfig::scaling_b(
          scale, config.mode, Duration::seconds(config.period_s));
      experiment.stack() = stack;
      const DdmdResult result = run_ddmd_experiment(experiment);
      totals.push_back(result.totals);
      const Summary summary = summarize(result.pipeline_seconds);
      results[{scale, config.name}] = summary;
      if (std::string(config.name) == "none") none_mean = summary.mean;
      const double delta = (summary.mean / none_mean - 1.0) * 100.0;
      table.add_row({std::to_string(scale), config.name,
                     bench::fmt_summary(summary), bench::fmt(summary.median),
                     bench::fmt(summary.p95),
                     bench::fmt_signed_pct(delta)});
    }
  }
  std::printf("%s", table.to_string().c_str());

  bench::section("paper-vs-measured: frequent-exclusive overhead vs baseline");
  const std::map<int, double> paper_freq_excl = {
      {64, 1.4}, {128, 3.4}, {256, 3.2}, {512, 4.6}};
  for (const auto& [scale, paper] : paper_freq_excl) {
    const auto it = results.find({scale, "frequent-exclusive"});
    const auto none = results.find({scale, "none"});
    if (it == results.end() || none == results.end()) continue;
    const double measured =
        (it->second.mean / none->second.mean - 1.0) * 100.0;
    bench::paper_vs_measured(
        (std::to_string(scale) + " nodes").c_str(),
        bench::fmt_signed_pct(paper),
        bench::fmt_signed_pct(measured));
  }

  bench::section("paper-vs-measured: frequent-shared vs baseline");
  const std::map<int, double> paper_freq_shared = {
      {64, -6.5}, {128, -3.8}, {256, -1.1}, {512, +1.8}};
  for (const auto& [scale, paper] : paper_freq_shared) {
    const auto it = results.find({scale, "frequent-shared"});
    const auto none = results.find({scale, "none"});
    if (it == results.end() || none == results.end()) continue;
    const double measured =
        (it->second.mean / none->second.mean - 1.0) * 100.0;
    bench::paper_vs_measured(
        (std::to_string(scale) + " nodes").c_str(),
        bench::fmt_signed_pct(paper),
        bench::fmt_signed_pct(measured));
  }

  bench::section("shape checks");
  if (max_scale >= 128) {
    // Overhead grows with scale.
    const double small =
        results.at({64, "frequent-exclusive"}).mean / results.at({64, "none"}).mean;
    const double large = results.at({std::min(512, max_scale),
                                     "frequent-exclusive"})
                             .mean /
                         results.at({std::min(512, max_scale), "none"}).mean;
    bench::paper_vs_measured("frequent overhead grows with scale", "yes",
                             large > small ? "yes" : "NO");
    // Shared benefit shrinks (and flips) with scale.
    const double shared_small = results.at({64, "frequent-shared"}).mean /
                                results.at({64, "none"}).mean;
    const double shared_large =
        results.at({std::min(512, max_scale), "frequent-shared"}).mean /
        results.at({std::min(512, max_scale), "none"}).mean;
    bench::paper_vs_measured("shared benefit shrinks as SOMA nodes fill up",
                             "yes", shared_large > shared_small ? "yes" : "NO");
  }

  bench::print_stack_sections(stack, totals);
  return 0;
}
