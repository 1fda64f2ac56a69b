// Fig. 10: DDMD mini-app Scaling A — 64 pipelines, varying the ratio of
// SOMA ranks to pipelines (1:1 .. 4:1) in shared and exclusive
// configurations (paper §4.3).
//
// Paper findings: GPU oversubscription causes more variability in the
// shared configuration but reduces execution time for many pipelines, and
// "the ratio of SOMA ranks to pipelines does not have much effect".

#include "bench_stack.hpp"
#include "experiments/ddmd_experiment.hpp"

using namespace soma;
using namespace soma::experiments;

int main(int argc, char** argv) {
  const StackConfig stack = bench::parse_stack(
      argc, argv, "Figure 10",
      "DDMD Scaling A: 64 pipelines, SOMA rank ratio x shared/excl");

  struct Row {
    int soma_nodes;
    int ranks;
    SomaMode mode;
    Summary summary;
  };
  std::vector<Row> rows;

  std::vector<StackTotals> totals;

  // Table 2, Scaling A: SOMA nodes {1,2,4} with ranks/namespace {16,32,64}.
  const std::vector<std::pair<int, int>> setups = {{1, 16}, {2, 32}, {4, 64}};
  for (const auto& [nodes, ranks] : setups) {
    for (SomaMode mode : {SomaMode::kExclusive, SomaMode::kShared}) {
      auto config = DdmdExperimentConfig::scaling_a(nodes, ranks, mode);
      config.stack() = stack;
      const DdmdResult result = run_ddmd_experiment(config);
      totals.push_back(result.totals);
      rows.push_back(Row{nodes, ranks, mode,
                         summarize(result.pipeline_seconds)});
    }
  }

  TextTable table({"SOMA nodes", "ranks/ns", "pipelines:ranks", "mode",
                   "pipeline time (s)", "p95", "spread (max-min)"});
  for (const auto& row : rows) {
    table.add_row({std::to_string(row.soma_nodes), std::to_string(row.ranks),
                   "1:" + bench::fmt(row.ranks / 64.0, 2),
                   std::string(to_string(row.mode)),
                   bench::fmt_summary(row.summary), bench::fmt(row.summary.p95),
                   bench::fmt(row.summary.max - row.summary.min)});
  }
  std::printf("%s", table.to_string().c_str());

  // Shape checks.
  auto mean_over = [&](SomaMode mode) {
    double sum = 0.0;
    int n = 0;
    for (const auto& row : rows) {
      if (row.mode == mode) {
        sum += row.summary.mean;
        ++n;
      }
    }
    return sum / n;
  };
  auto spread_over = [&](SomaMode mode) {
    double sum = 0.0;
    int n = 0;
    for (const auto& row : rows) {
      if (row.mode == mode) {
        sum += row.summary.max - row.summary.min;
        ++n;
      }
    }
    return sum / n;
  };
  // Ratio effect within exclusive rows.
  double ratio_min = 1e18, ratio_max = 0.0;
  for (const auto& row : rows) {
    if (row.mode != SomaMode::kExclusive) continue;
    ratio_min = std::min(ratio_min, row.summary.mean);
    ratio_max = std::max(ratio_max, row.summary.mean);
  }

  bench::section("paper-vs-measured (shape)");
  bench::paper_vs_measured(
      "shared reduces execution time for many pipelines", "yes",
      mean_over(SomaMode::kShared) < mean_over(SomaMode::kExclusive)
          ? "yes (mean " + bench::fmt(mean_over(SomaMode::kShared)) + "s vs " +
                bench::fmt(mean_over(SomaMode::kExclusive)) + "s)"
          : "NO");
  bench::paper_vs_measured(
      "shared has more variance than exclusive", "yes",
      spread_over(SomaMode::kShared) > spread_over(SomaMode::kExclusive)
          ? "yes (spread " + bench::fmt(spread_over(SomaMode::kShared)) +
                "s vs " + bench::fmt(spread_over(SomaMode::kExclusive)) + "s)"
          : "NO");
  bench::paper_vs_measured(
      "SOMA rank ratio has little effect", "little effect",
      (ratio_max - ratio_min) / ratio_min < 0.05
          ? "yes (exclusive means within " +
                bench::fmt_pct((ratio_max - ratio_min) / ratio_min) + ")"
          : "NO (" + bench::fmt_pct((ratio_max - ratio_min) / ratio_min) + ")");

  bench::print_stack_sections(stack, totals);
  return 0;
}
