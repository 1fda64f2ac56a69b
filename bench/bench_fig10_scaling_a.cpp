// Fig. 10: DDMD mini-app Scaling A — 64 pipelines, varying the ratio of
// SOMA ranks to pipelines (1:1 .. 4:1) in shared and exclusive
// configurations (paper §4.3).
//
// Paper findings: GPU oversubscription causes more variability in the
// shared configuration but reduces execution time for many pipelines, and
// "the ratio of SOMA ranks to pipelines does not have much effect".

#include "bench_util.hpp"
#include "experiments/ddmd_experiment.hpp"

using namespace soma;
using namespace soma::experiments;

int main(int argc, char** argv) {
  bench::header("Figure 10",
                "DDMD Scaling A: 64 pipelines, SOMA rank ratio x shared/excl");

  // `--store-backend log` swaps the storage backend under the sharded store.
  // Absent, the default map backend keeps output byte-identical to earlier
  // builds.
  const core::StorageConfig storage = bench::parse_store_backend(argc, argv);

  // `--publish-batch N` coalesces client publishes into N-record batch
  // frames (`--batch-delay` bounds their age). Absent, batching stays off
  // and output is byte-identical to earlier builds.
  const core::BatchingConfig batching = bench::parse_publish_batch(argc, argv);

  // `--replication F` replicates every shard to F-1 successor ranks with
  // heartbeat failure detection. Absent, replication stays off and output is
  // byte-identical to earlier builds.
  const core::ReplicationConfig replication =
      bench::parse_replication(argc, argv);

  // `--fault-seed N` reruns the sweep on a lossy fabric (1% drops, 2% latency
  // spikes) with client retry + buffer-and-replay enabled. Without the flag
  // the fabric is perfect and the output is byte-identical to earlier builds.
  const bench::FaultSeedArg fault = bench::parse_fault_seed(argc, argv);

  struct Row {
    int soma_nodes;
    int ranks;
    SomaMode mode;
    Summary summary;
  };
  std::vector<Row> rows;

  std::uint64_t net_drops = 0, rpc_retries = 0, publish_failures = 0;
  std::uint64_t replayed = 0, failovers = 0;
  std::uint64_t records_replicated = 0, resync_records = 0, crash_wipes = 0;
  std::uint64_t ranks_recovered = 0;

  // Table 2, Scaling A: SOMA nodes {1,2,4} with ranks/namespace {16,32,64}.
  const std::vector<std::pair<int, int>> setups = {{1, 16}, {2, 32}, {4, 64}};
  for (const auto& [nodes, ranks] : setups) {
    for (SomaMode mode : {SomaMode::kExclusive, SomaMode::kShared}) {
      auto config = DdmdExperimentConfig::scaling_a(nodes, ranks, mode);
      config.storage = storage;
      config.batching = batching;
      config.replication = replication;
      bench::apply_lossy_fabric(config, fault);
      const DdmdResult result = run_ddmd_experiment(config);
      net_drops += result.net_drops;
      rpc_retries += result.rpc_retries;
      publish_failures += result.publish_failures;
      replayed += result.replayed_publishes;
      failovers += result.failovers;
      records_replicated += result.records_replicated;
      resync_records += result.resync_records;
      crash_wipes += result.crash_wipes;
      ranks_recovered += result.ranks_recovered;
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

  if (fault.enabled) {
    bench::section(("fault injection (seed " + std::to_string(fault.seed) +
                    ")")
                       .c_str());
    std::printf("  network drops:    %llu\n",
                static_cast<unsigned long long>(net_drops));
    std::printf("  rpc retries:      %llu\n",
                static_cast<unsigned long long>(rpc_retries));
    std::printf("  publish failures: %llu\n",
                static_cast<unsigned long long>(publish_failures));
    std::printf("  replayed:         %llu\n",
                static_cast<unsigned long long>(replayed));
    std::printf("  failovers:        %llu\n",
                static_cast<unsigned long long>(failovers));
  }
  if (replication.enabled()) {
    bench::section(
        ("replication (factor " + std::to_string(replication.factor) + ")")
            .c_str());
    std::printf("  records replicated: %llu\n",
                static_cast<unsigned long long>(records_replicated));
    std::printf("  resync records:     %llu\n",
                static_cast<unsigned long long>(resync_records));
    std::printf("  crash wipes:        %llu\n",
                static_cast<unsigned long long>(crash_wipes));
    std::printf("  ranks recovered:    %llu\n",
                static_cast<unsigned long long>(ranks_recovered));
  }
  return 0;
}
