// Fig. 11: DDMD mini-app Scaling B — pipelines = application nodes in
// {64, 128, 256, 512}, SOMA ranks : pipelines fixed at 1:1, across five
// configurations: none (baseline), shared, exclusive, frequent-shared, and
// frequent-exclusive ("frequent" = publish every 10 s instead of 60 s).
// (paper §4.3; x-axis of the figure is log-scaled application nodes.)
//
// Pass a maximum scale as argv[1] (e.g. "128") to truncate the sweep.
// `--fault-seed N` reruns the sweep on a lossy fabric (1% drops, 2% latency
// spikes) with client retry + buffer-and-replay enabled; without the flag
// the output is byte-identical to earlier builds.

#include <cstdlib>

#include "bench_util.hpp"
#include "experiments/ddmd_experiment.hpp"

using namespace soma;
using namespace soma::experiments;

int main(int argc, char** argv) {
  bench::header("Figure 11",
                "DDMD Scaling B: pipeline-runtime distributions per config");

  // `--store-backend log` swaps the storage backend under the sharded
  // store; the default map backend keeps output byte-identical.
  const core::StorageConfig storage = bench::parse_store_backend(argc, argv);

  // `--publish-batch N` coalesces client publishes into N-record batch
  // frames; absent, batching is off and output stays byte-identical.
  const core::BatchingConfig batching = bench::parse_publish_batch(argc, argv);

  // `--replication F` replicates every shard to F-1 successor ranks; absent,
  // replication is off and output stays byte-identical. Spliced out before
  // the positional max-scale parse below.
  const core::ReplicationConfig replication =
      bench::parse_replication(argc, argv);

  const bench::FaultSeedArg fault = bench::parse_fault_seed(argc, argv);

  int max_scale = 512;
  for (int i = 1; i < argc; ++i) max_scale = std::atoi(argv[i]);

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

  std::uint64_t net_drops = 0, rpc_retries = 0, publish_failures = 0;
  std::uint64_t replayed = 0, failovers = 0;
  std::uint64_t records_replicated = 0, resync_records = 0, crash_wipes = 0;
  std::uint64_t ranks_recovered = 0;

  std::map<std::pair<int, std::string>, Summary> results;
  TextTable table({"app nodes", "config", "pipeline time (s)", "median",
                   "p95", "vs none"});
  for (int scale : {64, 128, 256, 512}) {
    if (scale > max_scale) break;
    double none_mean = 0.0;
    for (const auto& config : configs) {
      auto experiment = DdmdExperimentConfig::scaling_b(
          scale, config.mode, Duration::seconds(config.period_s));
      experiment.storage = storage;
      experiment.batching = batching;
      experiment.replication = replication;
      bench::apply_lossy_fabric(experiment, fault);
      const DdmdResult result = run_ddmd_experiment(experiment);
      net_drops += result.net_drops;
      rpc_retries += result.rpc_retries;
      publish_failures += result.publish_failures;
      replayed += result.replayed_publishes;
      failovers += result.failovers;
      records_replicated += result.records_replicated;
      resync_records += result.resync_records;
      crash_wipes += result.crash_wipes;
      ranks_recovered += result.ranks_recovered;
      const Summary summary = summarize(result.pipeline_seconds);
      results[{scale, config.name}] = summary;
      if (std::string(config.name) == "none") none_mean = summary.mean;
      const double delta = (summary.mean / none_mean - 1.0) * 100.0;
      table.add_row({std::to_string(scale), config.name,
                     bench::fmt_summary(summary), bench::fmt(summary.median),
                     bench::fmt(summary.p95),
                     (delta >= 0 ? "+" : "") + bench::fmt(delta) + "%"});
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
        "+" + bench::fmt(paper) + "%",
        (measured >= 0 ? "+" : "") + bench::fmt(measured) + "%");
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
        (paper >= 0 ? "+" : "") + bench::fmt(paper) + "%",
        (measured >= 0 ? "+" : "") + bench::fmt(measured) + "%");
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
