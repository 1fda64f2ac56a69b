// Table 2: DeepDriveMD mini-app experiment summary (paper §3.2).
//
// Prints the four experiment configurations (Tuning / Adaptive / Scaling A /
// Scaling B) as Table 2 lays them out, then executes the two small ones
// (Tuning, Adaptive) end to end to show the configuration is runnable.

#include "bench_util.hpp"
#include "experiments/ddmd_experiment.hpp"

using namespace soma;
using namespace soma::experiments;

int main(int argc, char** argv) {
  bench::header("Table 2", "DeepDriveMD mini-app experiment summary");

  // `--store-backend log` swaps the storage backend under the sharded store.
  const core::StorageConfig storage = bench::parse_store_backend(argc, argv);

  // `--publish-batch N` coalesces client publishes; off by default.
  const core::BatchingConfig batching = bench::parse_publish_batch(argc, argv);

  // `--fault-seed N` reruns the two executed configurations on a lossy
  // fabric (1% drops, 2% latency spikes) with client retry +
  // buffer-and-replay — the Fig. 10 fault profile. Absent, the fabric is
  // perfect and the output is byte-identical to earlier builds.
  const bench::FaultSeedArg fault = bench::parse_fault_seed(argc, argv);

  TextTable table({"Experiment", "Phases (n)", "Pipelines (m)", "App Nodes",
                   "SOMA Nodes", "Cores/Sim", "Train Tasks", "Cores/Train",
                   "Ranks/Namespace", "Freq (s)"});
  table.add_row({"Tuning", "6", "1", "2", "1", "1,3,7", "1", "1,3,7", "1",
                 "60"});
  table.add_row({"Adaptive", "4", "1", "2", "1", "6", "1,2,4,6", "1", "1",
                 "60"});
  table.add_row({"Scaling A", "1", "64", "64", "1,2,4", "3", "1", "7",
                 "16,32,64", "60"});
  table.add_row({"Scaling B", "1", "64,128,256,512", "64,128,256,512",
                 "4,7,13,25", "3", "1", "7", "64,128,256,512", "60,10"});
  std::printf("%s", table.to_string().c_str());

  bench::section("realized runs (Tuning and Adaptive executed end-to-end)");
  auto tuning_config = DdmdExperimentConfig::tuning();
  tuning_config.storage = storage;
  tuning_config.batching = batching;
  bench::apply_lossy_fabric(tuning_config, fault);
  auto adaptive_config = DdmdExperimentConfig::adaptive();
  adaptive_config.storage = storage;
  adaptive_config.batching = batching;
  bench::apply_lossy_fabric(adaptive_config, fault);
  const DdmdResult tuning = run_ddmd_experiment(tuning_config);
  const DdmdResult adaptive = run_ddmd_experiment(adaptive_config);

  TextTable realized({"run", "phases", "pipeline time (s)", "SOMA publishes",
                      "advice recorded"});
  realized.add_row({"tuning",
                    std::to_string(tuning.phase_utilization.size()),
                    bench::fmt(tuning.pipeline_seconds.front()),
                    std::to_string(tuning.soma_publishes),
                    std::to_string(tuning.adaptive_advice.size())});
  realized.add_row({"adaptive",
                    std::to_string(adaptive.phase_utilization.size()),
                    bench::fmt(adaptive.pipeline_seconds.front()),
                    std::to_string(adaptive.soma_publishes),
                    std::to_string(adaptive.adaptive_advice.size())});
  std::printf("%s", realized.to_string().c_str());

  bench::section("store shard balance (records routed per service rank)");
  TextTable shards({"run", "shards", "records/shard min", "max", "imbalance"});
  const std::pair<const char*, const DdmdResult*> shard_runs[] = {
      {"tuning", &tuning}, {"adaptive", &adaptive}};
  for (const auto& [name, r] : shard_runs) {
    const double imbalance =
        r->shard_records_min == 0
            ? 0.0
            : static_cast<double>(r->shard_records_max) /
                  static_cast<double>(r->shard_records_min);
    shards.add_row({name, std::to_string(r->store_shards),
                    std::to_string(r->shard_records_min),
                    std::to_string(r->shard_records_max),
                    r->store_shards > 1 ? bench::fmt(imbalance, 2) + "x"
                                        : "n/a"});
  }
  std::printf("%s", shards.to_string().c_str());

  if (fault.enabled) {
    bench::section(
        ("fault injection (seed " + std::to_string(fault.seed) + ")").c_str());
    TextTable faults({"run", "net drops", "rpc retries", "publish failures",
                      "replayed", "failovers"});
    for (const auto& [name, r] : shard_runs) {
      faults.add_row({name, std::to_string(r->net_drops),
                      std::to_string(r->rpc_retries),
                      std::to_string(r->publish_failures),
                      std::to_string(r->replayed_publishes),
                      std::to_string(r->failovers)});
    }
    std::printf("%s", faults.to_string().c_str());
  }

  bench::section("adaptive analysis between phases (paper Table 2, Adaptive)");
  for (const auto& advice : adaptive.adaptive_advice) {
    std::printf("  %s\n", advice.c_str());
  }

  bench::paper_vs_measured("tuning phases", "6",
                           std::to_string(tuning.phase_utilization.size()));
  bench::paper_vs_measured("adaptive phases", "4",
                           std::to_string(adaptive.phase_utilization.size()));
  bench::paper_vs_measured("SOMA analysis available between phases", "yes",
                           adaptive.adaptive_advice.empty() ? "NO" : "yes");
  return 0;
}
