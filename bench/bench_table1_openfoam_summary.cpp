// Table 1: OpenFOAM experiment summary (paper §3.1).
//
// Prints the two experiment configurations (tuning / overload) exactly as
// Table 1 lays them out, then runs both and reports the realized counts so
// the configuration is demonstrably what executed.

#include "bench_util.hpp"
#include "experiments/openfoam_experiment.hpp"

using namespace soma;
using namespace soma::experiments;

int main(int argc, char** argv) {
  bench::header("Table 1", "OpenFOAM experiment summary");

  // `--store-backend log` swaps the storage backend under the sharded store.
  const core::StorageConfig storage = bench::parse_store_backend(argc, argv);

  // `--publish-batch N` coalesces client publishes; off by default.
  const core::BatchingConfig batching = bench::parse_publish_batch(argc, argv);

  // `--fault-seed N` reruns both configurations on a lossy fabric (1% drops,
  // 2% latency spikes) with client retry + buffer-and-replay enabled — the
  // Fig. 10 fault profile. Absent, the fabric is perfect and the output is
  // byte-identical to earlier builds.
  const bench::FaultSeedArg fault = bench::parse_fault_seed(argc, argv);

  auto tuning = OpenFoamExperimentConfig::tuning();
  tuning.storage = storage;
  tuning.batching = batching;
  bench::apply_lossy_fabric(tuning, fault);
  auto overload = OpenFoamExperimentConfig::overloaded();
  overload.storage = storage;
  overload.batching = batching;
  bench::apply_lossy_fabric(overload, fault);

  TextTable table({"Experiment", "Tuning", "Overload"});
  table.add_row({"Number of Tasks",
                 std::to_string(tuning.instances_per_config *
                                tuning.rank_configs.size()),
                 std::to_string(overload.instances_per_config *
                                overload.rank_configs.size())});
  table.add_row({"Number of Nodes", std::to_string(tuning.worker_nodes),
                 std::to_string(overload.worker_nodes)});
  table.add_row({"Number of MPI Ranks", "20, 41, 82, 164", "20, 41, 82, 164"});
  table.add_row({"Monitors", "proc, rp, tau", "proc, rp, tau"});
  table.add_row({"SOMA Ranks Per Namespace",
                 std::to_string(tuning.soma_ranks_per_namespace),
                 std::to_string(overload.soma_ranks_per_namespace)});
  std::printf("%s", table.to_string().c_str());

  bench::section("realized runs (tasks completed, monitors active)");
  const OpenFoamResult tuning_result = run_openfoam_experiment(tuning);
  const OpenFoamResult overload_result = run_openfoam_experiment(overload);

  TextTable realized({"run", "tasks done", "SOMA publishes", "TAU profiles",
                      "hosts monitored", "makespan (s)"});
  realized.add_row({"tuning", std::to_string(tuning_result.tasks.size()),
                    std::to_string(tuning_result.soma_publishes),
                    std::to_string(tuning_result.tau_profiles),
                    std::to_string(tuning_result.node_utilization.size()),
                    bench::fmt(tuning_result.makespan_seconds)});
  realized.add_row({"overload", std::to_string(overload_result.tasks.size()),
                    std::to_string(overload_result.soma_publishes),
                    std::to_string(overload_result.tau_profiles),
                    std::to_string(overload_result.node_utilization.size()),
                    bench::fmt(overload_result.makespan_seconds)});
  std::printf("%s", realized.to_string().c_str());

  bench::section("store shard balance (records routed per service rank)");
  TextTable shards({"run", "shards", "records/shard min", "max", "imbalance"});
  const std::pair<const char*, const OpenFoamResult*> shard_runs[] = {
      {"tuning", &tuning_result}, {"overload", &overload_result}};
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
    const std::pair<const char*, const OpenFoamResult*> fault_runs[] = {
        {"tuning", &tuning_result}, {"overload", &overload_result}};
    for (const auto& [name, r] : fault_runs) {
      faults.add_row({name, std::to_string(r->net_drops),
                      std::to_string(r->rpc_retries),
                      std::to_string(r->publish_failures),
                      std::to_string(r->replayed_publishes),
                      std::to_string(r->failovers)});
    }
    std::printf("%s", faults.to_string().c_str());
  }

  bench::paper_vs_measured("tuning tasks", "4",
                           std::to_string(tuning_result.tasks.size()));
  bench::paper_vs_measured("overload tasks", "80",
                           std::to_string(overload_result.tasks.size()));
  bench::paper_vs_measured(
      "monitored sources (overload: 10 workers + 1 agent/SOMA node)", "11",
      std::to_string(overload_result.node_utilization.size()));
  return 0;
}
