// Integration tests: the full SOMA-on-RP deployment (paper Fig. 2) and the
// experiment runners at reduced scale. These exercise every module together:
// batch -> session -> service task -> monitors -> workload -> analysis.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "analysis/advisor.hpp"
#include "experiments/ddmd_experiment.hpp"
#include "experiments/deployment.hpp"
#include "experiments/openfoam_experiment.hpp"

namespace soma::experiments {
namespace {

// ---------- SomaDeployment ----------

TEST(DeploymentTest, BootstrapOrderMatchesFig2) {
  rp::SessionConfig session_config;
  session_config.platform = cluster::summit(4);
  session_config.pilot.nodes = 4;
  session_config.seed = 3;
  rp::Session session(session_config);

  std::unique_ptr<SomaDeployment> deployment;
  bool ready = false;
  session.start([&] {
    DeploymentConfig config;
    config.mode = SomaMode::kExclusive;
    config.service_nodes = session.agent_node_ids();
    deployment = std::make_unique<SomaDeployment>(session, config);
    deployment->deploy([&] {
      ready = true;
      deployment->shutdown();
      session.finalize();
    });
  });
  session.run();
  ASSERT_TRUE(ready);

  // Ordering: service task starts before the RP monitor, which starts
  // before (or with) the hardware monitors; all before any app task.
  const auto service = session.find_task("soma.service");
  const auto rp_monitor = session.find_task("monitor.rp");
  ASSERT_NE(service, nullptr);
  ASSERT_NE(rp_monitor, nullptr);
  EXPECT_LE(*service->event_time(rp::Event::kRankStart),
            *rp_monitor->event_time(rp::Event::kRankStart));
  for (NodeId node : session.pilot_nodes()) {
    const auto hw = session.find_task("monitor.hw." + std::to_string(node));
    ASSERT_NE(hw, nullptr) << "missing hw monitor on node " << node;
    EXPECT_LE(*service->event_time(rp::Event::kRankStart),
              *hw->event_time(rp::Event::kRankStart));
  }
}

TEST(DeploymentTest, NoneModeDeploysNothing) {
  rp::SessionConfig session_config;
  session_config.platform = cluster::summit(3);
  session_config.pilot.nodes = 3;
  rp::Session session(session_config);
  std::unique_ptr<SomaDeployment> deployment;
  bool ready = false;
  session.start([&] {
    DeploymentConfig config;
    config.mode = SomaMode::kNone;
    deployment = std::make_unique<SomaDeployment>(session, config);
    deployment->deploy([&] {
      ready = true;
      session.finalize();
    });
  });
  session.run();
  EXPECT_TRUE(ready);
  EXPECT_FALSE(deployment->deployed());
  EXPECT_EQ(session.find_task("soma.service"), nullptr);
}

TEST(DeploymentTest, MonitorsPublishDuringWorkflow) {
  rp::SessionConfig session_config;
  session_config.platform = cluster::summit(3);
  session_config.pilot.nodes = 3;
  rp::Session session(session_config);
  std::unique_ptr<SomaDeployment> deployment;

  int outstanding = 0;
  session.add_task_completion_listener(
      [&](const rp::Task& task) {
        if (task.description().kind != rp::TaskKind::kApplication) return;
        if (--outstanding == 0) {
          deployment->shutdown();
          session.finalize();
        }
      });
  session.start([&] {
    DeploymentConfig config;
    config.service_nodes = session.agent_node_ids();
    config.rp_monitor.period = Duration::seconds(15.0);
    config.hw_monitor.period = Duration::seconds(15.0);
    deployment = std::make_unique<SomaDeployment>(session, config);
    deployment->deploy([&] {
      outstanding = 2;
      session.submit(rp::TaskDescription{
          .uid = "a", .ranks = 20, .fixed_duration = Duration::seconds(90.0)});
      session.submit(rp::TaskDescription{
          .uid = "b", .ranks = 20, .fixed_duration = Duration::seconds(90.0)});
    });
  });
  session.run();

  const core::StoreView store = deployment->service().store_view();
  EXPECT_GT(store.record_count(core::Namespace::kWorkflow), 3u);
  EXPECT_GT(store.record_count(core::Namespace::kHardware), 6u);
  // The hardware report sees all three nodes.
  const auto report = analysis::analyze_hardware(store);
  EXPECT_EQ(report.nodes.size(), 3u);
  // Progress series shows the two tasks completing.
  const auto progress = analysis::workflow_progress(store);
  ASSERT_FALSE(progress.empty());
  EXPECT_EQ(progress.back().done, 2);
  const StackTotals totals = deployment->reliability_totals();
  EXPECT_GT(totals.mean_ack_latency_ms, 0.0);
  EXPECT_GE(totals.max_ack_latency_ms, totals.mean_ack_latency_ms);
}

TEST(DeploymentTest, SharedModeAllowsAppTasksOnServiceNodes) {
  rp::SessionConfig session_config;
  session_config.platform = cluster::summit(3);
  session_config.pilot.nodes = 3;
  rp::Session session(session_config);
  std::unique_ptr<SomaDeployment> deployment;
  const rp::Task* big = nullptr;
  session.start([&] {
    DeploymentConfig config;
    config.mode = SomaMode::kShared;
    config.service_nodes = {session.pilot_nodes().back()};
    deployment = std::make_unique<SomaDeployment>(session, config);
    deployment->deploy([&] {
      // 80 ranks: needs both the worker node (41 free) and spare capacity
      // on the shared service node.
      big = &session.submit(rp::TaskDescription{
          .uid = "big", .ranks = 80,
          .fixed_duration = Duration::seconds(30.0)});
      session.add_task_completion_listener(
          [&](const rp::Task& task) {
            if (&task == big) {
              deployment->shutdown();
              session.finalize();
            }
          });
    });
  });
  session.run();
  ASSERT_TRUE(big->placement().has_value());
  std::vector<NodeId> nodes = big->placement()->nodes();
  EXPECT_NE(std::find(nodes.begin(), nodes.end(),
                      session.pilot_nodes().back()),
            nodes.end());
}

TEST(DeploymentTest, StandardAnalyzersAnswerRemoteQueries) {
  rp::SessionConfig session_config;
  session_config.platform = cluster::summit(3);
  session_config.pilot.nodes = 3;
  session_config.seed = 13;
  rp::Session session(session_config);
  std::unique_ptr<SomaDeployment> deployment;
  std::shared_ptr<core::SomaClient> consumer;
  datamodel::Node hardware_reply, progress_reply;

  int outstanding = 0;
  session.add_task_completion_listener(
      [&](const rp::Task& task) {
        if (task.description().kind != rp::TaskKind::kApplication) return;
        if (--outstanding > 0) return;
        // The workflow just finished: query the in-situ analyzers remotely.
        consumer = deployment->make_client(core::Namespace::kWorkflow,
                                           session.worker_node_ids().front());
        datamodel::Node hw_request;
        hw_request["kind"].set("analyze");
        hw_request["analyzer"].set("hardware_report");
        consumer->query(std::move(hw_request), [&](datamodel::Node r) {
          hardware_reply = std::move(r);
        });
        datamodel::Node progress_request;
        progress_request["kind"].set("analyze");
        progress_request["analyzer"].set("progress");
        consumer->query(std::move(progress_request), [&](datamodel::Node r) {
          progress_reply = std::move(r);
          deployment->shutdown();
          session.finalize();
        });
      });

  session.start([&] {
    DeploymentConfig config;
    config.service_nodes = session.agent_node_ids();
    config.rp_monitor.period = Duration::seconds(15.0);
    config.hw_monitor.period = Duration::seconds(15.0);
    deployment = std::make_unique<SomaDeployment>(session, config);
    deployment->deploy([&] {
      outstanding = 2;
      session.submit(rp::TaskDescription{
          .uid = "a", .ranks = 20, .fixed_duration = Duration::seconds(60.0)});
      session.submit(rp::TaskDescription{
          .uid = "b", .ranks = 20, .fixed_duration = Duration::seconds(60.0)});
    });
  });
  session.run();

  // Hardware analyzer saw all three hosts with sane values.
  ASSERT_TRUE(hardware_reply.has_child("result"));
  const auto& hw = hardware_reply.fetch_existing("result");
  EXPECT_EQ(hw.fetch_existing("hosts").number_of_children(), 3u);
  EXPECT_GT(hw.fetch_existing("mean_cpu_utilization").as_float64(), 0.0);
  // Progress analyzer reports on the workflow.
  ASSERT_TRUE(progress_reply.has_child("result"));
  EXPECT_GT(
      progress_reply.fetch_existing("result/samples").as_int64(), 0);
}

// ---------- OpenFOAM experiment (reduced) ----------

TEST(OpenFoamExperimentTest, TuningRunProducesAllFigureData) {
  OpenFoamExperimentConfig config = OpenFoamExperimentConfig::tuning(7);
  const OpenFoamResult result = run_openfoam_experiment(config);

  // 4 tasks, one per rank configuration.
  EXPECT_EQ(result.tasks.size(), 4u);
  ASSERT_EQ(result.scaling.size(), 4u);
  // Fig. 4 shape: monotone improvement up to 82, little after.
  EXPECT_GT(result.scaling.at(20).mean, result.scaling.at(41).mean);
  EXPECT_GT(result.scaling.at(41).mean, result.scaling.at(82).mean);

  // Fig. 8 fractions and render present.
  EXPECT_GT(result.frac_bootstrap, 0.0);
  EXPECT_GT(result.frac_running, 0.3);
  EXPECT_FALSE(result.timeline_render.empty());

  // Fig. 7 data: per-node utilization series from the SOMA store.
  EXPECT_EQ(result.node_utilization.size(), 5u);  // 4 workers + agent node
  EXPECT_FALSE(result.observed_task_starts.empty());

  // Fig. 5: a 164-rank TAU profile made it into the performance namespace.
  EXPECT_EQ(result.sample_profile.ranks.size(), 164u);
  EXPECT_EQ(result.tau_profiles, 4u);
  EXPECT_GT(result.totals.soma_publishes, 0u);
  EXPECT_GT(result.makespan_seconds, 0.0);
}

TEST(OpenFoamExperimentTest, ReducedOverloadSpreadsTasks) {
  OpenFoamExperimentConfig config = OpenFoamExperimentConfig::overloaded(7);
  config.instances_per_config = 5;  // keep the test quick
  config.worker_nodes = 6;
  const OpenFoamResult result = run_openfoam_experiment(config);
  EXPECT_EQ(result.tasks.size(), 20u);

  // With contention, some small tasks span >1 node (Fig. 6 x-axis exists).
  bool any_spread = false;
  for (const auto& [key, times] : result.by_spread) {
    if (key.second > 1 && key.first <= 41) any_spread = true;
  }
  EXPECT_TRUE(any_spread);
}

TEST(OpenFoamExperimentTest, DeterministicForSeed) {
  OpenFoamExperimentConfig config = OpenFoamExperimentConfig::tuning(99);
  const OpenFoamResult a = run_openfoam_experiment(config);
  const OpenFoamResult b = run_openfoam_experiment(config);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.tasks[i].exec_seconds, b.tasks[i].exec_seconds);
  }
  EXPECT_DOUBLE_EQ(a.makespan_seconds, b.makespan_seconds);
}

// ---------- DDMD experiment (reduced) ----------

TEST(DdmdExperimentTest, TuningRunShowsLowUtilization) {
  DdmdExperimentConfig config = DdmdExperimentConfig::tuning(5);
  config.phases = 3;  // first three phase configs, keeps the test quick
  const DdmdResult result = run_ddmd_experiment(config);

  ASSERT_EQ(result.pipeline_seconds.size(), 1u);
  ASSERT_EQ(result.phase_utilization.size(), 3u);
  for (const auto& phase : result.phase_utilization) {
    // Fig. 9 finding: GPU-bound phases keep CPU utilization low.
    EXPECT_LT(phase.mean_utilization, 0.5);
    EXPECT_GT(phase.span_seconds, 0.0);
  }
  // More cores per sim task -> somewhat higher utilization (shading trend).
  EXPECT_GT(result.phase_utilization[2].mean_utilization,
            result.phase_utilization[0].mean_utilization);
}

TEST(DdmdExperimentTest, AdaptiveRunRecordsAdvice) {
  DdmdExperimentConfig config = DdmdExperimentConfig::adaptive(5);
  config.phases = 2;
  config.phase_configs.resize(2);
  const DdmdResult result = run_ddmd_experiment(config);
  EXPECT_EQ(result.adaptive_advice.size(), 2u);
  for (const auto& advice : result.adaptive_advice) {
    EXPECT_NE(advice.find("after phase"), std::string::npos);
  }
}

TEST(DdmdExperimentTest, SharedFasterThanExclusiveUnderOversubscription) {
  auto shared_config = DdmdExperimentConfig::scaling_b(
      8, SomaMode::kShared, Duration::seconds(60.0), 5);
  auto exclusive_config = DdmdExperimentConfig::scaling_b(
      8, SomaMode::kExclusive, Duration::seconds(60.0), 5);
  const DdmdResult shared = run_ddmd_experiment(shared_config);
  const DdmdResult exclusive = run_ddmd_experiment(exclusive_config);
  ASSERT_EQ(shared.pipeline_seconds.size(), 8u);
  // Paper Fig. 10/11: shared reduces execution time for many pipelines.
  EXPECT_LT(shared.pipeline_summary.mean, exclusive.pipeline_summary.mean);
}

TEST(DdmdExperimentTest, FrequentMonitoringCostsMore) {
  auto slow = DdmdExperimentConfig::scaling_b(8, SomaMode::kExclusive,
                                              Duration::seconds(60.0), 5);
  auto fast = DdmdExperimentConfig::scaling_b(8, SomaMode::kExclusive,
                                              Duration::seconds(10.0), 5);
  const DdmdResult slow_result = run_ddmd_experiment(slow);
  const DdmdResult fast_result = run_ddmd_experiment(fast);
  EXPECT_GT(fast_result.totals.soma_publishes,
            slow_result.totals.soma_publishes * 3);
  EXPECT_GE(fast_result.pipeline_summary.mean,
            slow_result.pipeline_summary.mean);
}

TEST(DdmdExperimentTest, NoneBaselineHasNoSomaTraffic) {
  auto config = DdmdExperimentConfig::scaling_b(4, SomaMode::kNone,
                                                Duration::seconds(60.0), 5);
  const DdmdResult result = run_ddmd_experiment(config);
  EXPECT_EQ(result.totals.soma_publishes, 0u);
  EXPECT_EQ(result.pipeline_seconds.size(), 4u);
  EXPECT_TRUE(result.node_utilization.empty());
}

TEST(DdmdExperimentTest, InvalidConfigRejected) {
  DdmdExperimentConfig config;
  config.mode = SomaMode::kNone;
  config.soma_nodes = 1;
  EXPECT_THROW(run_ddmd_experiment(config), InternalError);
}

// ---------- StackConfig wiring ----------

/// Every stack knob at once: the lossy fabric (seed 17) with retry and
/// buffer-and-replay, replication factor 2, 16-record batches and the log
/// backend.
StackConfig every_knob() {
  StackConfig stack;
  net::FaultConfig faults;
  faults.seed = 17;
  faults.default_link.drop_probability = 0.01;
  faults.default_link.spike_probability = 0.02;
  stack.faults = faults;
  stack.reliability.retry.max_attempts = 4;
  stack.reliability.retry.timeout = Duration::milliseconds(100);
  stack.reliability.buffer_on_failure = true;
  stack.reliability.probe_period = Duration::seconds(5);
  stack.replication.factor = 2;
  stack.batching.max_records = 16;
  stack.storage.backend = core::StorageBackendKind::kLog;
  return stack;
}

TEST(StackWiringTest, DdmdRunnerAppliesEveryKnob) {
  auto config = DdmdExperimentConfig::scaling_b(8, SomaMode::kExclusive,
                                                Duration::seconds(10.0));
  config.stack() = every_knob();
  const DdmdResult a = run_ddmd_experiment(config);
  const DdmdResult b = run_ddmd_experiment(config);
  EXPECT_GT(a.totals.net_drops, 0u);
  EXPECT_GT(a.totals.records_replicated, 0u);
  EXPECT_GT(a.totals.batches_sent, 0u);
  EXPECT_EQ(a.totals, b.totals);
  EXPECT_EQ(a.pipeline_seconds, b.pipeline_seconds);
}

TEST(StackWiringTest, OpenFoamRunnerAppliesEveryKnob) {
  auto config = OpenFoamExperimentConfig::tuning();
  config.soma_ranks_per_namespace = 2;  // a replica needs a second rank
  config.stack() = every_knob();
  const OpenFoamResult a = run_openfoam_experiment(config);
  const OpenFoamResult b = run_openfoam_experiment(config);
  EXPECT_GT(a.totals.net_drops, 0u);
  EXPECT_GT(a.totals.records_replicated, 0u);
  EXPECT_GT(a.totals.batches_sent, 0u);
  EXPECT_EQ(a.totals, b.totals);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].exec_seconds, b.tasks[i].exec_seconds);
    EXPECT_EQ(a.tasks[i].started_at, b.tasks[i].started_at);
  }
}

// ---------- What the store holds ----------

/// FNV-1a over every stored record in StoreView order: per namespace, each
/// source, then each of its records' time and `pack()` bytes.
struct StoreDigest {
  std::uint64_t records = 0;
  std::uint64_t hash = 14695981039346656037ULL;

  void mix(std::span<const std::byte> bytes) {
    for (const std::byte b : bytes) {
      hash ^= static_cast<std::uint64_t>(b);
      hash *= 1099511628211ULL;
    }
  }
  void add(const core::StoreView& view) {
    // Every source lives in its home shard: the one its name hashes to.
    const core::DataStore& store = view.store();
    for (const core::Namespace ns : core::kAllNamespaces) {
      for (int i = 0; i < store.shard_count(); ++i) {
        for (const std::string& source : store.shard(ns, i).sources()) {
          EXPECT_EQ(store.shard_index_for(source), i) << source;
        }
      }
    }
    for (const core::Namespace ns :
         {core::Namespace::kWorkflow, core::Namespace::kHardware}) {
      for (const std::string& source : view.sources(ns)) {
        mix(std::as_bytes(std::span(source.data(), source.size())));
        for (const core::TimedRecord* record : view.series(ns, source)) {
          const std::int64_t nanos = record->time.nanos();
          mix(std::as_bytes(std::span(&nanos, 1)));
          mix(record->data.pack());
          ++records;
        }
      }
    }
  }
};

StoreDigest store_digest(const DdmdExperimentConfig& config) {
  StoreDigest digest;
  run_ddmd_experiment(config,
                      [&digest](const core::StoreView& view) {
                        digest.add(view);
                      });
  return digest;
}

// Values read at the commit before the per-message fabric rewrite; every
// delivery path change must leave them alone (the fig/table goldens print
// times and counts, never the stored records).
TEST(StoreContentPinTest, Fig10SharedSixteenRanks) {
  const StoreDigest digest = store_digest(
      DdmdExperimentConfig::scaling_a(1, 16, SomaMode::kShared));
  EXPECT_EQ(digest.records, 737u);
  EXPECT_EQ(digest.hash, 0xe025a6793a24c79eULL);
}

TEST(StoreContentPinTest, Fig10ReplicatedOnLossyFabric) {
  auto config = DdmdExperimentConfig::scaling_a(1, 16, SomaMode::kExclusive);
  // bench_fig10_scaling_a --replication 2 --fault-seed 17.
  net::FaultConfig faults;
  faults.seed = 17;
  faults.default_link.drop_probability = 0.01;
  faults.default_link.spike_probability = 0.02;
  config.faults = faults;
  config.reliability.retry.max_attempts = 4;
  config.reliability.retry.timeout = Duration::milliseconds(100);
  config.reliability.buffer_on_failure = true;
  config.reliability.probe_period = Duration::seconds(5);
  config.replication.factor = 2;
  const StoreDigest digest = store_digest(config);
  EXPECT_EQ(digest.records, 750u);
  EXPECT_EQ(digest.hash, 0x3cf5b044596d3184ULL);
}

TEST(StoreContentPinTest, Fig11SixtyFourNodesFrequentExclusive) {
  const StoreDigest digest = store_digest(DdmdExperimentConfig::scaling_b(
      64, SomaMode::kExclusive, Duration::seconds(10.0)));
  EXPECT_EQ(digest.records, 4581u);
  EXPECT_EQ(digest.hash, 0x2ce6054a25cca84fULL);
}

}  // namespace
}  // namespace soma::experiments
