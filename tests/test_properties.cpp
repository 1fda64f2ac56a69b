// Cross-module property tests: invariants that must hold for arbitrary
// workload mixes, seeds, and scales. Parameterized (TEST_P) sweeps drive
// randomized scenarios through the whole stack.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "experiments/ddmd_experiment.hpp"
#include "experiments/deployment.hpp"
#include "rp/session.hpp"

namespace soma {
namespace {

// ---------- randomized whole-session property ----------

struct SessionInvariants {
  std::vector<const rp::Task*> tasks;
  rp::Session* session = nullptr;
};

/// Run a session with a random task mix and return everything needed to
/// check invariants.
class RandomWorkloadProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomWorkloadProperty, ResourceAndEventInvariants) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Rng scenario_rng(seed * 2654435761u + 17);

  rp::SessionConfig config;
  const int nodes = 2 + static_cast<int>(scenario_rng.uniform_index(4));
  config.platform = cluster::summit(nodes);
  config.pilot.nodes = nodes;
  config.seed = seed;
  rp::Session session(config);

  std::vector<const rp::Task*> tasks;
  session.start([&] {
    const int count = 3 + static_cast<int>(scenario_rng.uniform_index(12));
    for (int i = 0; i < count; ++i) {
      rp::TaskDescription d;
      d.ranks = 1 + static_cast<int>(scenario_rng.uniform_index(40));
      d.cores_per_rank = 1 + static_cast<int>(scenario_rng.uniform_index(2));
      d.gpus_per_rank = scenario_rng.bernoulli(0.3) ? 1 : 0;
      // GPU tasks limited so they always fit the machine.
      if (d.gpus_per_rank > 0) d.ranks = std::min(d.ranks, 6 * (nodes - 1));
      d.ranks = std::min(
          d.ranks, (nodes - 1) * 42 / std::max(1, d.cores_per_rank));
      d.fixed_duration =
          Duration::seconds(scenario_rng.uniform(5.0, 120.0));
      d.cpu_activity = scenario_rng.uniform(0.1, 1.0);
      d.failure_probability = scenario_rng.bernoulli(0.3) ? 0.3 : 0.0;
      tasks.push_back(&session.submit(d));
    }
  });
  session.run();

  for (const auto& task : tasks) {
    // (1) Every task reached a final state.
    EXPECT_TRUE(rp::is_final(task->state())) << task->uid();
    // (2) The Listing-1 event sequence is time-ordered.
    const rp::Event sequence[] = {
        rp::Event::kLaunchStart, rp::Event::kExecStart, rp::Event::kRankStart,
        rp::Event::kRankStop,    rp::Event::kExecStop,  rp::Event::kLaunchStop};
    SimTime previous = SimTime::zero();
    for (const rp::Event name : sequence) {
      const auto at = task->event_time(name);
      ASSERT_TRUE(at.has_value())
          << task->uid() << " missing " << rp::to_string(name);
      EXPECT_GE(*at, previous) << task->uid() << " " << rp::to_string(name);
      previous = *at;
    }
    // (3) The task's state entries in the profile log are monotone in time.
    SimTime last_state_time = SimTime::zero();
    const rp::ProfileStore& log = session.profiles();
    for (std::size_t i = 0; i < log.size(); ++i) {
      const rp::ProfileRecord& record = log.at(i);
      if (record.subject != task->id() ||
          record.event >= rp::Event::kScheduleStart) {
        continue;
      }
      EXPECT_GE(record.time, last_state_time);
      last_state_time = record.time;
    }
    // (4) Placement granted exactly the requested resources.
    ASSERT_TRUE(task->placement().has_value());
    const auto& placement = *task->placement();
    EXPECT_EQ(placement.ranks.size(),
              static_cast<std::size_t>(task->description().ranks));
    for (const auto& rank : placement.ranks) {
      EXPECT_EQ(rank.cores.size(),
                static_cast<std::size_t>(task->description().cores_per_rank));
      EXPECT_EQ(rank.gpus.size(),
                static_cast<std::size_t>(task->description().gpus_per_rank));
    }
  }

  // (5) All resources returned to the platform.
  for (NodeId node : session.worker_node_ids()) {
    EXPECT_EQ(session.platform().node(node).busy_cores(), 0) << node;
    EXPECT_EQ(session.platform().node(node).busy_gpus(), 0) << node;
  }

  // (6) No two tasks ever held the same core at the same time. Reconstruct
  // per-core intervals from the event logs and check for overlap.
  struct Interval {
    SimTime begin, end;
    std::string uid;
  };
  std::map<std::pair<NodeId, CoreId>, std::vector<Interval>> usage;
  for (const auto& task : tasks) {
    const auto begin = task->event_time(rp::Event::kSlotsClaimed);
    const auto end = task->event_time(rp::Event::kLaunchStop);
    ASSERT_TRUE(begin && end);
    for (const auto& rank : task->placement()->ranks) {
      for (CoreId core : rank.cores) {
        usage[{rank.node, core}].push_back({*begin, *end, task->uid()});
      }
    }
  }
  for (auto& [key, intervals] : usage) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                return a.begin < b.begin;
              });
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GE(intervals[i].begin, intervals[i - 1].end)
          << "core (" << key.first << "," << key.second << ") shared by "
          << intervals[i - 1].uid << " and " << intervals[i].uid;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkloadProperty,
                         ::testing::Range(1, 13));

// ---------- determinism sweep ----------

class DeterminismProperty : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismProperty, DdmdRunIsBitReproducible) {
  experiments::DdmdExperimentConfig config;
  config.pipelines = 2;
  config.phases = 1;
  config.app_nodes = 2;
  config.soma_nodes = 1;
  config.seed = static_cast<std::uint64_t>(GetParam());
  const auto a = experiments::run_ddmd_experiment(config);
  const auto b = experiments::run_ddmd_experiment(config);
  ASSERT_EQ(a.pipeline_seconds.size(), b.pipeline_seconds.size());
  for (std::size_t i = 0; i < a.pipeline_seconds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.pipeline_seconds[i], b.pipeline_seconds[i]);
  }
  EXPECT_EQ(a.totals, b.totals);
  EXPECT_DOUBLE_EQ(a.makespan_seconds, b.makespan_seconds);
}

TEST_P(DeterminismProperty, DifferentSeedsDiffer) {
  experiments::DdmdExperimentConfig config;
  config.pipelines = 2;
  config.phases = 1;
  config.app_nodes = 2;
  config.soma_nodes = 1;
  config.seed = static_cast<std::uint64_t>(GetParam());
  const auto a = experiments::run_ddmd_experiment(config);
  config.seed += 1000;
  const auto b = experiments::run_ddmd_experiment(config);
  EXPECT_NE(a.makespan_seconds, b.makespan_seconds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismProperty, ::testing::Values(1, 7));

// ---------- golden scenario ----------

struct GoldenOutcome {
  std::uint64_t events_dispatched = 0;
  std::int64_t final_nanos = 0;
  std::uint64_t publishes = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;
};

/// A fixed quickstart-style scenario: summit(3), seed 42, exclusive SOMA
/// deployment with 10 s monitors, six fixed-duration tasks.
GoldenOutcome run_golden_scenario() {
  rp::SessionConfig session_config;
  session_config.platform = cluster::summit(3);
  session_config.pilot.nodes = 3;
  session_config.seed = 42;
  rp::Session session(session_config);

  std::unique_ptr<experiments::SomaDeployment> deployment;
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
    experiments::DeploymentConfig config;
    config.mode = experiments::SomaMode::kExclusive;
    config.service_nodes = session.agent_node_ids();
    config.rp_monitor.period = Duration::seconds(10.0);
    config.hw_monitor.period = Duration::seconds(10.0);
    deployment = std::make_unique<experiments::SomaDeployment>(session, config);
    deployment->deploy([&] {
      for (int i = 0; i < 6; ++i) {
        rp::TaskDescription desc;
        desc.uid = "det." + std::to_string(i);
        desc.ranks = 8 + 8 * (i % 3);
        desc.cores_per_rank = 1;
        desc.fixed_duration = Duration::seconds(30.0 + 10.0 * i);
        ++outstanding;
        session.submit(desc);
      }
    });
  });

  GoldenOutcome outcome;
  outcome.final_nanos = session.run().nanos();
  outcome.events_dispatched = session.simulation().events_dispatched();
  outcome.publishes = deployment->service().publishes_received();
  outcome.net_messages = session.network().messages_sent();
  outcome.net_bytes = session.network().bytes_sent();
  return outcome;
}

// Hard-coded goldens captured from the pre-refactor envelope/shared_ptr
// implementation. The zero-copy wire path and the generation-slot event
// queue are pure host-side optimizations: a drift in ANY of these numbers
// means simulated behavior changed (event ordering, message count, or the
// modeled frame bytes) and is a bug, not an expected churn.
TEST(GoldenScenarioTest, MatchesSeedImplementation) {
  const GoldenOutcome outcome = run_golden_scenario();
  EXPECT_EQ(outcome.events_dispatched, 293u);
  EXPECT_EQ(outcome.final_nanos, 145036156368);
  EXPECT_EQ(outcome.publishes, 52u);
  EXPECT_EQ(outcome.net_messages, 104u);
  EXPECT_EQ(outcome.net_bytes, 127395u);
}

TEST(GoldenScenarioTest, RunToRunIdentical) {
  const GoldenOutcome a = run_golden_scenario();
  const GoldenOutcome b = run_golden_scenario();
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.final_nanos, b.final_nanos);
  EXPECT_EQ(a.publishes, b.publishes);
  EXPECT_EQ(a.net_messages, b.net_messages);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
}

// ---------- monitoring completeness ----------

class MonitoringCompletenessProperty : public ::testing::TestWithParam<int> {
};

TEST_P(MonitoringCompletenessProperty, EveryNodePublishesEveryWindow) {
  // For any pipeline count, every monitored node must produce roughly
  // runtime/period samples — no monitor silently starves.
  experiments::DdmdExperimentConfig config;
  config.pipelines = GetParam();
  config.phases = 1;
  config.app_nodes = std::max(2, GetParam());
  config.soma_nodes = 1;
  config.monitor_period = Duration::seconds(30.0);
  config.seed = 5;
  const auto result = experiments::run_ddmd_experiment(config);

  const double expected_samples = result.makespan_seconds / 30.0;
  EXPECT_EQ(result.node_utilization.size(),
            static_cast<std::size_t>(1 + config.app_nodes + 1));
  for (const auto& [host, series] : result.node_utilization) {
    EXPECT_GT(static_cast<double>(series.size()), expected_samples * 0.5)
        << host;
    // Samples strictly time-ordered, utilizations within [0, 1].
    double previous = -1.0;
    for (const auto& [t, u, g] : series) {
      EXPECT_GT(t, previous) << host;
      previous = t;
      EXPECT_GE(u, 0.0) << host;
      EXPECT_LE(u, 1.0) << host;
      EXPECT_GE(g, 0.0) << host;
      EXPECT_LE(g, 1.0) << host;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, MonitoringCompletenessProperty,
                         ::testing::Values(1, 4, 8));

// ---------- conservation: pipeline time >= sum of critical stage times ----

class StageAccountingProperty : public ::testing::TestWithParam<int> {};

TEST_P(StageAccountingProperty, StageSpansTileThePipeline) {
  experiments::DdmdExperimentConfig config;
  config.pipelines = 1;
  config.phases = GetParam();
  config.app_nodes = 2;
  config.soma_nodes = 1;
  config.seed = 9;
  const auto result = experiments::run_ddmd_experiment(config);

  ASSERT_EQ(result.phase_utilization.size(),
            static_cast<std::size_t>(GetParam()));
  double span_sum = 0.0;
  for (const auto& phase : result.phase_utilization) {
    EXPECT_GT(phase.span_seconds, 0.0);
    span_sum += phase.span_seconds;
  }
  // Phases are sequential: their spans cover (almost exactly) the pipeline.
  EXPECT_NEAR(span_sum, result.pipeline_seconds.front(),
              result.pipeline_seconds.front() * 0.01);
}

INSTANTIATE_TEST_SUITE_P(PhaseCounts, StageAccountingProperty,
                         ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace soma
