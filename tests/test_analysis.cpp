// Unit tests for the analysis layer: utilization timelines, the hardware
// report, workflow progress extraction, and the adaptive advisor.
#include <gtest/gtest.h>

#include "analysis/advisor.hpp"
#include "analysis/timeline.hpp"

namespace soma::analysis {
namespace {

// ---------- UtilizationTimeline ----------

rp::SessionConfig session_config() {
  rp::SessionConfig config;
  config.platform = cluster::summit(3);
  config.pilot.nodes = 3;
  config.seed = 55;
  return config;
}

TEST(TimelineTest, FractionsSumToOne) {
  rp::Session session(session_config());
  session.start([&] {
    session.submit(rp::TaskDescription{
        .uid = "t", .ranks = 42, .fixed_duration = Duration::seconds(60.0)});
  });
  session.run();

  auto timeline =
      UtilizationTimeline::build(session, session.worker_node_ids());
  const double total = timeline.fraction(CoreState::kIdle) +
                       timeline.fraction(CoreState::kBootstrap) +
                       timeline.fraction(CoreState::kScheduling) +
                       timeline.fraction(CoreState::kRunning);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(timeline.core_count(), 84);  // 2 worker nodes
  EXPECT_GT(timeline.fraction(CoreState::kBootstrap), 0.0);
  EXPECT_GT(timeline.fraction(CoreState::kRunning), 0.0);
}

TEST(TimelineTest, FullyPackedRunHasLittleIdle) {
  rp::Session session(session_config());
  session.start([&] {
    // 84 ranks = both worker nodes completely full.
    session.submit(rp::TaskDescription{
        .uid = "t", .ranks = 84, .fixed_duration = Duration::seconds(300.0)});
  });
  session.run();
  auto timeline =
      UtilizationTimeline::build(session, session.worker_node_ids());
  EXPECT_GT(timeline.fraction(CoreState::kRunning), 0.80);
  EXPECT_LT(timeline.fraction(CoreState::kIdle), 0.10);
}

TEST(TimelineTest, StateAtSamplesCorrectBands) {
  rp::Session session(session_config());
  const rp::Task* task = nullptr;
  session.start([&] {
    task = &session.submit(rp::TaskDescription{
        .uid = "t", .ranks = 84, .fixed_duration = Duration::seconds(100.0)});
  });
  session.run();

  auto timeline =
      UtilizationTimeline::build(session, session.worker_node_ids());
  // During bootstrap.
  const SimTime mid_bootstrap =
      session.pilot_granted_at() +
      (session.agent_ready_at() - session.pilot_granted_at()) / 2.0;
  EXPECT_EQ(timeline.state_at(0, mid_bootstrap), CoreState::kBootstrap);
  // Mid-execution.
  const SimTime mid_run = *task->event_time(rp::Event::kRankStart) +
                          Duration::seconds(50.0);
  EXPECT_EQ(timeline.state_at(0, mid_run), CoreState::kRunning);
  // Between slots_claimed and rank_start: scheduling (purple).
  const SimTime mid_sched =
      *task->event_time(rp::Event::kSlotsClaimed) +
      (*task->event_time(rp::Event::kRankStart) -
       *task->event_time(rp::Event::kSlotsClaimed)) /
          2.0;
  EXPECT_EQ(timeline.state_at(0, mid_sched), CoreState::kScheduling);
}

TEST(TimelineTest, RenderShape) {
  rp::Session session(session_config());
  session.start([&] {
    session.submit(rp::TaskDescription{
        .uid = "t", .ranks = 10, .fixed_duration = Duration::seconds(30.0)});
  });
  session.run();
  auto timeline =
      UtilizationTimeline::build(session, session.worker_node_ids());
  const std::string render = timeline.render(40, 8);
  EXPECT_NE(render.find('b'), std::string::npos);
  EXPECT_NE(render.find('#'), std::string::npos);
  // 8 rows + header.
  EXPECT_EQ(std::count(render.begin(), render.end(), '\n'), 9);
}

TEST(TimelineTest, GlyphMapping) {
  EXPECT_EQ(state_glyph(CoreState::kIdle), '.');
  EXPECT_EQ(state_glyph(CoreState::kBootstrap), 'b');
  EXPECT_EQ(state_glyph(CoreState::kScheduling), 's');
  EXPECT_EQ(state_glyph(CoreState::kRunning), '#');
}

// ---------- hardware report ----------

datamodel::Node hw_record(const std::string& host, double utilization,
                          std::int64_t ram) {
  datamodel::Node node;
  datamodel::Node& h = node[host];
  h["cpu_utilization"].set(utilization);
  h["123456789"]["Available RAM"].set(ram);
  return node;
}

TEST(AdvisorTest, AnalyzeHardware) {
  core::DataStore store;
  store.append(core::Namespace::kHardware, "cn0001",
               SimTime::from_seconds(1.0), hw_record("cn0001", 0.2, 1000));
  store.append(core::Namespace::kHardware, "cn0001",
               SimTime::from_seconds(2.0), hw_record("cn0001", 0.4, 900));
  store.append(core::Namespace::kHardware, "cn0002",
               SimTime::from_seconds(1.0), hw_record("cn0002", 0.9, 500));

  const FreeResourceReport report = analyze_hardware(store.view());
  ASSERT_EQ(report.nodes.size(), 2u);
  EXPECT_EQ(report.nodes[0].hostname, "cn0001");
  EXPECT_NEAR(report.nodes[0].mean_utilization, 0.3, 1e-12);
  EXPECT_NEAR(report.nodes[0].last_utilization, 0.4, 1e-12);
  EXPECT_EQ(report.nodes[0].available_ram_mib, 900);
  EXPECT_NEAR(report.mean_utilization(), (0.3 + 0.9) / 2.0, 1e-12);
}

TEST(AdvisorTest, AnalyzeHardwareGpuFields) {
  core::DataStore store;
  datamodel::Node record;
  record["cn0001"]["cpu_utilization"].set(0.1);
  record["cn0001"]["gpu_utilization"].set(0.8);
  store.append(core::Namespace::kHardware, "cn0001",
               SimTime::from_seconds(1.0), std::move(record));
  datamodel::Node record2;
  record2["cn0001"]["cpu_utilization"].set(0.1);
  record2["cn0001"]["gpu_utilization"].set(0.6);
  store.append(core::Namespace::kHardware, "cn0001",
               SimTime::from_seconds(2.0), std::move(record2));

  const FreeResourceReport report = analyze_hardware(store.view());
  ASSERT_EQ(report.nodes.size(), 1u);
  EXPECT_NEAR(report.nodes[0].mean_gpu_utilization, 0.7, 1e-12);
  EXPECT_NEAR(report.nodes[0].last_gpu_utilization, 0.6, 1e-12);
  EXPECT_NEAR(report.mean_gpu_utilization(), 0.7, 1e-12);
}

TEST(AdvisorTest, ReadHostLeavesAreOptional) {
  core::TimedRecord record{SimTime::from_seconds(1.0),
                           hw_record("cn0001", 0.2, 1000)};
  record.data["cn0001"]["123456790"]["Available RAM"].set(std::int64_t{800});
  const HostReading reading = read_host(record, "cn0001");
  EXPECT_EQ(reading.cpu, 0.2);
  EXPECT_EQ(reading.gpu, std::nullopt);
  EXPECT_EQ(reading.available_ram_mib, 800);  // the newest snapshot block

  const HostReading absent = read_host(record, "cn0002");
  EXPECT_EQ(absent.cpu, std::nullopt);
  EXPECT_EQ(absent.gpu, std::nullopt);
  EXPECT_EQ(absent.available_ram_mib, std::nullopt);
}

TEST(AdvisorTest, UtilizationSeriesSkipsRecordsWithoutCpu) {
  core::DataStore store;
  store.append(core::Namespace::kHardware, "cn0001",
               SimTime::from_seconds(1.0), hw_record("cn0001", 0.2, 1000));
  datamodel::Node gpu_only;
  gpu_only["cn0001"]["gpu_utilization"].set(0.5);
  store.append(core::Namespace::kHardware, "cn0001",
               SimTime::from_seconds(2.0), std::move(gpu_only));
  datamodel::Node both;
  both["cn0001"]["cpu_utilization"].set(0.4);
  both["cn0001"]["gpu_utilization"].set(0.6);
  store.append(core::Namespace::kHardware, "cn0001",
               SimTime::from_seconds(3.0), std::move(both));

  const UtilizationSeries series = utilization_series(store.view());
  ASSERT_EQ(series.size(), 1u);
  const auto& samples = series.at("cn0001");
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].t, 1.0);
  EXPECT_EQ(samples[0].cpu, 0.2);
  EXPECT_EQ(samples[0].gpu, 0.0);  // no GPU leaf
  EXPECT_EQ(samples[1].t, 3.0);
  EXPECT_EQ(samples[1].cpu, 0.4);
  EXPECT_EQ(samples[1].gpu, 0.6);
}

TEST(AdvisorTest, EmptyStoreReport) {
  core::DataStore store;
  const FreeResourceReport report = analyze_hardware(store.view());
  EXPECT_TRUE(report.nodes.empty());
  EXPECT_DOUBLE_EQ(report.mean_utilization(), 0.0);
}

// ---------- workflow progress ----------

datamodel::Node wf_record(std::int64_t done, std::int64_t executing,
                          std::int64_t pending, double throughput) {
  datamodel::Node node;
  datamodel::Node& s = node["summary"];
  s["tasks_total"].set(done + executing + pending);
  s["tasks_pending"].set(pending);
  s["tasks_executing"].set(executing);
  s["tasks_done"].set(done);
  s["tasks_failed"].set(std::int64_t{0});
  s["throughput_per_min"].set(throughput);
  s["mean_exec_seconds"].set(10.0);
  return node;
}

TEST(AdvisorTest, WorkflowProgressSeries) {
  core::DataStore store;
  store.append(core::Namespace::kWorkflow, "rp_monitor",
               SimTime::from_seconds(60.0), wf_record(0, 5, 10, 0.0));
  store.append(core::Namespace::kWorkflow, "rp_monitor",
               SimTime::from_seconds(120.0), wf_record(5, 5, 5, 5.0));
  const auto progress = workflow_progress(store.view());
  ASSERT_EQ(progress.size(), 2u);
  EXPECT_EQ(progress[0].pending, 10);
  EXPECT_EQ(progress[1].done, 5);
  EXPECT_DOUBLE_EQ(progress[1].throughput_per_min, 5.0);
}

TEST(AdvisorTest, ObservedTaskStartsSortedByTime) {
  core::DataStore store;
  datamodel::Node record;
  record["events"]["task.b"]["2000000000"].set("rank_start");
  record["events"]["task.a"]["1000000000"].set("rank_start");
  record["events"]["task.a"]["1500000000"].set("rank_stop");  // ignored
  store.append(core::Namespace::kWorkflow, "rp_monitor",
               SimTime::from_seconds(60.0), std::move(record));

  const auto starts = observed_task_starts(store.view());
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0].second, "task.a");
  EXPECT_EQ(starts[0].first, SimTime::from_seconds(1.0));
  EXPECT_EQ(starts[1].second, "task.b");
}

// ---------- DDMD advice ----------

FreeResourceReport report_with_utilization(double utilization) {
  FreeResourceReport report;
  report.nodes.push_back(
      {.hostname = "cn0001", .mean_utilization = utilization,
       .last_utilization = utilization, .available_ram_mib = 1000});
  return report;
}

TEST(AdvisorTest, LowUtilizationWithGpuHeadroomParallelizesTraining) {
  const DdmdAdvice advice =
      advise_ddmd(report_with_utilization(0.1), /*gpus_free=*/4,
                  /*current_train_tasks=*/2);
  EXPECT_GT(advice.train_tasks, 2);
  EXPECT_EQ(advice.cores_per_sim_task, 1);
  EXPECT_NE(advice.rationale.find("parallelize training"),
            std::string::npos);
}

TEST(AdvisorTest, LowUtilizationNoGpuHeadroomKeepsTraining) {
  const DdmdAdvice advice =
      advise_ddmd(report_with_utilization(0.1), 0, 2);
  EXPECT_EQ(advice.train_tasks, 2);
}

TEST(AdvisorTest, HighUtilizationAddsCores) {
  const DdmdAdvice advice =
      advise_ddmd(report_with_utilization(0.9), 0, 1);
  EXPECT_EQ(advice.cores_per_sim_task, 7);
}

TEST(AdvisorTest, ModerateUtilizationKeepsConfig) {
  const DdmdAdvice advice =
      advise_ddmd(report_with_utilization(0.5), 2, 3);
  EXPECT_EQ(advice.train_tasks, 3);
  EXPECT_EQ(advice.cores_per_sim_task, 3);
}

}  // namespace
}  // namespace soma::analysis
