// Unit tests for the RP workflow monitor and the hardware monitor.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "monitors/hw_monitor.hpp"
#include "monitors/rp_monitor.hpp"
#include "soma/service.hpp"
#include "workloads/ddmd.hpp"

namespace soma::monitors {
namespace {

rp::SessionConfig session_config() {
  rp::SessionConfig config;
  config.platform = cluster::summit(3);
  config.pilot.nodes = 3;
  config.seed = 33;
  return config;
}

// ---------- RpMonitor ----------

class RpMonitorTest : public ::testing::Test {
 protected:
  RpMonitorTest() : session(session_config()) {}

  void start_with_service() {
    service = std::make_unique<core::SomaService>(session.network(),
                                                  std::vector<NodeId>{0});
    client = std::make_unique<core::SomaClient>(
        session.network(), 0, 6000, core::Namespace::kWorkflow,
        service->instance(core::Namespace::kWorkflow).ranks);
  }

  rp::Session session;
  std::unique_ptr<core::SomaService> service;
  std::unique_ptr<core::SomaClient> client;
};

TEST_F(RpMonitorTest, PublishesSummaries) {
  RpMonitorConfig config;
  config.period = Duration::seconds(10.0);
  std::unique_ptr<RpMonitor> monitor;
  session.start([&] {
    start_with_service();
    monitor = std::make_unique<RpMonitor>(session, *client, config);
    monitor->start();
    session.submit(rp::TaskDescription{
        .uid = "t", .ranks = 4, .fixed_duration = Duration::seconds(25.0)});
    session.simulation().schedule(Duration::seconds(60.0), [&] {
      monitor->stop();
      session.finalize();
    });
  });
  session.run();

  EXPECT_GE(monitor->ticks(), 6u);
  const auto series =
      service->store_view().series(core::Namespace::kWorkflow, "rp_monitor");
  ASSERT_GE(series.size(), 6u);

  // Early tick: the task is pending or executing; late tick: done.
  const auto& early = series[1]->data.fetch_existing("summary");
  const auto& late = series.back()->data.fetch_existing("summary");
  EXPECT_EQ(late.fetch_existing("tasks_done").as_int64(), 1);
  EXPECT_EQ(early.fetch_existing("tasks_done").as_int64() +
                early.fetch_existing("tasks_executing").as_int64() +
                early.fetch_existing("tasks_pending").as_int64(),
            1);
  EXPECT_NEAR(late.fetch_existing("mean_exec_seconds").to_float64(), 25.0,
              1.0);
}

TEST_F(RpMonitorTest, EventsPublishedIncrementally) {
  RpMonitorConfig config;
  config.period = Duration::seconds(10.0);
  std::unique_ptr<RpMonitor> monitor;
  session.start([&] {
    start_with_service();
    monitor = std::make_unique<RpMonitor>(session, *client, config);
    monitor->start();
    session.submit(rp::TaskDescription{
        .uid = "t", .ranks = 1, .fixed_duration = Duration::seconds(5.0)});
    session.simulation().schedule(Duration::seconds(30.0), [&] {
      monitor->stop();
      session.finalize();
    });
  });
  session.run();

  const auto series =
      service->store_view().series(core::Namespace::kWorkflow, "rp_monitor");
  // rank_start for task "t" appears in exactly one tick's event block.
  int ticks_with_rank_start = 0;
  for (const auto* record : series) {
    const auto* events = record->data.find_child("events");
    if (events == nullptr) continue;
    const auto* task_events = events->find_child("t");
    if (task_events == nullptr) continue;
    for (std::size_t i = 0; i < task_events->number_of_children(); ++i) {
      if (task_events->child_at(i).as_string() ==
          rp::to_string(rp::Event::kRankStart)) {
        ++ticks_with_rank_start;
      }
    }
  }
  EXPECT_EQ(ticks_with_rank_start, 1);
}

TEST_F(RpMonitorTest, CpuShareGrowsWithTasksAndSaturates) {
  RpMonitorConfig config;
  config.period = Duration::seconds(10.0);
  std::unique_ptr<RpMonitor> monitor;
  double share_empty = 0.0;
  session.start([&] {
    start_with_service();
    monitor = std::make_unique<RpMonitor>(session, *client, config);
    share_empty = monitor->cpu_share();
    for (int i = 0; i < 50; ++i) {
      session.submit(rp::TaskDescription{
          .ranks = 1, .fixed_duration = Duration::seconds(1.0)});
    }
    session.finalize();
  });
  session.run();
  EXPECT_GT(monitor->cpu_share(), share_empty);
  EXPECT_LE(monitor->cpu_share(), kCpuShareCap);
}

TEST_F(RpMonitorTest, RequiresWorkflowNamespaceClient) {
  session.start([&] {
    service = std::make_unique<core::SomaService>(session.network(),
                                                  std::vector<NodeId>{0});
    core::SomaClient wrong(
        session.network(), 0, 6000, core::Namespace::kHardware,
        service->instance(core::Namespace::kHardware).ranks);
    EXPECT_THROW(RpMonitor(session, wrong), InternalError);
    session.finalize();
  });
  session.run();
}

// Listing 1 keys events by <uid>/<timestamp ns>, so events of one task
// that share a nanosecond keep only the last one recorded. This pins that
// behaviour (see EXPERIMENTS.md, known deviations): keying by anything
// else changes the records' bytes.
TEST_F(RpMonitorTest, EventsSharingANanosecondKeepTheLastOne) {
  RpMonitorConfig config;
  config.period = Duration::seconds(10.0);
  std::unique_ptr<RpMonitor> monitor;
  rp::Task* done = nullptr;
  rp::Task* canceled = nullptr;
  rp::Task* waits = nullptr;
  session.start([&] {
    start_with_service();
    monitor = std::make_unique<RpMonitor>(session, *client, config);
    monitor->start();
    done = &session.submit(rp::TaskDescription{
        .uid = "done", .ranks = 2, .fixed_duration = Duration::seconds(5.0)});
    canceled = &session.submit(rp::TaskDescription{
        .uid = "canceled", .ranks = 2,
        .fixed_duration = Duration::seconds(100.0)});
    // Needs the cores "done" holds, so it is placed only once that ends.
    waits = &session.submit(rp::TaskDescription{
        .uid = "waits", .ranks = 82, .fixed_duration = Duration::seconds(5.0)});
    session.simulation().schedule(Duration::seconds(20.0), [&] {
      session.executor().cancel(canceled->id());
    });
    session.simulation().schedule(Duration::seconds(40.0), [&] {
      monitor->stop();
      session.finalize();
    });
  });
  session.run();

  // Every published event of each task, merged over ticks, by timestamp.
  std::map<std::string, std::map<std::string, std::string>> published;
  std::uint64_t digest = 1469598103934665603ULL;  // FNV-1a over events bytes
  for (const auto* record :
       service->store_view().series(core::Namespace::kWorkflow, "rp_monitor")) {
    const auto& events = record->data.fetch_existing("events");
    for (const std::byte b : events.pack()) {
      digest = (digest ^ static_cast<std::uint8_t>(b)) * 1099511628211ULL;
    }
    for (std::size_t i = 0; i < events.number_of_children(); ++i) {
      const auto& task_events = events.child_at(i);
      for (std::size_t j = 0; j < task_events.number_of_children(); ++j) {
        published[std::string(events.child_names()[i])]
                 [std::string(task_events.child_names()[j])] =
            task_events.child_at(j).as_string();
      }
    }
  }
  const auto at = [](const rp::Task* task, rp::Event event) {
    return std::to_string(task->event_time(event)->nanos());
  };
  const auto entered = [](const rp::Task* task, rp::TaskState state) {
    return std::to_string(task->state_entered(state)->nanos());
  };

  // launch_stop and DONE share a nanosecond: DONE is published.
  EXPECT_EQ(at(done, rp::Event::kLaunchStop),
            entered(done, rp::TaskState::kDone));
  EXPECT_EQ(published["done"][at(done, rp::Event::kLaunchStop)], "DONE");
  // AGENT_SCHEDULING and schedule_start share one: schedule_start wins,
  // or slots_claimed when the task is placed at once.
  for (const auto& task : {done, canceled, waits}) {
    const std::string agent = entered(task, rp::TaskState::kAgentScheduling);
    EXPECT_EQ(at(task, rp::Event::kScheduleStart), agent);
  }
  EXPECT_EQ(at(done, rp::Event::kSlotsClaimed),
            entered(done, rp::TaskState::kAgentScheduling));
  EXPECT_EQ(published["done"][at(done, rp::Event::kScheduleStart)],
            "slots_claimed");
  EXPECT_NE(at(waits, rp::Event::kSlotsClaimed),
            entered(waits, rp::TaskState::kAgentScheduling));
  EXPECT_EQ(published["waits"][at(waits, rp::Event::kScheduleStart)],
            "schedule_start");
  // A cancel records rank_stop, exec_stop, launch_stop and CANCELED in one
  // nanosecond: only CANCELED is published.
  const std::string cancel_at = entered(canceled, rp::TaskState::kCanceled);
  for (const auto event : {rp::Event::kRankStop, rp::Event::kExecStop,
                           rp::Event::kLaunchStop}) {
    EXPECT_EQ(at(canceled, event), cancel_at);
  }
  EXPECT_EQ(published["canceled"][cancel_at], "CANCELED");
  for (const auto& [uid, events] : published) {
    for (const auto& [ts, event] : events) {
      EXPECT_NE(event, "launch_stop") << uid;
      EXPECT_NE(event, "AGENT_SCHEDULING") << uid;
    }
  }
  // Today's bytes, as stored and on the wire. Unpacking keeps one child
  // per name, so only the wire count tells a repeated timestamp key apart.
  EXPECT_EQ(digest, 13324147279481747739ULL);
  EXPECT_EQ(session.network().bytes_sent(), 3526u);
}

// ---------- RpMonitor summary against a full scan ----------

// One dwell as a full pass over every task's logs sums it: in doubles in
// task order (the reference the means must stay within 1e-12 of) and in
// int64 nanoseconds (which the folded means must equal exactly).
struct ScanDwell {
  double seconds = 0.0;
  Duration total;
  std::int64_t count = 0;

  void add(Duration dwell) {
    seconds += dwell.to_seconds();
    total += dwell;
    ++count;
  }
  [[nodiscard]] double double_mean() const {
    return count == 0 ? 0.0 : seconds / static_cast<double>(count);
  }
  [[nodiscard]] double int64_mean() const {
    return count == 0 ? 0.0
                      : total.to_seconds() / static_cast<double>(count);
  }
};

struct FullScan {
  WorkflowSummary counts;
  ScanDwell exec, tmgr, agent, launch;
};

FullScan full_scan(const rp::Session& session) {
  FullScan scan;
  for (const rp::Task& task : session.tasks()) {
    const auto tmgr = task.state_entered(rp::TaskState::kTmgrScheduling);
    const auto agent = task.state_entered(rp::TaskState::kAgentScheduling);
    const auto executing = task.state_entered(rp::TaskState::kExecuting);
    if (tmgr && agent) scan.tmgr.add(*agent - *tmgr);
    if (agent && executing) scan.agent.add(*executing - *agent);
    const auto launch_start = task.event_time(rp::Event::kLaunchStart);
    const auto rank_start = task.event_time(rp::Event::kRankStart);
    if (launch_start && rank_start) scan.launch.add(*rank_start - *launch_start);
    ++scan.counts.tasks_total;
    switch (task.state()) {
      case rp::TaskState::kNew:
      case rp::TaskState::kTmgrScheduling:
      case rp::TaskState::kAgentScheduling:
        ++scan.counts.tasks_pending;
        break;
      case rp::TaskState::kExecuting:
        ++scan.counts.tasks_executing;
        break;
      case rp::TaskState::kDone:
        ++scan.counts.tasks_done;
        if (const auto d = task.rank_duration()) scan.exec.add(*d);
        break;
      case rp::TaskState::kFailed:
      case rp::TaskState::kCanceled:
        ++scan.counts.tasks_failed;
        break;
    }
  }
  return scan;
}

void expect_matches(const WorkflowSummary& summary, const FullScan& scan) {
  EXPECT_EQ(summary.tasks_total, scan.counts.tasks_total);
  EXPECT_EQ(summary.tasks_pending, scan.counts.tasks_pending);
  EXPECT_EQ(summary.tasks_executing, scan.counts.tasks_executing);
  EXPECT_EQ(summary.tasks_done, scan.counts.tasks_done);
  EXPECT_EQ(summary.tasks_failed, scan.counts.tasks_failed);
  const std::pair<double, const ScanDwell*> means[] = {
      {summary.mean_exec_seconds, &scan.exec},
      {summary.mean_tmgr_wait_seconds, &scan.tmgr},
      {summary.mean_agent_wait_seconds, &scan.agent},
      {summary.mean_launch_overhead_seconds, &scan.launch}};
  for (const auto& [mean, dwell] : means) {
    EXPECT_EQ(mean, dwell->int64_mean());
    EXPECT_NEAR(mean, dwell->double_mean(),
                1e-12 * std::abs(dwell->double_mean()));
  }
}

// Two DDMD pipelines (one phase, all stages submitted at once) on three
// worker nodes: enough GPU tasks to queue, tasks that fail, and two tasks
// ended between launch_start and rank_start, so their rank_start lands
// after they reached a final state. With `probe`, the test compares the
// monitor with a full scan right after every tick, and calls
// compute_summary() half-way between ticks, at every completion and right
// after each early end.
struct DdmdSession {
  explicit DdmdSession(bool probe) : probing(probe), session(config()) {
    session.add_task_completion_listener([this](const auto&) {
      if (probing) {
        expect_matches(monitor->compute_summary(), full_scan(session));
      }
      if (++completed < static_cast<int>(session.tasks().size())) return;
      monitor->stop();  // takes a final tick
      ender->stop();
      if (tick_probe) {
        check_tick();
        tick_probe->stop();
      }
      if (between_probe) between_probe->stop();
      session.finalize();
    });
    session.start([this] {
      service = std::make_unique<core::SomaService>(session.network(),
                                                    std::vector<NodeId>{0});
      client = std::make_unique<core::SomaClient>(
          session.network(), 0, 6000, core::Namespace::kWorkflow,
          service->instance(core::Namespace::kWorkflow).ranks);
      monitor = std::make_unique<RpMonitor>(session, *client,
                                            RpMonitorConfig{.period = kPeriod});
      monitor->start();
      if (probing) {
        tick_probe = std::make_unique<sim::PeriodicTask>(
            session.simulation(), kPeriod, [this] { check_tick(); });
        tick_probe->start();
        between_probe = std::make_unique<sim::PeriodicTask>(
            session.simulation(), kPeriod, [this] {
              expect_matches(monitor->compute_summary(), full_scan(session));
              ++between_checks;
            });
        between_probe->start(kPeriod / 2.0);
      }
      submit_pipelines();
      ender = std::make_unique<sim::PeriodicTask>(
          session.simulation(), Duration::milliseconds(50),
          [this] { end_one_in_launch(); });
      ender->start();
    });
    session.run();
  }

  static rp::SessionConfig config() {
    rp::SessionConfig config;
    config.platform = cluster::summit(4);
    config.pilot.nodes = 4;
    config.seed = 11;
    return config;
  }

  void submit_pipelines() {
    workloads::DdmdParams params;
    params.sim_seconds = 40.0;
    params.train_seconds = 30.0;
    params.selection_seconds = 10.0;
    params.agent_seconds = 20.0;
    for (int pipeline = 0; pipeline < 2; ++pipeline) {
      for (const auto& spec : workloads::ddmd_phase_stages(params, 2, 1, 2)) {
        for (auto d : workloads::make_ddmd_stage_tasks(spec, params, pipeline,
                                                       0, 1)) {
          d.failure_probability = 0.3;
          if (spec.stage == workloads::DdmdStage::kSimulation) {
            d.input_staging_mib = 50.0;
          }
          session.submit(std::move(d));
        }
      }
    }
  }

  // Cancel the first task seen between launch_start and rank_start, then
  // stop the second one the same way. A probe looks right away, before
  // rank_start lands.
  void end_one_in_launch() {
    for (const rp::Task& task : session.tasks()) {
      if (task.state() != rp::TaskState::kExecuting ||
          !task.event_time(rp::Event::kLaunchStart) ||
          task.event_time(rp::Event::kRankStart)) {
        continue;
      }
      if (canceled.empty()) {
        canceled = task.uid();
        session.executor().cancel(task.id());
      } else {
        stopped = task.uid();
        session.stop_task(task.id());
        ender->stop();
      }
      if (probing) {
        expect_matches(monitor->compute_summary(), full_scan(session));
      }
      return;
    }
  }

  void check_tick() {
    if (monitor->ticks() == ticks_checked) return;
    ticks_checked = monitor->ticks();
    expect_matches(monitor->last_summary(), full_scan(session));
  }

  static constexpr Duration kPeriod = Duration::seconds(5.0);
  bool probing;
  rp::Session session;
  std::unique_ptr<core::SomaService> service;
  std::unique_ptr<core::SomaClient> client;
  std::unique_ptr<RpMonitor> monitor;
  std::unique_ptr<sim::PeriodicTask> tick_probe, between_probe, ender;
  int completed = 0;
  std::uint64_t ticks_checked = 0;
  int between_checks = 0;
  std::string canceled, stopped;
};

TEST(RpMonitorSummaryTest, FoldedSummaryMatchesFullScanAtEveryTick) {
  const DdmdSession probed(/*probe=*/true);
  const rp::Session& session = probed.session;

  // The run covers what the fold has to get right.
  const auto canceled = session.find_task(probed.canceled);
  const auto stopped = session.find_task(probed.stopped);
  ASSERT_NE(canceled, nullptr);
  ASSERT_NE(stopped, nullptr);
  EXPECT_EQ(canceled->state(), rp::TaskState::kCanceled);
  EXPECT_EQ(stopped->state(), rp::TaskState::kDone);
  ASSERT_TRUE(canceled->event_time(rp::Event::kRankStart));
  EXPECT_GT(*canceled->event_time(rp::Event::kRankStart),
            *canceled->state_entered(rp::TaskState::kCanceled));
  const FullScan end = full_scan(session);
  EXPECT_GT(end.counts.tasks_failed, 1);
  EXPECT_GT(end.counts.tasks_done, 1);

  EXPECT_EQ(probed.ticks_checked, probed.monitor->ticks());
  EXPECT_GT(probed.ticks_checked, 10u);
  EXPECT_GT(probed.between_checks, 10);
  expect_matches(probed.monitor->compute_summary(), end);
}

TEST(RpMonitorSummaryTest, ProbingBetweenTicksLeavesRecordsUnchanged) {
  const DdmdSession plain(/*probe=*/false);
  const DdmdSession probed(/*probe=*/true);
  const auto plain_series =
      plain.service->store_view().series(core::Namespace::kWorkflow,
                                         "rp_monitor");
  const auto probed_series =
      probed.service->store_view().series(core::Namespace::kWorkflow,
                                          "rp_monitor");
  ASSERT_GT(plain_series.size(), 10u);
  ASSERT_EQ(plain_series.size(), probed_series.size());
  for (std::size_t i = 0; i < plain_series.size(); ++i) {
    EXPECT_EQ(plain_series[i]->time, probed_series[i]->time);
    EXPECT_EQ(plain_series[i]->data.pack(), probed_series[i]->data.pack())
        << "record " << i;
  }
}

// ---------- HwMonitor ----------

class HwMonitorTest : public ::testing::Test {
 protected:
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  cluster::Platform platform{simulation, cluster::summit(2)};
};

TEST_F(HwMonitorTest, PublishesSnapshotsWithUtilization) {
  core::SomaService service(network, {0});
  core::SomaClient client(network, 1, 6000, core::Namespace::kHardware,
                          service.instance(core::Namespace::kHardware).ranks);
  HwMonitorConfig config;
  config.period = Duration::seconds(30.0);
  HwMonitor monitor(simulation, platform.node(1), client, Rng{3}, config);

  // Busy the node at 50% for the whole window.
  platform.node(1).allocate_cores(21, "t", 1.0);
  monitor.start(Duration::seconds(30.0));
  simulation.run_until(SimTime::from_seconds(125.0));
  monitor.stop();
  simulation.run();

  EXPECT_EQ(monitor.ticks(), 4u);  // 30, 60, 90, 120
  ASSERT_EQ(monitor.samples().size(), 4u);
  // Window utilization close to 0.5 (plus ~1% background activity).
  for (const auto& sample : monitor.samples()) {
    EXPECT_NEAR(sample.utilization, 0.5, 0.05);
  }

  const auto series =
      service.store_view().series(core::Namespace::kHardware, "cn0001");
  ASSERT_EQ(series.size(), 4u);
  const auto& last = series.back()->data;
  EXPECT_TRUE(last.has_path("cn0001/cpu_utilization"));
  EXPECT_NEAR(last.fetch_existing("cn0001/cpu_utilization").as_float64(), 0.5,
              0.05);
}

TEST_F(HwMonitorTest, UtilizationTracksChanges) {
  core::SomaService service(network, {0});
  core::SomaClient client(network, 1, 6000, core::Namespace::kHardware,
                          service.instance(core::Namespace::kHardware).ranks);
  HwMonitorConfig config;
  config.period = Duration::seconds(10.0);
  HwMonitor monitor(simulation, platform.node(1), client, Rng{3}, config);
  monitor.start(Duration::seconds(10.0));

  // Idle for 30 s, then fully busy.
  std::optional<std::vector<CoreId>> cores;
  simulation.schedule(Duration::seconds(30.0), [&] {
    cores = platform.node(1).allocate_cores(42, "t", 1.0);
  });
  simulation.run_until(SimTime::from_seconds(65.0));
  monitor.stop();

  const auto& samples = monitor.samples();
  ASSERT_GE(samples.size(), 6u);
  EXPECT_LT(samples[1].utilization, 0.1);   // idle window
  EXPECT_GT(samples[4].utilization, 0.85);  // busy window (30-40 s)
}

TEST_F(HwMonitorTest, GpuUtilizationSampled) {
  core::SomaService service(network, {0});
  core::SomaClient client(network, 1, 6000, core::Namespace::kHardware,
                          service.instance(core::Namespace::kHardware).ranks);
  HwMonitorConfig config;
  config.period = Duration::seconds(10.0);
  HwMonitor monitor(simulation, platform.node(1), client, Rng{3}, config);
  monitor.start(Duration::seconds(10.0));

  // 3 of 6 GPUs busy for the whole run.
  platform.node(1).allocate_gpus(3, "t");
  simulation.run_until(SimTime::from_seconds(35.0));
  monitor.stop();

  ASSERT_GE(monitor.samples().size(), 3u);
  for (const auto& sample : monitor.samples()) {
    EXPECT_NEAR(sample.gpu_utilization, 0.5, 1e-9);
  }
  const auto* record =
      service.store_view().latest(core::Namespace::kHardware, "cn0001");
  // The last publish may still be in flight at stop(); drain first.
  simulation.run();
  record = service.store_view().latest(core::Namespace::kHardware, "cn0001");
  ASSERT_NE(record, nullptr);
  EXPECT_NEAR(
      record->data.fetch_existing("cn0001/gpu_utilization").as_float64(), 0.5,
      1e-9);
}

TEST_F(RpMonitorTest, DwellTimesReported) {
  RpMonitorConfig config;
  config.period = Duration::seconds(10.0);
  std::unique_ptr<RpMonitor> monitor;
  session.start([&] {
    start_with_service();
    monitor = std::make_unique<RpMonitor>(session, *client, config);
    monitor->start();
    session.submit(rp::TaskDescription{
        .uid = "t", .ranks = 4, .fixed_duration = Duration::seconds(20.0)});
    session.simulation().schedule(Duration::seconds(40.0), [&] {
      monitor->stop();
      session.finalize();
    });
  });
  session.run();

  const auto& summary = monitor->last_summary();
  // TMGR dwell = the 5 ms TaskManager cost + channel latency (~7 ms).
  EXPECT_GT(summary.mean_tmgr_wait_seconds, 0.0);
  EXPECT_LT(summary.mean_tmgr_wait_seconds, 0.1);
  // Agent dwell includes the scheduler decision (~15 ms median).
  EXPECT_GT(summary.mean_agent_wait_seconds, 0.0);
  EXPECT_LT(summary.mean_agent_wait_seconds, 1.0);
  // Launch overhead: jsrun spawn ~0.36 s + prologue.
  EXPECT_GT(summary.mean_launch_overhead_seconds, 0.1);
  EXPECT_LT(summary.mean_launch_overhead_seconds, 2.0);
}

TEST_F(HwMonitorTest, NoiseFractionFollowsFrequency) {
  core::SomaService service(network, {0});
  core::SomaClient client(network, 1, 6000, core::Namespace::kHardware,
                          service.instance(core::Namespace::kHardware).ranks);
  HwMonitorConfig slow;
  slow.period = Duration::seconds(60.0);
  HwMonitorConfig fast;
  fast.period = Duration::seconds(10.0);
  HwMonitor slow_monitor(simulation, platform.node(0), client, Rng{1}, slow);
  HwMonitor fast_monitor(simulation, platform.node(1), client, Rng{1}, fast);
  EXPECT_NEAR(fast_monitor.noise_fraction(),
              6.0 * slow_monitor.noise_fraction(), 1e-12);
  EXPECT_LT(fast_monitor.noise_fraction(), 0.02);  // small perturbation
}

TEST_F(HwMonitorTest, RequiresHardwareNamespaceClient) {
  core::SomaService service(network, {0});
  core::SomaClient wrong(network, 1, 6000, core::Namespace::kWorkflow,
                         service.instance(core::Namespace::kWorkflow).ranks);
  EXPECT_THROW(HwMonitor(simulation, platform.node(0), wrong, Rng{1}),
               InternalError);
}

}  // namespace
}  // namespace soma::monitors
