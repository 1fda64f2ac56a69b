// Failure-injection tests: crashing tasks, walltime kills, and the
// observability stack's view of failures.
#include <gtest/gtest.h>

#include "experiments/deployment.hpp"
#include "monitors/rp_monitor.hpp"
#include "rp/session.hpp"

namespace soma::rp {
namespace {

SessionConfig session_config(std::uint64_t seed = 77) {
  SessionConfig config;
  config.platform = cluster::summit(3);
  config.pilot.nodes = 3;
  config.seed = seed;
  return config;
}

TEST(FailureTest, CrashingTaskEndsFailed) {
  Session session(session_config());
  Task* task = nullptr;
  session.start([&] {
    TaskDescription d;
    d.uid = "doomed";
    d.ranks = 4;
    d.fixed_duration = Duration::seconds(100.0);
    d.failure_probability = 1.0;
    task = &session.submit(d);
  });
  session.run();

  EXPECT_EQ(task->state(), TaskState::kFailed);
  // Crash happens strictly inside the nominal duration.
  const Duration ran = *task->rank_duration();
  EXPECT_GT(ran, Duration::zero());
  EXPECT_LT(ran, Duration::seconds(100.0));
  // The event sequence still closes out (launcher teardown observed).
  EXPECT_TRUE(task->event_time(Event::kExecStop).has_value());
  EXPECT_TRUE(task->event_time(Event::kLaunchStop).has_value());
}

TEST(FailureTest, FailedTaskReleasesResources) {
  Session session(session_config());
  session.start([&] {
    TaskDescription d;
    d.uid = "doomed";
    d.ranks = 8;
    d.gpus_per_rank = 0;
    d.cores_per_rank = 2;
    d.fixed_duration = Duration::seconds(50.0);
    d.failure_probability = 1.0;
    session.submit(d);
  });
  session.run();

  for (NodeId node : session.worker_node_ids()) {
    EXPECT_EQ(session.platform().node(node).busy_cores(), 0);
    EXPECT_EQ(session.platform().node(node).busy_gpus(), 0);
  }
}

TEST(FailureTest, FailureUnblocksWaitlistedTasks) {
  Session session(session_config());
  Task* blocked = nullptr;
  session.start([&] {
    TaskDescription hog;
    hog.uid = "hog";
    hog.ranks = 84;  // both worker nodes
    hog.fixed_duration = Duration::seconds(1000.0);
    hog.failure_probability = 1.0;
    session.submit(hog);

    TaskDescription next;
    next.uid = "next";
    next.ranks = 84;
    next.fixed_duration = Duration::seconds(10.0);
    blocked = &session.submit(next);
  });
  session.run();
  // The crash freed the machine; the waitlisted task ran to completion.
  EXPECT_EQ(blocked->state(), TaskState::kDone);
}

TEST(FailureTest, CompletionListenerSeesFailures) {
  Session session(session_config());
  int done = 0, failed = 0;
  session.add_task_completion_listener(
      [&](const Task& task) {
        if (task.state() == TaskState::kFailed) ++failed;
        if (task.state() == TaskState::kDone) ++done;
      });
  session.start([&] {
    for (int i = 0; i < 4; ++i) {
      TaskDescription d;
      d.ranks = 4;
      d.fixed_duration = Duration::seconds(20.0);
      d.failure_probability = i % 2 == 0 ? 1.0 : 0.0;
      session.submit(d);
    }
  });
  session.run();
  EXPECT_EQ(failed, 2);
  EXPECT_EQ(done, 2);
}

TEST(FailureTest, FailureRateIsStatistical) {
  Session session(session_config());
  int failed = 0;
  const int total = 200;
  session.add_task_completion_listener(
      [&](const Task& task) {
        if (task.state() == TaskState::kFailed) ++failed;
      });
  session.start([&] {
    for (int i = 0; i < total; ++i) {
      TaskDescription d;
      d.ranks = 1;
      d.fixed_duration = Duration::seconds(1.0);
      d.failure_probability = 0.3;
      session.submit(d);
    }
  });
  session.run();
  EXPECT_NEAR(static_cast<double>(failed) / total, 0.3, 0.1);
}

TEST(FailureTest, RpMonitorCountsFailures) {
  Session session(session_config());
  std::unique_ptr<core::SomaService> service;
  std::unique_ptr<core::SomaClient> client;
  std::unique_ptr<monitors::RpMonitor> monitor;
  session.start([&] {
    service = std::make_unique<core::SomaService>(session.network(),
                                                  std::vector<NodeId>{0});
    client = std::make_unique<core::SomaClient>(
        session.network(), 0, 6000, core::Namespace::kWorkflow,
        service->instance(core::Namespace::kWorkflow).ranks);
    monitors::RpMonitorConfig config;
    config.period = Duration::seconds(10.0);
    monitor = std::make_unique<monitors::RpMonitor>(session, *client, config);
    monitor->start();

    TaskDescription d;
    d.uid = "doomed";
    d.ranks = 2;
    d.fixed_duration = Duration::seconds(30.0);
    d.failure_probability = 1.0;
    session.submit(d);
    session.simulation().schedule(Duration::seconds(60.0), [&] {
      monitor->stop();
      session.finalize();
    });
  });
  session.run();
  EXPECT_EQ(monitor->last_summary().tasks_failed, 1);
  EXPECT_EQ(monitor->last_summary().tasks_done, 0);
}

TEST(FailureTest, ExperimentSurvivesFailures) {
  // A full deployment where a quarter of the app tasks crash: the workflow
  // must still drain, monitors must still shut down cleanly.
  Session session(session_config());
  std::unique_ptr<experiments::SomaDeployment> deployment;
  int outstanding = 0;
  session.add_task_completion_listener(
      [&](const Task& task) {
        if (task.description().kind != TaskKind::kApplication) return;
        if (--outstanding == 0) {
          deployment->shutdown();
          session.finalize();
        }
      });
  session.start([&] {
    experiments::DeploymentConfig config;
    config.service_nodes = session.agent_node_ids();
    deployment = std::make_unique<experiments::SomaDeployment>(session, config);
    deployment->deploy([&] {
      for (int i = 0; i < 12; ++i) {
        TaskDescription d;
        d.ranks = 8;
        d.fixed_duration = Duration::seconds(30.0);
        d.failure_probability = 0.25;
        ++outstanding;
        session.submit(d);
      }
    });
  });
  session.run();
  EXPECT_EQ(outstanding, 0);
  // Every worker core released at the end.
  for (NodeId node : session.worker_node_ids()) {
    EXPECT_EQ(session.platform().node(node).busy_cores(), 0);
  }
}

TEST(FailureTest, WalltimeKillFinalizesSession) {
  SessionConfig config = session_config();
  config.pilot.runtime = Duration::seconds(120.0);  // very short walltime
  Session session(config);
  Task* task = nullptr;
  session.start([&] {
    TaskDescription d;
    d.uid = "long";
    d.ranks = 1;
    d.fixed_duration = Duration::seconds(10000.0);
    task = &session.submit(d);
  });
  testing::internal::CaptureStderr();
  session.run();
  // The pilot hit its walltime; the session drained without hanging and the
  // long task never completed. The batch system and the session each warn.
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[WARN] batch job 1 hit walltime limit\n"
            "[WARN] pilot hit walltime; finalizing session\n");
  EXPECT_NE(task->state(), TaskState::kDone);
}

}  // namespace
}  // namespace soma::rp
