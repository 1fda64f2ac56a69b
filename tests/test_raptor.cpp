// Tests for the RAPTOR-like function-task subsystem.
#include <gtest/gtest.h>

#include "raptor/raptor.hpp"

namespace soma::raptor {
namespace {

rp::SessionConfig session_config() {
  rp::SessionConfig config;
  config.platform = cluster::summit(3);
  config.pilot.nodes = 3;
  config.seed = 123;
  return config;
}

TEST(RaptorTest, ExecutesSubmittedFunctions) {
  rp::Session session(session_config());
  RaptorMaster master(session, RaptorConfig{.workers = 2,
                                            .cores_per_worker = 4});
  std::vector<FunctionResult> results;
  session.start([&] {
    master.start([&] {
      master.submit_many(20, Duration::milliseconds(500),
                         [&](const FunctionResult& result) {
                           results.push_back(result);
                         });
      session.simulation().schedule(Duration::seconds(60.0), [&] {
        master.shutdown();
        session.finalize();
      });
    });
  });
  session.run();

  ASSERT_EQ(results.size(), 20u);
  EXPECT_EQ(master.completed(), 20u);
  // Both workers participated.
  bool saw_worker0 = false, saw_worker1 = false;
  for (const auto& result : results) {
    if (result.worker == 0) saw_worker0 = true;
    if (result.worker == 1) saw_worker1 = true;
    EXPECT_NEAR((result.finished - result.started).to_seconds(), 0.5, 1e-9);
  }
  EXPECT_TRUE(saw_worker0);
  EXPECT_TRUE(saw_worker1);
}

TEST(RaptorTest, ConcurrencyBoundedBySlots) {
  rp::Session session(session_config());
  // 1 worker x 2 slots, 6 functions of 10 s each -> 3 serial waves = ~30 s.
  RaptorMaster master(session,
                      RaptorConfig{.workers = 1, .cores_per_worker = 2});
  SimTime first_start, last_finish;
  int count = 0;
  session.start([&] {
    master.start([&] {
      master.submit_many(6, Duration::seconds(10.0),
                         [&](const FunctionResult& result) {
                           if (count == 0) first_start = result.started;
                           last_finish = result.finished;
                           if (++count == 6) {
                             master.shutdown();
                             session.finalize();
                           }
                         });
    });
  });
  session.run();
  EXPECT_EQ(count, 6);
  EXPECT_NEAR((last_finish - first_start).to_seconds(), 30.0, 0.5);
}

TEST(RaptorTest, SubmitBeforeReadyIsBuffered) {
  rp::Session session(session_config());
  RaptorMaster master(session, RaptorConfig{.workers = 1});
  int done = 0;
  session.start([&] {
    master.start(nullptr);
    // Submit immediately: workers are still being scheduled.
    master.submit_many(3, Duration::seconds(1.0),
                       [&](const FunctionResult&) {
                         if (++done == 3) {
                           master.shutdown();
                           session.finalize();
                         }
                       });
  });
  session.run();
  EXPECT_EQ(done, 3);
}

TEST(RaptorTest, WorkersOccupyRpResources) {
  rp::Session session(session_config());
  RaptorConfig config{.workers = 2, .cores_per_worker = 8};
  RaptorMaster master(session, config);
  int busy_during = 0;
  session.start([&] {
    master.start([&] {
      int total = 0;
      for (NodeId node : session.worker_node_ids()) {
        total += session.platform().node(node).busy_cores();
      }
      busy_during = total;
      master.shutdown();
      session.finalize();
    });
  });
  session.run();
  // 2 workers x 8 cores + 1 master core.
  EXPECT_EQ(busy_during, 17);
  // Shutdown released everything.
  for (NodeId node : session.worker_node_ids()) {
    EXPECT_EQ(session.platform().node(node).busy_cores(), 0);
  }
}

TEST(RaptorTest, ThroughputBeatsExecutableTaskPath) {
  // The subsystem's reason to exist: many small "function" units through
  // RAPTOR vs the same units as individual RP tasks.
  const int units = 200;
  const Duration unit = Duration::milliseconds(100);

  // RAPTOR path.
  rp::Session raptor_session(session_config());
  RaptorMaster master(raptor_session,
                      RaptorConfig{.workers = 4, .cores_per_worker = 8});
  int raptor_done = 0;
  master.submit_many(units, unit, [&](const FunctionResult&) {
    if (++raptor_done == units) {
      master.shutdown();
      raptor_session.finalize();
    }
  });
  SimTime raptor_begin, raptor_end;
  raptor_session.start([&] {
    raptor_begin = raptor_session.simulation().now();
    master.start(nullptr);
  });
  raptor_session.run();
  raptor_end = raptor_session.simulation().now();

  // Executable-task path: same units as RP tasks.
  rp::Session task_session(session_config());
  int tasks_done = 0;
  SimTime tasks_begin, tasks_end;
  task_session.add_task_completion_listener(
      [&](const rp::Task&) {
        if (++tasks_done == units) task_session.finalize();
      });
  task_session.start([&] {
    tasks_begin = task_session.simulation().now();
    for (int i = 0; i < units; ++i) {
      rp::TaskDescription d;
      d.ranks = 1;
      d.fixed_duration = unit;
      task_session.submit(d);
    }
  });
  task_session.run();
  tasks_end = task_session.simulation().now();

  const double raptor_span = (raptor_end - raptor_begin).to_seconds();
  const double task_span = (tasks_end - tasks_begin).to_seconds();
  EXPECT_EQ(raptor_done, units);
  EXPECT_EQ(tasks_done, units);
  // "Ravenous throughput": well over 2x faster end to end.
  EXPECT_LT(raptor_span * 2.0, task_span);
}

TEST(RaptorTest, InvalidConfigRejected) {
  rp::Session session(session_config());
  EXPECT_THROW(RaptorMaster(session, RaptorConfig{.workers = 0}),
               InternalError);
  EXPECT_THROW(
      RaptorMaster(session, RaptorConfig{.workers = 1, .cores_per_worker = 0}),
      InternalError);
}

}  // namespace
}  // namespace soma::raptor
