// Unit tests for the batch-system model.
#include <gtest/gtest.h>

#include <optional>

#include "batch/batch.hpp"
#include "common/error.hpp"

namespace soma::batch {
namespace {

class BatchTest : public ::testing::Test {
 protected:
  sim::Simulation simulation;
  Rng rng{7};
};

TEST_F(BatchTest, GrantsAfterQueueWait) {
  BatchSystem batch(simulation, 10, rng);
  std::optional<Allocation> granted;
  batch.submit(JobRequest{.nodes = 4},
               [&](const Allocation& a) { granted = a; });
  simulation.run_until(SimTime::from_seconds(60.0));
  ASSERT_TRUE(granted.has_value());
  EXPECT_EQ(granted->nodes.size(), 4u);
  EXPECT_GT(granted->granted_at, SimTime::zero());
  EXPECT_EQ(batch.free_nodes(), 6);
}

TEST_F(BatchTest, ImpossibleRequestThrows) {
  BatchSystem batch(simulation, 4, rng);
  EXPECT_THROW(batch.submit(JobRequest{.nodes = 5}, [](const Allocation&) {}),
               ConfigError);
  EXPECT_THROW(batch.submit(JobRequest{.nodes = 0}, [](const Allocation&) {}),
               ConfigError);
}

TEST_F(BatchTest, FifoBlocksUntilRelease) {
  BatchSystem batch(simulation, 4, rng);
  std::optional<Allocation> first, second;
  const JobId job1 = batch.submit(JobRequest{.nodes = 3},
                                  [&](const Allocation& a) { first = a; });
  batch.submit(JobRequest{.nodes = 3},
               [&](const Allocation& a) { second = a; });
  simulation.run_until(SimTime::from_seconds(60.0));
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(second.has_value());  // only 1 node free
  EXPECT_EQ(batch.queued_jobs(), 1u);

  batch.release(job1);
  simulation.run_until(SimTime::from_seconds(120.0));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->nodes.size(), 3u);
}

TEST_F(BatchTest, NodesReusedAfterRelease) {
  BatchSystem batch(simulation, 2, rng);
  std::optional<Allocation> a1, a2;
  const JobId job1 =
      batch.submit(JobRequest{.nodes = 2}, [&](const Allocation& a) { a1 = a; });
  simulation.run_until(SimTime::from_seconds(60.0));
  batch.release(job1);
  batch.submit(JobRequest{.nodes = 2}, [&](const Allocation& a) { a2 = a; });
  simulation.run_until(SimTime::from_seconds(120.0));
  ASSERT_TRUE(a2.has_value());
  EXPECT_EQ(a2->nodes, a1->nodes);
}

TEST_F(BatchTest, WalltimeCallbackFires) {
  BatchSystem batch(simulation, 2, rng);
  bool expired = false;
  batch.submit(
      JobRequest{.nodes = 2, .walltime = Duration::seconds(100.0)},
      [](const Allocation&) {},
      [&](JobId) { expired = true; });
  testing::internal::CaptureStderr();
  simulation.run();
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[WARN] batch job 1 hit walltime limit\n");
  EXPECT_TRUE(expired);
  EXPECT_EQ(batch.free_nodes(), 2);  // nodes reclaimed
}

TEST_F(BatchTest, ReleaseBeforeWalltimeCancelsIt) {
  BatchSystem batch(simulation, 2, rng);
  bool expired = false;
  std::optional<JobId> job;
  job = batch.submit(
      JobRequest{.nodes = 2, .walltime = Duration::seconds(100.0)},
      [&](const Allocation& a) {
        // Release shortly after the grant.
        simulation.schedule(Duration::seconds(10.0),
                            [&, id = a.job] { batch.release(id); });
      },
      [&](JobId) { expired = true; });
  simulation.run();
  EXPECT_FALSE(expired);
  EXPECT_LT(simulation.now().to_seconds(), 100.0);
}

TEST_F(BatchTest, ReleaseIsIdempotent) {
  BatchSystem batch(simulation, 2, rng);
  JobId job = batch.submit(JobRequest{.nodes = 1}, [](const Allocation&) {});
  simulation.run_until(SimTime::from_seconds(60.0));
  batch.release(job);
  batch.release(job);  // no-op
  batch.release(999);  // unknown id, no-op
  EXPECT_EQ(batch.free_nodes(), 2);
}

TEST_F(BatchTest, AllocationDeadlineMatchesWalltime) {
  BatchSystem batch(simulation, 1, rng);
  std::optional<Allocation> granted;
  batch.submit(JobRequest{.nodes = 1, .walltime = Duration::minutes(30)},
               [&](const Allocation& a) { granted = a; });
  simulation.run_until(SimTime::from_seconds(3600.0));
  ASSERT_TRUE(granted.has_value());
  EXPECT_EQ(granted->deadline - granted->granted_at, Duration::minutes(30));
}

TEST_F(BatchTest, QueueWaitIsSeeded) {
  sim::Simulation sim_a, sim_b;
  BatchSystem batch_a(sim_a, 1, Rng{42});
  BatchSystem batch_b(sim_b, 1, Rng{42});
  SimTime grant_a, grant_b;
  batch_a.submit(JobRequest{.nodes = 1},
                 [&](const Allocation& a) { grant_a = a.granted_at; });
  batch_b.submit(JobRequest{.nodes = 1},
                 [&](const Allocation& a) { grant_b = a.granted_at; });
  sim_a.run_until(SimTime::from_seconds(60.0));
  sim_b.run_until(SimTime::from_seconds(60.0));
  EXPECT_EQ(grant_a, grant_b);
}

}  // namespace
}  // namespace soma::batch
