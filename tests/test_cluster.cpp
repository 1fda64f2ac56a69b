// Unit tests for the platform/occupancy model and /proc synthesis.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/platform.hpp"
#include "cluster/proc.hpp"
#include "common/error.hpp"
#include "sim/simulation.hpp"

namespace soma::cluster {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  sim::Simulation simulation;
};

TEST_F(ClusterTest, SummitPreset) {
  const PlatformConfig config = summit(10);
  EXPECT_EQ(config.nodes, 10);
  EXPECT_EQ(kNodeCores, 44);
  Platform platform(simulation, config);
  EXPECT_EQ(platform.node(9).usable_cores(), 42);
  EXPECT_EQ(platform.node(9).free_gpus(), 6);
}

TEST_F(ClusterTest, PlatformNodeAccess) {
  Platform platform(simulation, summit(3));
  EXPECT_EQ(platform.node_count(), 3);
  EXPECT_EQ(platform.node(0).hostname(), "cn0000");
  EXPECT_EQ(platform.node(2).hostname(), "cn0002");
  EXPECT_THROW(platform.node(3), InternalError);
  EXPECT_THROW(platform.node(-1), InternalError);
}

TEST_F(ClusterTest, CoreAllocationAndRelease) {
  Platform platform(simulation, summit(1));
  auto& node = platform.node(0);
  EXPECT_EQ(node.free_cores(), 42);

  auto cores = node.allocate_cores(10, "task.a");
  ASSERT_TRUE(cores.has_value());
  EXPECT_EQ(cores->size(), 10u);
  EXPECT_EQ(node.busy_cores(), 10);
  EXPECT_EQ(node.free_cores(), 32);

  node.release_cores(*cores, "task.a");
  EXPECT_EQ(node.free_cores(), 42);
}

TEST_F(ClusterTest, OverAllocationRefusedAtomically) {
  Platform platform(simulation, summit(1));
  auto& node = platform.node(0);
  auto a = node.allocate_cores(40, "a");
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(node.allocate_cores(3, "b").has_value());
  EXPECT_EQ(node.busy_cores(), 40);  // nothing partially claimed
}

TEST_F(ClusterTest, WrongOwnerReleaseThrows) {
  Platform platform(simulation, summit(1));
  auto& node = platform.node(0);
  auto cores = node.allocate_cores(2, "owner");
  EXPECT_THROW(node.release_cores(*cores, "intruder"), InternalError);
}

TEST_F(ClusterTest, GpuAllocation) {
  Platform platform(simulation, summit(1));
  auto& node = platform.node(0);
  auto gpus = node.allocate_gpus(4, "task.g");
  ASSERT_TRUE(gpus.has_value());
  EXPECT_EQ(node.free_gpus(), 2);
  EXPECT_FALSE(node.allocate_gpus(3, "x").has_value());
  node.release_gpus(*gpus, "task.g");
  EXPECT_EQ(node.free_gpus(), 6);
}

TEST_F(ClusterTest, RamTracking) {
  Platform platform(simulation, summit(1));
  auto& node = platform.node(0);
  const double total = node.available_ram_mib();
  node.claim_ram(1024.0);
  EXPECT_DOUBLE_EQ(node.available_ram_mib(), total - 1024.0);
  node.release_ram(1024.0);
  EXPECT_DOUBLE_EQ(node.available_ram_mib(), total);
}

TEST_F(ClusterTest, UtilizationIntegratesActivity) {
  Platform platform(simulation, summit(1));
  auto& node = platform.node(0);

  // 21 cores at full activity = 50% of 42 cores.
  auto cores = node.allocate_cores(21, "t", 1.0);
  EXPECT_DOUBLE_EQ(node.utilization_now(), 0.5);

  simulation.schedule(Duration::seconds(10.0), [&] {
    node.release_cores(*cores, "t");
  });
  simulation.run();
  // 21 cores * 10 s = 210 busy core-seconds.
  EXPECT_NEAR(node.busy_core_seconds(), 210.0, 1e-9);
}

TEST_F(ClusterTest, ActivityWeightsUtilization) {
  Platform platform(simulation, summit(1));
  auto& node = platform.node(0);
  node.allocate_cores(42, "gpu-task", 0.2);  // all cores, barely used
  EXPECT_NEAR(node.utilization_now(), 0.2, 1e-12);
}

TEST_F(ClusterTest, PerCoreBusySeconds) {
  Platform platform(simulation, summit(1));
  auto& node = platform.node(0);
  auto cores = node.allocate_cores(1, "t", 1.0);
  simulation.schedule(Duration::seconds(3.0), [&] {
    node.release_cores(*cores, "t");
  });
  simulation.run();
  EXPECT_NEAR(node.core_busy_seconds((*cores)[0]), 3.0, 1e-9);
  // An unused core stays at zero.
  EXPECT_DOUBLE_EQ(node.core_busy_seconds(41), 0.0);
}

TEST_F(ClusterTest, GpuBusySecondsIntegrate) {
  Platform platform(simulation, summit(1));
  auto& node = platform.node(0);
  EXPECT_DOUBLE_EQ(node.gpu_utilization_now(), 0.0);

  auto gpus = node.allocate_gpus(3, "t");
  EXPECT_DOUBLE_EQ(node.gpu_utilization_now(), 0.5);
  simulation.schedule(Duration::seconds(10.0), [&] {
    node.release_gpus(*gpus, "t");
  });
  simulation.run();
  // 3 GPUs x 10 s.
  EXPECT_NEAR(node.busy_gpu_seconds(), 30.0, 1e-9);
  EXPECT_DOUBLE_EQ(node.gpu_utilization_now(), 0.0);
  // Integral frozen after release.
  simulation.schedule(Duration::seconds(5.0), [] {});
  simulation.run();
  EXPECT_NEAR(node.busy_gpu_seconds(), 30.0, 1e-9);
}

// ---------- /proc synthesis ----------

TEST_F(ClusterTest, ProcSnapshotShape) {
  Platform platform(simulation, summit(1));
  auto& node = platform.node(0);
  node.process_started();
  Rng rng(1);
  const datamodel::Node snapshot =
      make_proc_snapshot(node, SimTime::from_seconds(100.0), rng);

  ASSERT_TRUE(snapshot.has_child("cn0000"));
  const auto& host = snapshot.fetch_existing("cn0000");
  ASSERT_EQ(host.number_of_children(), 1u);  // one timestamp block
  const auto& at = host.child_at(0);
  EXPECT_EQ(at.fetch_existing("Uptime").as_int64(), 100);
  EXPECT_EQ(at.fetch_existing("Num Processes").as_int64(), 3);  // 2 base + 1
  EXPECT_GT(at.fetch_existing("Available RAM").as_int64(), 0);
  // Aggregate + per-core stat rows.
  const auto& stat = at.fetch_existing("stat");
  EXPECT_TRUE(stat.has_child("cpu"));
  EXPECT_TRUE(stat.has_child("cpu0"));
  EXPECT_TRUE(stat.has_child("cpu41"));
  EXPECT_EQ(stat.fetch_existing("cpu").as_int64_array().size(), 6u);
}

TEST_F(ClusterTest, ProcJiffiesReflectOccupancy) {
  Platform platform(simulation, summit(1));
  auto& node = platform.node(0);
  Rng rng(1);

  node.allocate_cores(21, "t", 1.0);  // 50% busy
  simulation.schedule(Duration::seconds(100.0), [] {});
  simulation.run();

  const datamodel::Node before = make_proc_snapshot(
      node, SimTime::zero(), rng);  // boot-time zeros equivalent
  const datamodel::Node after =
      make_proc_snapshot(node, simulation.now(), rng);
  const auto& cpu =
      after.fetch_existing("cn0000").child_at(0).fetch_existing("stat/cpu");
  (void)before;
  const double utilization = utilization_from_stat(
      std::vector<std::int64_t>(6, 0), cpu.as_int64_array());
  EXPECT_NEAR(utilization, 0.5, 0.03);
}

// The snapshot layout as built by name lookups, one child() per key: the
// reference make_proc_snapshot's appends must pack identically to.
datamodel::Node lookup_built_snapshot(const ComputeNode& node, SimTime now,
                                      Rng& rng) {
  auto stat_row = [&](double busy, double total, double background) {
    const double user = busy * (0.92 + 0.02 * rng.uniform());
    auto jiffies = [&](double seconds) {
      return static_cast<std::int64_t>(seconds * kJiffiesPerSecond);
    };
    return std::vector<std::int64_t>{
        jiffies(user),
        jiffies(0.0),
        jiffies(busy - user + background * 0.5),
        jiffies(std::max(0.0, total - busy - background)),
        jiffies(background * 0.4),
        jiffies(background * 0.1)};
  };
  datamodel::Node snapshot;
  datamodel::Node& at =
      snapshot[node.hostname()][std::to_string(now.nanos())];
  const double uptime = now.to_seconds();
  at["Uptime"].set(static_cast<std::int64_t>(uptime));
  at["Num Processes"].set(static_cast<std::int64_t>(
      kBaselineProcesses + node.num_processes()));
  at["Available RAM"].set(static_cast<std::int64_t>(node.available_ram_mib()));
  datamodel::Node& stat = at["stat"];
  const double background = uptime * kBackgroundActivity;
  stat["cpu"].set(stat_row(node.busy_core_seconds(),
                           uptime * node.usable_cores(),
                           background * node.usable_cores()));
  for (int c = 0; c < node.usable_cores(); ++c) {
    std::string name = "cpu";
    name += std::to_string(c);
    stat[name].set(stat_row(node.core_busy_seconds(static_cast<CoreId>(c)),
                            uptime, background));
  }
  return snapshot;
}

TEST_F(ClusterTest, ProcSnapshotPacksLikeLookupBuiltOne) {
  Platform platform(simulation, summit(1));
  auto& node = platform.node(0);
  ASSERT_EQ(node.usable_cores(), 42);
  node.process_started();
  node.allocate_cores(13, "a", 0.9);
  node.allocate_cores(4, "b", 0.2);
  node.claim_ram(2048.0);
  simulation.schedule(Duration::seconds(37.5), [] {});
  simulation.run();

  for (const SimTime now : {SimTime::zero(), simulation.now()}) {
    Rng appended_rng(7);
    Rng looked_up_rng(7);
    EXPECT_EQ(make_proc_snapshot(node, now, appended_rng).pack(),
              lookup_built_snapshot(node, now, looked_up_rng).pack());
  }
}

TEST_F(ClusterTest, UtilizationFromStatDiffs) {
  // busy delta 30, idle delta 70 -> 30%.
  const std::vector<std::int64_t> before{100, 0, 50, 1000, 10, 5};
  const std::vector<std::int64_t> after{120, 0, 55, 1070, 13, 7};
  EXPECT_NEAR(utilization_from_stat(before, after), 0.30, 1e-12);
  // No elapsed time -> 0.
  EXPECT_DOUBLE_EQ(utilization_from_stat(before, before), 0.0);
  EXPECT_THROW(utilization_from_stat({1, 2}, {3, 4}), InternalError);
}

}  // namespace
}  // namespace soma::cluster
