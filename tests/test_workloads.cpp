// Unit + property tests for the workload models (OpenFOAM, DDMD mini-app).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "workloads/ddmd.hpp"
#include "workloads/openfoam.hpp"

namespace soma::workloads {
namespace {

rp::Placement single_node_placement(int ranks, NodeId node = 0) {
  rp::Placement placement;
  for (int r = 0; r < ranks; ++r) {
    placement.ranks.push_back(
        rp::RankPlacement{.node = node, .cores = {static_cast<CoreId>(r)}});
  }
  return placement;
}

rp::Placement spread_placement(int ranks, int nodes) {
  rp::Placement placement;
  for (int r = 0; r < ranks; ++r) {
    placement.ranks.push_back(rp::RankPlacement{
        .node = static_cast<NodeId>(r % nodes), .cores = {static_cast<CoreId>(r)}});
  }
  return placement;
}

// ---------- OpenFOAM ----------

TEST(OpenFoamTest, StrongScalingShape) {
  OpenFoamModel model(nullptr);
  const double t20 = model.ideal_seconds(20);
  const double t41 = model.ideal_seconds(41);
  const double t82 = model.ideal_seconds(82);
  const double t164 = model.ideal_seconds(164);
  // Fig. 4: clear gains up to 82 ranks, little beyond ("limited benefit to
  // scaling beyond two nodes").
  EXPECT_GT(t20, t41);
  EXPECT_GT(t41, t82);
  const double gain_41_82 = t41 - t82;
  const double gain_82_164 = t82 - t164;
  EXPECT_LT(gain_82_164, 0.35 * gain_41_82);
}

TEST(OpenFoamTest, IdealTimePositiveAndFiniteAcrossRange) {
  OpenFoamModel model(nullptr);
  for (int ranks : {1, 2, 10, 100, 1000}) {
    const double t = model.ideal_seconds(ranks);
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 1e5);
  }
}

TEST(OpenFoamTest, SampleDurationIsNoisyButCentered) {
  OpenFoamModel model(nullptr);
  rp::TaskDescription task{.uid = "t", .ranks = 41};
  const auto placement = single_node_placement(41);
  Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) {
    samples.push_back(
        model.sample_duration(task, placement, rng).to_seconds());
  }
  const Summary s = summarize(samples);
  const double expected =
      model.ideal_seconds(41) * model.contention_multiplier(placement);
  EXPECT_NEAR(s.median, expected, expected * 0.05);
  EXPECT_GT(s.stddev, 0.0);
}

TEST(OpenFoamTest, SelfContentionPenalizesPacking) {
  OpenFoamModel model(nullptr);  // no platform: self-density only
  const double packed =
      model.contention_multiplier(single_node_placement(40));
  const double spread = model.contention_multiplier(spread_placement(40, 5));
  EXPECT_GT(packed, spread);
}

TEST(OpenFoamTest, CrossNodePenaltyExists) {
  // Two ranks on one node against two ranks on each of four nodes: the
  // self-density is equal, so only the cross-node term differs.
  OpenFoamModel model(nullptr);
  const double one = model.contention_multiplier(single_node_placement(2));
  const double four = model.contention_multiplier(spread_placement(8, 4));
  EXPECT_GT(four, one);
  EXPECT_NEAR(four - one, kCrossNodePenalty * 3.0, 1e-12);
}

TEST(OpenFoamTest, OtherTaskContentionReadsPlatform) {
  sim::Simulation simulation;
  cluster::Platform platform(simulation, cluster::summit(1));
  OpenFoamModel model(&platform);
  const auto placement = single_node_placement(10);

  const double idle_node = model.contention_multiplier(placement);
  platform.node(0).allocate_cores(30, "other-task");
  const double busy_node = model.contention_multiplier(placement);
  EXPECT_GT(busy_node, idle_node);
}

TEST(OpenFoamTest, RankBreakdownSumsToTotal) {
  OpenFoamModel model(nullptr);
  const double total = 120.0;
  for (int rank = 0; rank < 164; ++rank) {
    const auto b = model.rank_breakdown(rank, 164, total);
    EXPECT_NEAR(b.total(), total, 1e-9) << "rank " << rank;
    EXPECT_GE(b.compute, 0.0);
    EXPECT_GE(b.mpi_recv, 0.0);
    EXPECT_GE(b.mpi_waitall, 0.0);
    EXPECT_GE(b.mpi_allreduce, 0.0);
  }
}

TEST(OpenFoamTest, RankBreakdownShape) {
  OpenFoamModel model(nullptr);
  const double total = 100.0;
  const auto rank0 = model.rank_breakdown(0, 164, total);
  const auto mid = model.rank_breakdown(82, 164, total);
  // Interior ranks compute more; boundary ranks wait more (Fig. 5).
  EXPECT_GT(mid.compute, rank0.compute);
  // Rank 0 skews to MPI_Waitall.
  EXPECT_GT(rank0.mpi_waitall, mid.mpi_waitall);
  // Communication is a substantial share everywhere.
  EXPECT_GT((mid.mpi_recv + mid.mpi_waitall) / total, 0.2);
}

TEST(OpenFoamTest, RankBreakdownBoundsChecked) {
  OpenFoamModel model(nullptr);
  EXPECT_THROW(model.rank_breakdown(164, 164, 10.0), InternalError);
  EXPECT_THROW(model.rank_breakdown(-1, 164, 10.0), InternalError);
  EXPECT_THROW(model.ideal_seconds(0), InternalError);
}

TEST(OpenFoamTest, SingleRankBreakdownWellDefined) {
  OpenFoamModel model(nullptr);
  const auto b = model.rank_breakdown(0, 1, 50.0);
  EXPECT_NEAR(b.total(), 50.0, 1e-9);
}

// Property: for any rank count, per-rank totals are equal (TAU samples the
// same wall time on every rank) and MPI fraction is within (0, 1).
class OpenFoamBreakdownProperty : public ::testing::TestWithParam<int> {};

TEST_P(OpenFoamBreakdownProperty, ConsistentAcrossRanks) {
  OpenFoamModel model(nullptr);
  const int ranks = GetParam();
  const double total = 200.0;
  for (int r = 0; r < ranks; ++r) {
    const auto b = model.rank_breakdown(r, ranks, total);
    EXPECT_NEAR(b.total(), total, 1e-9);
    const double mpi = b.mpi_recv + b.mpi_waitall + b.mpi_allreduce;
    EXPECT_GT(mpi, 0.0);
    EXPECT_LT(mpi, total);
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, OpenFoamBreakdownProperty,
                         ::testing::Values(1, 2, 20, 41, 82, 164));

// ---------- DDMD ----------

TEST(DdmdTest, StageNames) {
  EXPECT_EQ(to_string(DdmdStage::kSimulation), "sim");
  EXPECT_EQ(to_string(DdmdStage::kTraining), "train");
  EXPECT_EQ(to_string(DdmdStage::kSelection), "select");
  EXPECT_EQ(to_string(DdmdStage::kAgent), "agent");
}

TEST(DdmdTest, GpuStagesInsensitiveToCores) {
  DdmdParams params;
  DdmdStageModel sim_model(DdmdStage::kSimulation, params);
  const double t1 = sim_model.ideal_seconds(1);
  const double t7 = sim_model.ideal_seconds(7);
  // Paper Fig. 9 finding: "the effect of using fewer CPU cores per task was
  // minimal" — within the configured sensitivity.
  EXPECT_GT(t1, t7);
  EXPECT_LT((t1 - t7) / t7, params.cpu_core_sensitivity + 1e-9);
}

TEST(DdmdTest, TrainingParallelizes) {
  DdmdParams params;
  DdmdStageModel one(DdmdStage::kTraining, params, 1);
  DdmdStageModel four(DdmdStage::kTraining, params, 4);
  EXPECT_LT(four.ideal_seconds(7), one.ideal_seconds(7));
  // ...but not perfectly: MPI_Reduce sync overhead.
  EXPECT_GT(four.ideal_seconds(7), one.ideal_seconds(7) / 4.0);
}

TEST(DdmdTest, SelectionScalesWithCores) {
  DdmdParams params;
  DdmdStageModel select(DdmdStage::kSelection, params);
  EXPECT_GT(select.ideal_seconds(1), select.ideal_seconds(4));
}

TEST(DdmdTest, StageTaskFactory) {
  DdmdParams params;
  const DdmdStageSpec spec{DdmdStage::kSimulation, 12, 3, 1};
  const auto tasks = make_ddmd_stage_tasks(spec, params, 7, 2, 1);
  ASSERT_EQ(tasks.size(), 12u);
  EXPECT_EQ(tasks[0].uid, "p007.ph2.sim.00");
  EXPECT_EQ(tasks[11].uid, "p007.ph2.sim.11");
  EXPECT_EQ(tasks[0].cores_per_rank, 3);
  EXPECT_EQ(tasks[0].gpus_per_rank, 1);
  EXPECT_DOUBLE_EQ(tasks[0].cpu_activity, params.gpu_stage_cpu_activity);
  EXPECT_NE(tasks[0].model, nullptr);
}

TEST(DdmdTest, SelectionIsCpuStage) {
  DdmdParams params;
  const auto stages = ddmd_phase_stages(params, 3, 1, 7);
  ASSERT_EQ(stages.size(), 4u);
  EXPECT_EQ(stages[0].stage, DdmdStage::kSimulation);
  EXPECT_EQ(stages[0].tasks, params.sim_tasks);
  EXPECT_EQ(stages[1].stage, DdmdStage::kTraining);
  EXPECT_EQ(stages[2].stage, DdmdStage::kSelection);
  EXPECT_EQ(stages[2].gpus_per_task, 0);  // CPU only (paper §3.2)
  EXPECT_EQ(stages[3].stage, DdmdStage::kAgent);

  const auto select_tasks =
      make_ddmd_stage_tasks(stages[2], params, 0, 0, 1);
  EXPECT_DOUBLE_EQ(select_tasks[0].cpu_activity, params.cpu_stage_activity);
}

TEST(DdmdTest, SampleDurationSeeded) {
  DdmdParams params;
  DdmdStageModel model(DdmdStage::kSimulation, params);
  rp::TaskDescription task{.uid = "t", .ranks = 1, .cores_per_rank = 3};
  const auto placement = single_node_placement(1);
  Rng a(9), b(9);
  EXPECT_EQ(model.sample_duration(task, placement, a),
            model.sample_duration(task, placement, b));
}

// Property: training stage time decreases monotonically in task count up to
// the point where sync overhead wins.
class DdmdTrainProperty : public ::testing::TestWithParam<int> {};

TEST_P(DdmdTrainProperty, MoreTasksNeverSlowerThanHalf) {
  DdmdParams params;
  const int tasks = GetParam();
  DdmdStageModel model(DdmdStage::kTraining, params, tasks);
  const double t = model.ideal_seconds(7);
  DdmdStageModel baseline(DdmdStage::kTraining, params, 1);
  EXPECT_LE(t, baseline.ideal_seconds(7));
  EXPECT_GT(t, 0.0);
}

INSTANTIATE_TEST_SUITE_P(TrainCounts, DdmdTrainProperty,
                         ::testing::Values(1, 2, 4, 6));

}  // namespace
}  // namespace soma::workloads
