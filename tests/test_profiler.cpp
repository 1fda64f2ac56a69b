// Unit tests for the TAU profile model and the SOMA plugin.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "profiler/tau.hpp"
#include "soma/service.hpp"

namespace soma::profiler {
namespace {

TauProfile make_profile() {
  TauProfile profile;
  profile.task_uid = "task.000007";
  for (int r = 0; r < 4; ++r) {
    RankProfile rank;
    rank.rank = r;
    rank.hostname = r < 2 ? "cn0001" : "cn0002";
    rank.inclusive_seconds["compute"] = 10.0 + r;
    rank.inclusive_seconds["MPI_Recv"] = 3.0;
    rank.inclusive_seconds["MPI_Waitall"] = 2.0 - 0.25 * r;
    profile.ranks.push_back(std::move(rank));
  }
  return profile;
}

TEST(TauProfileTest, TotalsAndMpiExtraction) {
  const TauProfile profile = make_profile();
  EXPECT_DOUBLE_EQ(profile.ranks[0].total_seconds(), 15.0);
  const auto mpi = profile.mpi_seconds_per_rank();
  ASSERT_EQ(mpi.size(), 4u);
  EXPECT_DOUBLE_EQ(mpi[0], 5.0);
  EXPECT_DOUBLE_EQ(mpi[3], 3.0 + 1.25);
}

TEST(TauProfileTest, NodeRoundTrip) {
  const TauProfile profile = make_profile();
  const datamodel::Node node = profile.to_node();

  // Paper data-model layout: <uid>/<hostname>/rank_<k>/<function>.
  EXPECT_TRUE(node.has_path("task.000007/cn0001/rank_0000/MPI_Recv"));
  EXPECT_TRUE(node.has_path("task.000007/cn0002/rank_0003/compute"));

  const TauProfile back = TauProfile::from_node("task.000007", node);
  ASSERT_EQ(back.ranks.size(), 4u);
  // from_node groups by hostname; compare as sets of (rank, map).
  for (const auto& original : profile.ranks) {
    const auto it = std::find_if(back.ranks.begin(), back.ranks.end(),
                                 [&](const RankProfile& r) {
                                   return r.rank == original.rank;
                                 });
    ASSERT_NE(it, back.ranks.end());
    EXPECT_EQ(it->hostname, original.hostname);
    EXPECT_EQ(it->inclusive_seconds, original.inclusive_seconds);
  }
}

TEST(TauProfileTest, FromNodeRejectsGarbage) {
  datamodel::Node node;
  node.fetch("task.x/cn0001/bogus_key/fn").set(1.0);
  EXPECT_THROW(TauProfile::from_node("task.x", node), InternalError);
  EXPECT_THROW(TauProfile::from_node("missing", node), LookupError);
}

class TauIntegrationTest : public ::testing::Test {
 protected:
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
};

TEST_F(TauIntegrationTest, ProfileOpenFoamTaskFromPlacement) {
  cluster::Platform platform(simulation, cluster::summit(2));
  workloads::OpenFoamModel model(&platform);

  rp::Task task(rp::TaskDescription{.uid = "of.0", .ranks = 4});
  rp::Placement placement;
  for (int r = 0; r < 4; ++r) {
    placement.ranks.push_back(rp::RankPlacement{
        .node = static_cast<NodeId>(r / 2), .cores = {static_cast<CoreId>(r)}});
  }
  task.set_placement(placement);
  task.record_event(rp::Event::kRankStart, SimTime::from_seconds(10.0));
  task.record_event(rp::Event::kRankStop, SimTime::from_seconds(110.0));

  const TauProfile profile = profile_openfoam_task(task, model, platform);
  ASSERT_EQ(profile.ranks.size(), 4u);
  EXPECT_EQ(profile.ranks[0].hostname, "cn0000");
  EXPECT_EQ(profile.ranks[3].hostname, "cn0001");
  for (const auto& rank : profile.ranks) {
    EXPECT_NEAR(rank.total_seconds(), 100.0, 1e-9);
    EXPECT_GT(rank.inclusive_seconds.at("MPI_Recv"), 0.0);
  }
}

TEST_F(TauIntegrationTest, ProfileRequiresCompletedTask) {
  cluster::Platform platform(simulation, cluster::summit(1));
  workloads::OpenFoamModel model(&platform);
  rp::Task task(rp::TaskDescription{.uid = "of.0", .ranks = 1});
  EXPECT_THROW(profile_openfoam_task(task, model, platform), InternalError);
}

TEST_F(TauIntegrationTest, PluginPublishesToPerformanceNamespace) {
  core::SomaService service(network, {0});
  core::SomaClient client(
      network, 1, 5000, core::Namespace::kPerformance,
      service.instance(core::Namespace::kPerformance).ranks);
  TauSomaPlugin plugin(client);

  plugin.publish(make_profile());
  simulation.run();

  EXPECT_EQ(plugin.profiles_published(), 1u);
  const auto* record = service.store_view().latest(
      core::Namespace::kPerformance, "task.000007");
  ASSERT_NE(record, nullptr);
  const TauProfile back =
      TauProfile::from_node("task.000007", record->data);
  EXPECT_EQ(back.ranks.size(), 4u);
}

TEST_F(TauIntegrationTest, PluginRejectsWrongNamespace) {
  core::SomaService service(network, {0});
  core::SomaClient client(network, 1, 5000, core::Namespace::kHardware,
                          service.instance(core::Namespace::kHardware).ranks);
  TauSomaPlugin plugin(client);
  EXPECT_THROW(plugin.publish(make_profile()), InternalError);
}

}  // namespace
}  // namespace soma::profiler
