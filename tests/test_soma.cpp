// Unit tests for the SOMA core: namespaces, data store, service, client.
#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "soma/client.hpp"
#include "soma/export.hpp"
#include "soma/namespaces.hpp"
#include "soma/service.hpp"
#include "soma/store.hpp"

namespace soma::core {
namespace {

// ---------- namespaces ----------

TEST(NamespacesTest, NamesAndTags) {
  EXPECT_EQ(to_string(Namespace::kWorkflow), "workflow");
  EXPECT_EQ(namespace_tag(Namespace::kWorkflow), "RP");
  EXPECT_EQ(namespace_tag(Namespace::kHardware), "PROC");
  EXPECT_EQ(namespace_tag(Namespace::kPerformance), "TAU");
  EXPECT_EQ(namespace_tag(Namespace::kApplication), "APP");
}

TEST(NamespacesTest, ParseBothForms) {
  EXPECT_EQ(parse_namespace("workflow"), Namespace::kWorkflow);
  EXPECT_EQ(parse_namespace("PROC"), Namespace::kHardware);
  EXPECT_EQ(parse_namespace("performance"), Namespace::kPerformance);
  EXPECT_THROW(parse_namespace("bogus"), ConfigError);
  EXPECT_EQ(find_namespace("TAU"), Namespace::kPerformance);
  EXPECT_EQ(find_namespace("bogus"), std::nullopt);
}

// ---------- DataStore ----------

datamodel::Node value_node(double v) {
  datamodel::Node node;
  node["v"].set(v);
  return node;
}

TEST(DataStoreTest, AppendAndLatest) {
  DataStore store;
  const StoreView view = store.view();
  store.append(Namespace::kHardware, "cn0001", SimTime::from_seconds(1.0),
               value_node(0.1));
  store.append(Namespace::kHardware, "cn0001", SimTime::from_seconds(2.0),
               value_node(0.2));
  const TimedRecord* latest = view.latest(Namespace::kHardware, "cn0001");
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->time, SimTime::from_seconds(2.0));
  EXPECT_DOUBLE_EQ(latest->data.fetch_existing("v").as_float64(), 0.2);
  EXPECT_EQ(view.latest(Namespace::kHardware, "cn0002"), nullptr);
}

TEST(DataStoreTest, NamespacesAreIsolated) {
  DataStore store;
  const StoreView view = store.view();
  store.append(Namespace::kHardware, "key", SimTime::zero(), value_node(1.0));
  EXPECT_EQ(view.latest(Namespace::kWorkflow, "key"), nullptr);
  EXPECT_EQ(view.record_count(Namespace::kHardware), 1u);
  EXPECT_EQ(view.record_count(Namespace::kWorkflow), 0u);
  EXPECT_EQ(view.total_records(), 1u);
}

TEST(DataStoreTest, RangeQuery) {
  DataStore store;
  const StoreView view = store.view();
  for (int i = 1; i <= 5; ++i) {
    store.append(Namespace::kWorkflow, "m", SimTime::from_seconds(i),
                 value_node(i));
  }
  const auto in_range = view.range(Namespace::kWorkflow, "m",
                                   SimTime::from_seconds(2.0),
                                   SimTime::from_seconds(4.0));
  ASSERT_EQ(in_range.size(), 3u);
  EXPECT_EQ(in_range.front()->time, SimTime::from_seconds(2.0));
  EXPECT_EQ(in_range.back()->time, SimTime::from_seconds(4.0));
}

TEST(DataStoreTest, RangeBoundaries) {
  DataStore store;
  const StoreView view = store.view();

  // Unknown source / empty store.
  EXPECT_TRUE(view.range(Namespace::kWorkflow, "missing", SimTime::zero(),
                         SimTime::from_seconds(10.0))
                  .empty());

  // Single record: inclusive on both ends.
  store.append(Namespace::kWorkflow, "m", SimTime::from_seconds(5.0),
               value_node(5.0));
  const auto exact = view.range(Namespace::kWorkflow, "m",
                                SimTime::from_seconds(5.0),
                                SimTime::from_seconds(5.0));
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(exact.front()->time, SimTime::from_seconds(5.0));
  EXPECT_TRUE(view.range(Namespace::kWorkflow, "m", SimTime::zero(),
                         SimTime::from_seconds(4.0))
                  .empty());
  EXPECT_TRUE(view.range(Namespace::kWorkflow, "m", SimTime::from_seconds(6.0),
                         SimTime::from_seconds(10.0))
                  .empty());

  // from == to between records selects nothing; an inverted window is empty.
  store.append(Namespace::kWorkflow, "m", SimTime::from_seconds(7.0),
               value_node(7.0));
  EXPECT_TRUE(view.range(Namespace::kWorkflow, "m", SimTime::from_seconds(6.0),
                         SimTime::from_seconds(6.0))
                  .empty());
  EXPECT_TRUE(view.range(Namespace::kWorkflow, "m", SimTime::from_seconds(7.0),
                         SimTime::from_seconds(5.0))
                  .empty());
}

TEST(DataStoreTest, SourcesSorted) {
  DataStore store;
  const StoreView view = store.view();
  store.append(Namespace::kHardware, "cn0003", SimTime::zero(), {});
  store.append(Namespace::kHardware, "cn0001", SimTime::zero(), {});
  EXPECT_EQ(view.sources(Namespace::kHardware),
            (std::vector<std::string>{"cn0001", "cn0003"}));
}

TEST(DataStoreTest, IngestedBytesTracked) {
  DataStore store;
  const StoreView view = store.view();
  datamodel::Node big;
  big["text"].set(std::string(1000, 'x'));
  const std::size_t size = big.packed_size();
  store.append(Namespace::kPerformance, "t", SimTime::zero(), std::move(big));
  EXPECT_EQ(view.ingested_bytes(Namespace::kPerformance), size);
}

// ---------- SomaService + SomaClient over RPC ----------

class ServiceTest : public ::testing::Test {
 protected:
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
};

TEST_F(ServiceTest, RankPartitioning) {
  ServiceConfig config;
  config.ranks_per_namespace = 3;
  config.namespaces = {Namespace::kWorkflow, Namespace::kHardware};
  SomaService service(network, {0, 1}, config);

  EXPECT_EQ(service.total_ranks(), 6);
  EXPECT_EQ(service.instances().size(), 2u);
  EXPECT_EQ(service.instance(Namespace::kWorkflow).ranks.size(), 3u);
  EXPECT_EQ(service.instance(Namespace::kHardware).ranks.size(), 3u);
  EXPECT_THROW(service.instance(Namespace::kPerformance), ConfigError);

  // Ranks spread round-robin across nodes 0 and 1.
  int on_node0 = 0;
  for (const auto& info : service.instances()) {
    for (const auto& address : info.ranks) {
      if (net::address_node(address) == 0) ++on_node0;
    }
  }
  EXPECT_EQ(on_node0, 3);
}

TEST_F(ServiceTest, PublishStoresRecord) {
  SomaService service(network, {0});
  SomaClient client(network, 1, 5000, Namespace::kHardware,
                    service.instance(Namespace::kHardware).ranks);

  bool acked = false;
  client.publish("cn0001", value_node(0.42), [&] { acked = true; });
  simulation.run();

  EXPECT_TRUE(acked);
  EXPECT_EQ(service.publishes_received(), 1u);
  const TimedRecord* record =
      service.store_view().latest(Namespace::kHardware, "cn0001");
  ASSERT_NE(record, nullptr);
  EXPECT_DOUBLE_EQ(record->data.fetch_existing("v").as_float64(), 0.42);
}

// Child names and string leaves at the edges of the data model's 15-byte
// inline text, a long one and one with a NUL inside come back unchanged
// from the client's encoding, the service's decode, the store and a JSON
// export of it.
TEST_F(ServiceTest, TextEdgeCasesSurviveEveryLayer) {
  const std::string cases[] = {"",
                               std::string(15, 'f'),
                               std::string(16, 's'),
                               std::string(300, 'l'),
                               std::string("nul\0inline", 10),
                               std::string("nul\0held on the heap", 21)};
  datamodel::Node record;
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    record[cases[i]].set(cases[std::size(cases) - 1 - i]);
  }
  record["tree"][cases[3]][cases[2]][cases[4]].set(cases[5]);

  SomaService service(network, {0});
  SomaClient client(network, 1, 5000, Namespace::kHardware,
                    service.instance(Namespace::kHardware).ranks);
  client.publish("cn0001", record);
  simulation.run();

  const TimedRecord* stored =
      service.store_view().latest(Namespace::kHardware, "cn0001");
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->data, record);
  EXPECT_EQ(stored->data.pack(), record.pack());

  std::ostringstream out;
  ASSERT_EQ(export_store(service.store_view(), out), 1u);
  std::string line = out.str();
  ASSERT_FALSE(line.empty());
  line.pop_back();  // the newline
  ExportedRecord exported;
  ASSERT_TRUE(parse_export_line(line, exported));
  EXPECT_EQ(exported.source, "cn0001");
  EXPECT_EQ(exported.data, record);
}

TEST_F(ServiceTest, PublishGoesToDeclaredNamespaceOnly) {
  SomaService service(network, {0});
  SomaClient client(network, 1, 5000, Namespace::kWorkflow,
                    service.instance(Namespace::kWorkflow).ranks);
  client.publish("rp_monitor", value_node(1.0));
  simulation.run();
  EXPECT_EQ(service.store_view().record_count(Namespace::kWorkflow), 1u);
  EXPECT_EQ(service.store_view().record_count(Namespace::kHardware), 0u);
}

TEST_F(ServiceTest, SourceAffinityIsStable) {
  ServiceConfig config;
  config.ranks_per_namespace = 4;
  SomaService service(network, {0}, config);
  SomaClient client(network, 1, 5000, Namespace::kHardware,
                    service.instance(Namespace::kHardware).ranks);
  // Same source published many times: records stay ordered in one series.
  for (int i = 0; i < 10; ++i) {
    client.publish("cn0007", value_node(i));
  }
  simulation.run();
  const auto series =
      service.store_view().series(Namespace::kHardware, "cn0007");
  ASSERT_EQ(series.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(series[static_cast<std::size_t>(i)]
                         ->data.fetch_existing("v")
                         .as_float64(),
                     i);
  }
}

TEST_F(ServiceTest, ClientStatsTrackAcks) {
  SomaService service(network, {0});
  SomaClient client(network, 1, 5000, Namespace::kHardware,
                    service.instance(Namespace::kHardware).ranks);
  client.publish("a", value_node(1.0));
  client.publish("b", value_node(2.0));
  simulation.run();
  EXPECT_EQ(client.stats().published, 2u);
  EXPECT_EQ(client.stats().acked, 2u);
  EXPECT_GT(client.stats().mean_ack_latency(), Duration::zero());
  EXPECT_GE(client.stats().max_ack_latency, client.stats().mean_ack_latency());
}

TEST_F(ServiceTest, QueryLatest) {
  SomaService service(network, {0});
  SomaClient client(network, 1, 5000, Namespace::kHardware,
                    service.instance(Namespace::kHardware).ranks);
  client.publish("cn0002", value_node(0.5));

  datamodel::Node reply;
  datamodel::Node request;
  request["kind"].set("latest");
  request["ns"].set("hardware");
  request["source"].set("cn0002");
  client.query(std::move(request),
               [&](datamodel::Node r) { reply = std::move(r); });
  simulation.run();
  ASSERT_TRUE(reply.has_path("data/v"));
  EXPECT_DOUBLE_EQ(reply.fetch_existing("data/v").as_float64(), 0.5);
}

TEST_F(ServiceTest, QueryLatestUnknownSourceReturnsError) {
  SomaService service(network, {0});
  SomaClient client(network, 1, 5000, Namespace::kHardware,
                    service.instance(Namespace::kHardware).ranks);
  datamodel::Node request;
  request["kind"].set("latest");
  request["ns"].set("hardware");
  request["source"].set("ghost");
  datamodel::Node reply;
  client.query(std::move(request),
               [&](datamodel::Node r) { reply = std::move(r); });
  simulation.run();
  EXPECT_TRUE(reply.has_child("error"));
}

TEST_F(ServiceTest, QuerySourcesAndStats) {
  SomaService service(network, {0});
  SomaClient client(network, 1, 5000, Namespace::kHardware,
                    service.instance(Namespace::kHardware).ranks);
  client.publish("cn0001", value_node(1.0));
  client.publish("cn0001", value_node(2.0));
  client.publish("cn0002", value_node(3.0));

  datamodel::Node sources_reply, stats_reply;
  datamodel::Node request;
  request["kind"].set("sources");
  request["ns"].set("hardware");
  client.query(std::move(request),
               [&](datamodel::Node r) { sources_reply = std::move(r); });
  datamodel::Node stats_request;
  stats_request["kind"].set("stats");
  client.query(std::move(stats_request),
               [&](datamodel::Node r) { stats_reply = std::move(r); });
  simulation.run();

  EXPECT_EQ(sources_reply.fetch_existing("sources/cn0001").as_int64(), 2);
  EXPECT_EQ(sources_reply.fetch_existing("sources/cn0002").as_int64(), 1);
  EXPECT_EQ(stats_reply.fetch_existing("hardware/records").as_int64(), 3);
  EXPECT_GT(stats_reply.fetch_existing("hardware/bytes").as_int64(), 0);
}

TEST_F(ServiceTest, SaturationShowsQueueDelay) {
  ServiceConfig config;
  config.ranks_per_namespace = 1;
  config.cost.base = Duration::milliseconds(5);
  SomaService service(network, {0}, config);
  SomaClient client(network, 1, 5000, Namespace::kHardware,
                    service.instance(Namespace::kHardware).ranks);
  // 20 publishes back to back on a 5 ms/request rank: heavy queueing.
  for (int i = 0; i < 20; ++i) client.publish("cn0001", value_node(i));
  simulation.run();
  EXPECT_GE(service.max_queue_delay(), Duration::milliseconds(50));
  const net::EngineStats stats = service.instance_stats(Namespace::kHardware);
  EXPECT_EQ(stats.requests_handled, 20u);
  EXPECT_GT(stats.total_queue_delay, Duration::zero());
}

TEST_F(ServiceTest, MoreRanksReduceQueueDelay) {
  auto run_with_ranks = [&](int ranks) {
    sim::Simulation sim;
    net::Network net{sim, net::NetworkConfig{}};
    ServiceConfig config;
    config.ranks_per_namespace = ranks;
    config.cost.base = Duration::milliseconds(5);
    SomaService service(net, {0}, config);
    std::vector<std::unique_ptr<SomaClient>> clients;
    for (int i = 0; i < 16; ++i) {
      clients.push_back(std::make_unique<SomaClient>(
          net, 1, 5000 + i, Namespace::kHardware,
          service.instance(Namespace::kHardware).ranks));
      clients.back()->publish("cn" + std::to_string(i), value_node(i));
    }
    sim.run();
    return service.max_queue_delay();
  };
  EXPECT_GT(run_with_ranks(1), run_with_ranks(8));
}

TEST_F(ServiceTest, InSituAnalyzerOverRpc) {
  SomaService service(network, {0});
  service.register_analyzer("count", [](const StoreView& view) {
    datamodel::Node result;
    result["total"].set(static_cast<std::int64_t>(view.total_records()));
    return result;
  });

  SomaClient client(network, 1, 5000, Namespace::kHardware,
                    service.instance(Namespace::kHardware).ranks);
  client.publish("cn0001", value_node(1.0));
  client.publish("cn0001", value_node(2.0));

  datamodel::Node request;
  request["kind"].set("analyze");
  request["analyzer"].set("count");
  datamodel::Node reply;
  client.query(std::move(request),
               [&](datamodel::Node r) { reply = std::move(r); });
  simulation.run();
  EXPECT_EQ(reply.fetch_existing("result/total").as_int64(), 2);
}

TEST_F(ServiceTest, UnknownAnalyzerReturnsError) {
  SomaService service(network, {0});
  SomaClient client(network, 1, 5000, Namespace::kHardware,
                    service.instance(Namespace::kHardware).ranks);
  datamodel::Node request;
  request["kind"].set("analyze");
  request["analyzer"].set("ghost");
  datamodel::Node reply;
  client.query(std::move(request),
               [&](datamodel::Node r) { reply = std::move(r); });
  simulation.run();
  EXPECT_TRUE(reply.has_child("error"));
}

TEST_F(ServiceTest, DuplicateAnalyzerRejected) {
  SomaService service(network, {0});
  auto analyzer = [](const StoreView&) { return datamodel::Node{}; };
  service.register_analyzer("a", analyzer);
  EXPECT_THROW(service.register_analyzer("a", analyzer), ConfigError);
  EXPECT_THROW(service.register_analyzer("b", nullptr), ConfigError);
}

TEST_F(ServiceTest, InvalidConstruction) {
  EXPECT_THROW(SomaService(network, {}), ConfigError);
  ServiceConfig config;
  config.ranks_per_namespace = 0;
  EXPECT_THROW(SomaService(network, {0}, config), ConfigError);
}

TEST_F(ServiceTest, ClientRequiresRanks) {
  EXPECT_THROW(SomaClient(network, 0, 5000, Namespace::kHardware, {}),
               InternalError);
}

}  // namespace
}  // namespace soma::core
