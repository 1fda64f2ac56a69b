// Tests for the extension features: JSON parsing, store export/import, the
// application-instrumentation API, bulk (RDMA) ingest, anomaly detection,
// and the least-utilized placement policy.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/anomaly.hpp"
#include "common/error.hpp"
#include "rp/scheduler.hpp"
#include "soma/app_instrument.hpp"
#include "soma/export.hpp"
#include "soma/service.hpp"
#include "test_names.hpp"

namespace soma {
namespace {

using testutil::numbered;

// ---------- JSON parsing ----------

TEST(JsonParseTest, Scalars) {
  using datamodel::Node;
  EXPECT_EQ(Node::parse_json("42").as_int64(), 42);
  EXPECT_EQ(Node::parse_json("-7").as_int64(), -7);
  EXPECT_DOUBLE_EQ(Node::parse_json("2.5").as_float64(), 2.5);
  EXPECT_DOUBLE_EQ(Node::parse_json("1e3").as_float64(), 1000.0);
  EXPECT_EQ(Node::parse_json("\"hi\"").as_string(), "hi");
  EXPECT_TRUE(Node::parse_json("null").is_empty());
}

TEST(JsonParseTest, StringEscapes) {
  const auto node = datamodel::Node::parse_json(R"("a\"b\\c\nd")");
  EXPECT_EQ(node.as_string(), "a\"b\\c\nd");
}

TEST(JsonParseTest, Arrays) {
  using datamodel::Node;
  EXPECT_EQ(Node::parse_json("[1,2,3]").as_int64_array(),
            (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(Node::parse_json("[1, 2.5]").as_float64_array(),
            (std::vector<double>{1.0, 2.5}));
  EXPECT_EQ(Node::parse_json("[]").as_int64_array().size(), 0u);
}

TEST(JsonParseTest, NestedObjects) {
  const auto node = datamodel::Node::parse_json(
      R"({"a":{"b":1,"c":"x"},"d":[1,2]})");
  EXPECT_EQ(node.fetch_existing("a/b").as_int64(), 1);
  EXPECT_EQ(node.fetch_existing("a/c").as_string(), "x");
  EXPECT_EQ(node.fetch_existing("d").as_int64_array().size(), 2u);
}

TEST(JsonParseTest, RoundTripsToJson) {
  datamodel::Node original;
  original.fetch("PROC/cn0001/stat/cpu")
      .set(std::vector<std::int64_t>{1, 2, 3, 4, 5, 6});
  original.fetch("PROC/cn0001/util").set(0.25);
  original.fetch("PROC/cn0001/host").set("cn0001");
  const auto parsed = datamodel::Node::parse_json(original.to_json());
  EXPECT_TRUE(parsed == original);
  // Pretty-printed JSON parses too.
  const auto pretty = datamodel::Node::parse_json(original.to_json(2));
  EXPECT_TRUE(pretty == original);
}

TEST(JsonParseTest, MalformedInputThrows) {
  using datamodel::Node;
  EXPECT_THROW(Node::parse_json("{"), LookupError);
  EXPECT_THROW(Node::parse_json("{\"a\":}"), LookupError);
  EXPECT_THROW(Node::parse_json("[1,\"x\"]"), LookupError);
  EXPECT_THROW(Node::parse_json("42 junk"), LookupError);
  EXPECT_THROW(Node::parse_json("\"unterminated"), LookupError);
  EXPECT_THROW(Node::parse_json(""), LookupError);
}

TEST(JsonParseTest, MalformedNumbersThrow) {
  using datamodel::Node;
  // A sign anywhere but first, a bare sign, a dangling exponent, a leading
  // '+' and a number no int64 or double can hold are all malformed.
  for (const char* json :
       {"-", "+", "+5", "1-2", "1+2", "--1", "1e", "1.5e", "1.2.3", "[1,-]",
        R"({"t":-})", "99999999999999999999999", "-99999999999999999999999",
        "1e999", "-1e999"}) {
    EXPECT_THROW(Node::parse_json(json), LookupError) << json;
  }
}

TEST(JsonParseTest, NumbersRoundTripBitForBit) {
  using datamodel::Node;
  for (const std::int64_t value :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{42},
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    Node node;
    node.set(value);
    EXPECT_EQ(Node::parse_json(node.to_json()).as_int64(), value);
  }
  for (const double value :
       {0.1, -0.5, 2.5e-300, -1e21, 123456789.123,
        std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min()}) {
    Node node;
    node.set(std::vector<double>{value, 0.5});
    const std::vector<double> parsed =
        Node::parse_json(node.to_json()).as_float64_array();
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed[0]),
              std::bit_cast<std::uint64_t>(value))
        << node.to_json();
  }
}

// ---------- store export / import ----------

core::DataStore populated_store() {
  core::DataStore store;
  datamodel::Node hw;
  hw["cn0001"]["cpu_utilization"].set(0.5);
  store.append(core::Namespace::kHardware, "cn0001",
               SimTime::from_seconds(30.0), hw);
  datamodel::Node wf;
  wf["summary"]["tasks_done"].set(std::int64_t{3});
  store.append(core::Namespace::kWorkflow, "rp_monitor",
               SimTime::from_seconds(60.0), wf);
  datamodel::Node hw2;
  hw2["cn0001"]["cpu_utilization"].set(0.7);
  store.append(core::Namespace::kHardware, "cn0001",
               SimTime::from_seconds(60.0), hw2);
  return store;
}

TEST(ExportTest, RoundTrip) {
  const core::DataStore original = populated_store();
  std::stringstream stream;
  EXPECT_EQ(core::export_store(original.view(), stream), 3u);

  core::DataStore restored;
  EXPECT_EQ(core::import_store(restored, stream), 3u);
  EXPECT_EQ(restored.view().total_records(), 3u);
  const auto series =
      restored.view().series(core::Namespace::kHardware, "cn0001");
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0]->time, SimTime::from_seconds(30.0));
  EXPECT_DOUBLE_EQ(
      series[1]->data.fetch_existing("cn0001/cpu_utilization").as_float64(),
      0.7);
  EXPECT_EQ(restored.view()
                .latest(core::Namespace::kWorkflow, "rp_monitor")
                ->data.fetch_existing("summary/tasks_done")
                .as_int64(),
            3);
}

TEST(ExportTest, WholeValuedDoublesStayDoubles) {
  // 0.0, 1.0 and -0.0 print without a fraction under %.17g; the export
  // must still read back as float64 leaves, not int64.
  core::DataStore original;
  datamodel::Node hw;
  hw["cn0001"]["cpu_utilization"].set(1.0);
  hw["cn0001"]["gpu_utilization"].set(0.0);
  hw["cn0001"]["drift"].set(-0.0);
  original.append(core::Namespace::kHardware, "cn0001",
                  SimTime::from_seconds(30.0), hw);
  std::stringstream stream;
  ASSERT_EQ(core::export_store(original.view(), stream), 1u);

  core::DataStore restored;
  ASSERT_EQ(core::import_store(restored, stream), 1u);
  const auto* record =
      restored.view().latest(core::Namespace::kHardware, "cn0001");
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(record->data == hw) << record->data.to_json();
  const auto& host = record->data.fetch_existing("cn0001");
  EXPECT_EQ(host.fetch_existing("cpu_utilization").as_float64(), 1.0);
  EXPECT_EQ(host.fetch_existing("gpu_utilization").as_float64(), 0.0);
  EXPECT_TRUE(std::signbit(host.fetch_existing("drift").as_float64()));
}

TEST(ExportTest, TruncatedFinalLineTolerated) {
  const core::DataStore original = populated_store();
  std::stringstream stream;
  core::export_store(original.view(), stream);
  std::string text = stream.str();
  text.resize(text.size() - 10);  // chop the end of the last record

  std::stringstream truncated(text);
  core::DataStore restored;
  EXPECT_EQ(core::import_store(restored, truncated), 2u);
}

TEST(ExportTest, MalformedLineThrows) {
  std::stringstream bad("{\"ns\":\"hardware\",\"source\":1}\n");
  core::DataStore store;
  EXPECT_THROW(core::import_store(store, bad), LookupError);
}

TEST(ExportTest, UnknownNamespaceIsLookupError) {
  core::ExportedRecord record;
  EXPECT_THROW(core::parse_export_line(
                   R"({"ns":"bogus","source":"x","t":1,"data":{}})", record),
               LookupError);
}

TEST(ExportTest, FileRoundTrip) {
  const core::DataStore original = populated_store();
  const std::string path = ::testing::TempDir() + "/soma_export_test.jsonl";
  EXPECT_EQ(core::export_store_to_file(original.view(), path), 3u);
  core::DataStore restored;
  EXPECT_EQ(core::import_store_from_file(restored, path), 3u);
  EXPECT_THROW(core::import_store_from_file(restored, "/nonexistent/x"),
               ConfigError);
}

// ---------- application instrumentation ----------

class AppInstrumentTest : public ::testing::Test {
 protected:
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  core::SomaService service{network, {0}};
};

TEST_F(AppInstrumentTest, CommitPublishesBufferedMetrics) {
  core::SomaClient client(
      network, 1, 5000, core::Namespace::kApplication,
      service.instance(core::Namespace::kApplication).ranks);
  core::AppInstrument app(client, "md.run42");

  app.report_metric("atom_timesteps_per_s", 1.25e9);
  app.report_metric("step", std::int64_t{100});
  app.report_progress(0.25);
  EXPECT_EQ(app.buffered(), 3u);
  EXPECT_TRUE(app.commit());
  EXPECT_EQ(app.buffered(), 0u);
  EXPECT_FALSE(app.commit());  // nothing new
  simulation.run();

  const auto* record =
      service.store_view().latest(core::Namespace::kApplication, "md.run42");
  ASSERT_NE(record, nullptr);
  const auto& by_time = record->data.fetch_existing("md.run42");
  ASSERT_EQ(by_time.number_of_children(), 1u);
  const auto& metrics = by_time.child_at(0);
  EXPECT_DOUBLE_EQ(
      metrics.fetch_existing("atom_timesteps_per_s").as_float64(), 1.25e9);
  EXPECT_EQ(metrics.fetch_existing("step").as_int64(), 100);
  EXPECT_DOUBLE_EQ(metrics.fetch_existing("progress").as_float64(), 0.25);
}

TEST_F(AppInstrumentTest, LatestValueWinsWithinBatch) {
  core::SomaClient client(
      network, 1, 5000, core::Namespace::kApplication,
      service.instance(core::Namespace::kApplication).ranks);
  core::AppInstrument app(client, "app");
  app.report_metric("fom", 1.0);
  app.report_metric("fom", 2.0);
  app.commit();
  simulation.run();
  const auto* record =
      service.store_view().latest(core::Namespace::kApplication, "app");
  EXPECT_DOUBLE_EQ(
      record->data.fetch_existing("app").child_at(0).fetch_existing("fom")
          .as_float64(),
      2.0);
}

TEST_F(AppInstrumentTest, ProgressClamped) {
  core::SomaClient client(
      network, 1, 5000, core::Namespace::kApplication,
      service.instance(core::Namespace::kApplication).ranks);
  core::AppInstrument app(client, "app");
  app.report_progress(7.0);
  app.commit();
  simulation.run();
  const auto* record =
      service.store_view().latest(core::Namespace::kApplication, "app");
  EXPECT_DOUBLE_EQ(record->data.fetch_existing("app")
                       .child_at(0)
                       .fetch_existing("progress")
                       .as_float64(),
                   1.0);
}

TEST_F(AppInstrumentTest, WrongNamespaceRejected) {
  core::SomaClient wrong(network, 1, 5001, core::Namespace::kHardware,
                         service.instance(core::Namespace::kHardware).ranks);
  EXPECT_THROW(core::AppInstrument(wrong, "app"), InternalError);
  core::SomaClient right(
      network, 1, 5002, core::Namespace::kApplication,
      service.instance(core::Namespace::kApplication).ranks);
  EXPECT_THROW(core::AppInstrument(right, ""), InternalError);
}

// ---------- bulk transfer ----------

TEST(BulkTransferTest, CostModelSwitchesAtThreshold) {
  net::ServiceCost cost;
  EXPECT_FALSE(cost.is_bulk(1024));
  EXPECT_TRUE(cost.is_bulk(net::kBulkThreshold));
  // Small payloads pay the eager per-KiB rate.
  const Duration eager = cost.cost_for(32 * 1024);
  // A bulk payload of twice the size costs *less* CPU than the eager one.
  const Duration bulk = cost.cost_for(128 * 1024);
  EXPECT_LT(bulk, eager * 2.0);
  // And far less than the eager model would have charged.
  const Duration eager_extrapolated =
      cost.base + cost.per_kib * 128.0;
  EXPECT_LT(bulk, eager_extrapolated / 2.0);
}

TEST(BulkTransferTest, EngineCountsBulkIngests) {
  sim::Simulation simulation;
  net::Network network(simulation, net::NetworkConfig{});
  net::Engine server(network, net::make_address(0, 1));
  net::Engine client(network, net::make_address(1, 1));
  server.define("put", [](const net::Address&, const datamodel::Node&) {
    return datamodel::Node{};
  });

  datamodel::Node big;
  big["blob"].set(std::string(100 * 1024, 'x'));
  datamodel::Node small;
  small["v"].set(std::int64_t{1});
  client.call(server.address(), "put", big);
  client.call(server.address(), "put", small);
  simulation.run();
  EXPECT_EQ(server.stats().requests_handled, 2u);
  EXPECT_EQ(server.stats().bulk_transfers, 1u);
}

// ---------- anomaly detection ----------

TEST(AnomalyTest, MedianAbsoluteDeviation) {
  EXPECT_DOUBLE_EQ(analysis::median_absolute_deviation({1, 1, 2, 2, 4, 6, 9}),
                   1.0);
  EXPECT_DOUBLE_EQ(analysis::median_absolute_deviation({}), 0.0);
  EXPECT_DOUBLE_EQ(analysis::median_absolute_deviation({5, 5, 5}), 0.0);
}

TEST(AnomalyTest, DetectsStraggler) {
  std::vector<analysis::TaskSample> samples;
  for (int i = 0; i < 19; ++i) {
    samples.push_back({numbered("t", i), "of-82",
                       200.0 + (i % 5)});
  }
  samples.push_back({"slow", "of-82", 340.0});
  const auto anomalies = analysis::detect_task_anomalies(samples, 3.0);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].sample.uid, "slow");
  EXPECT_EQ(anomalies[0].kind, analysis::AnomalyKind::kStraggler);
  EXPECT_GT(anomalies[0].robust_z, 3.0);
}

TEST(AnomalyTest, DetectsUnexpectedlyFast) {
  std::vector<analysis::TaskSample> samples;
  for (int i = 0; i < 19; ++i) {
    samples.push_back({numbered("t", i), "g", 100.0 + (i % 7)});
  }
  samples.push_back({"fast", "g", 8.0});
  const auto anomalies = analysis::detect_task_anomalies(samples, 3.0);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, analysis::AnomalyKind::kUnexpectedFast);
}

TEST(AnomalyTest, GroupsIsolated) {
  // A value normal for one configuration must not be flagged because
  // another configuration is faster.
  std::vector<analysis::TaskSample> samples;
  for (int i = 0; i < 10; ++i) {
    samples.push_back({numbered("a", i), "of-20", 500.0 + i});
    samples.push_back({numbered("b", i), "of-164", 200.0 + i});
  }
  EXPECT_TRUE(analysis::detect_task_anomalies(samples, 3.0).empty());
}

TEST(AnomalyTest, SmallAndDegenerateGroupsSkipped) {
  std::vector<analysis::TaskSample> tiny{{"a", "g", 1.0}, {"b", "g", 99.0}};
  EXPECT_TRUE(analysis::detect_task_anomalies(tiny, 3.0).empty());
  std::vector<analysis::TaskSample> identical;
  for (int i = 0; i < 10; ++i) identical.push_back({"t", "g", 5.0});
  EXPECT_TRUE(analysis::detect_task_anomalies(identical, 3.0).empty());
}

TEST(AnomalyTest, HostAnomalies) {
  analysis::FreeResourceReport report;
  for (int i = 0; i < 9; ++i) {
    report.nodes.push_back({.hostname = "cn" + std::to_string(i),
                            .mean_utilization = 0.80 + 0.01 * (i % 3),
                            .last_utilization = 0.8,
                            .available_ram_mib = 1000});
  }
  report.nodes.push_back({.hostname = "sick",
                          .mean_utilization = 0.30,
                          .last_utilization = 0.3,
                          .available_ram_mib = 1000});
  const auto anomalies = analysis::detect_host_anomalies(report, 2.5);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].hostname, "sick");
  EXPECT_LT(anomalies[0].robust_z, -2.5);
}

// ---------- least-utilized placement policy ----------

TEST(PlacementPolicyTest, LeastUtilizedPrefersIdleNodes) {
  sim::Simulation simulation;
  cluster::Platform platform(simulation, cluster::summit(3));
  rp::SchedulerConfig config;
  config.policy = rp::PlacementPolicy::kLeastUtilized;
  rp::TaskTable tasks;
  rp::AgentScheduler scheduler(simulation, platform, tasks, {0, 1, 2}, Rng{5},
                               config);
  std::vector<rp::TaskId> placed;
  scheduler.set_on_placed([&](rp::TaskId id) { placed.push_back(id); });

  // Node 0 is the busiest; node 2 idle.
  platform.node(0).allocate_cores(30, "other", 1.0);
  platform.node(1).allocate_cores(10, "other", 1.0);

  auto task =
      &tasks.emplace_back(rp::TaskDescription{.uid = "t", .ranks = 8});
  task->advance(rp::TaskState::kTmgrScheduling, simulation.now());
  task->advance(rp::TaskState::kAgentScheduling, simulation.now());
  scheduler.submit(task->id());
  simulation.run();

  ASSERT_TRUE(task->placement().has_value());
  EXPECT_EQ(task->placement()->ranks[0].node, 2);
}

TEST(PlacementPolicyTest, ExternalUtilizationSourceWins) {
  sim::Simulation simulation;
  cluster::Platform platform(simulation, cluster::summit(3));
  rp::SchedulerConfig config;
  config.policy = rp::PlacementPolicy::kLeastUtilized;
  rp::TaskTable tasks;
  rp::AgentScheduler scheduler(simulation, platform, tasks, {0, 1, 2}, Rng{5},
                               config);
  scheduler.set_on_placed([](rp::TaskId) {});
  // SOMA "observes" node 1 as the least utilized, whatever the platform
  // says right now.
  scheduler.set_utilization_source(
      [](NodeId node) { return node == 1 ? 0.0 : 0.9; });

  auto task =
      &tasks.emplace_back(rp::TaskDescription{.uid = "t", .ranks = 4});
  task->advance(rp::TaskState::kTmgrScheduling, simulation.now());
  task->advance(rp::TaskState::kAgentScheduling, simulation.now());
  scheduler.submit(task->id());
  simulation.run();
  ASSERT_TRUE(task->placement().has_value());
  EXPECT_EQ(task->placement()->ranks[0].node, 1);
}

TEST(PlacementPolicyTest, ContinuousKeepsIndexOrder) {
  sim::Simulation simulation;
  cluster::Platform platform(simulation, cluster::summit(3));
  rp::TaskTable tasks;
  rp::AgentScheduler scheduler(simulation, platform, tasks, {0, 1, 2}, Rng{5});
  scheduler.set_on_placed([](rp::TaskId) {});
  platform.node(0).allocate_cores(30, "other", 1.0);  // busy but has room

  auto task =
      &tasks.emplace_back(rp::TaskDescription{.uid = "t", .ranks = 4});
  task->advance(rp::TaskState::kTmgrScheduling, simulation.now());
  task->advance(rp::TaskState::kAgentScheduling, simulation.now());
  scheduler.submit(task->id());
  simulation.run();
  ASSERT_TRUE(task->placement().has_value());
  EXPECT_EQ(task->placement()->ranks[0].node, 0);  // index order, not idlest
}

}  // namespace
}  // namespace soma
