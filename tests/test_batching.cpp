// Batched publish pipeline tests: the batch wire body, the client-side
// PublishBatcher flush policy (size/byte/delay triggers), end-to-end
// batched-vs-unbatched parity across storage backends (including one
// fault-matrix seed), failed-batch re-buffer/replay with original
// timestamps, and the dropped-batch-record accounting.
//
// Every suite name contains "Batch" so the CI batching-parity leg can select
// the lot with `ctest --tests-regex Batch`.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"
#include "net/wire.hpp"
#include "sim/simulation.hpp"
#include "soma/batcher.hpp"
#include "soma/client.hpp"
#include "soma/export.hpp"
#include "soma/namespaces.hpp"
#include "soma/service.hpp"
#include "soma/storage_backend.hpp"
#include "soma/store.hpp"

namespace soma {
namespace {

using core::BatchingConfig;
using core::ClientReliability;
using core::Namespace;
using core::PublishBatcher;
using core::ServiceConfig;
using core::SomaClient;
using core::SomaService;
using core::StorageBackendKind;
using core::TimedRecord;

constexpr StorageBackendKind kAllBackends[] = {StorageBackendKind::kMap,
                                               StorageBackendKind::kLog};

datamodel::Node value_node(double v) {
  datamodel::Node node;
  node["v"].set(v);
  return node;
}

// ---------- batch wire body ----------

TEST(BatchWireTest, BodyRoundTripsRecordsInOrder) {
  net::wire::BatchBodyWriter writer("hardware");
  const datamodel::Node a = value_node(1.0);
  const datamodel::Node b = value_node(2.0);
  const datamodel::Node c = value_node(3.0);
  EXPECT_EQ(writer.add("cn0001", 100, a), 1u);
  EXPECT_EQ(writer.add("cn0002", 200, b), 2u);
  EXPECT_EQ(writer.add("cn0001", 300, c), 3u);
  EXPECT_EQ(writer.record_count(), 3u);

  std::vector<std::byte> body;
  writer.encode(body);
  EXPECT_EQ(body.size(), writer.body_size());

  const net::wire::BatchView view = net::wire::decode_batch_body(body);
  EXPECT_EQ(view.ns, "hardware");
  ASSERT_EQ(view.records.size(), 3u);
  EXPECT_EQ(view.records[0].source, "cn0001");
  EXPECT_EQ(view.records[1].source, "cn0002");
  EXPECT_EQ(view.records[2].source, "cn0001");
  EXPECT_EQ(view.records[0].t_nanos, 100);
  EXPECT_EQ(view.records[2].t_nanos, 300);
  const datamodel::Node decoded =
      datamodel::Node::unpack(view.records[2].payload);
  EXPECT_DOUBLE_EQ(decoded.fetch_existing("v").as_float64(), 3.0);
}

TEST(BatchWireTest, DictionaryStoresRepeatedSourcesOnce) {
  // Two records under the same source must grow the body by the per-record
  // overhead only — the source string is dictionary-encoded once.
  net::wire::BatchBodyWriter writer("hardware");
  const datamodel::Node data = value_node(1.0);
  writer.add("a-rather-long-monitor-source-name", 1, data);
  const std::size_t after_first = writer.body_size();
  writer.add("a-rather-long-monitor-source-name", 2, data);
  const std::size_t per_record = writer.body_size() - after_first;
  // dict index (4) + time (8) + payload length (4) + payload.
  EXPECT_EQ(per_record, 16 + data.packed_size());
  writer.add("another-source", 3, data);
  EXPECT_GT(writer.body_size() - after_first - per_record, per_record);
}

TEST(BatchWireTest, TruncatedBodyThrows) {
  net::wire::BatchBodyWriter writer("hardware");
  writer.add("cn0001", 100, value_node(1.0));
  std::vector<std::byte> body;
  writer.encode(body);
  for (const std::size_t cut : {body.size() - 1, body.size() / 2,
                                std::size_t{3}, std::size_t{0}}) {
    EXPECT_THROW(net::wire::decode_batch_body(
                     std::span(body.data(), cut)),
                 LookupError)
        << "cut at " << cut;
  }
}

TEST(BatchWireTest, ImpossibleCountsThrowBeforeAllocating) {
  // Empty namespace, then {record count, dictionary count}: each body claims
  // ~2^31 dictionary entries or records in a handful of bytes.
  auto body_with = [](std::uint32_t records, std::uint32_t dict) {
    std::vector<std::byte> body;
    for (const std::uint32_t v : {0u, records, dict}) {
      for (int i = 0; i < 4; ++i) {
        body.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
      }
    }
    return body;
  };
  EXPECT_THROW(net::wire::decode_batch_body(body_with(0, 0x7fffffff)),
               LookupError);
  EXPECT_THROW(net::wire::decode_batch_body(body_with(0x7fffffff, 0)),
               LookupError);
  EXPECT_EQ(net::wire::decode_batch_body(body_with(0, 0)).records.size(), 0u);
}

// ---------- PublishBatcher flush policy ----------

class PublishBatcherTest : public ::testing::Test {
 protected:
  struct Flushed {
    std::size_t rank = 0;
    std::size_t records = 0;
    std::vector<std::string> sources;
  };

  std::unique_ptr<PublishBatcher> make_batcher(BatchingConfig config,
                                               std::size_t ranks = 2) {
    return std::make_unique<PublishBatcher>(
        simulation, "hardware", ranks, config,
        [this](std::size_t rank, PublishBatcher::Batch batch) {
          Flushed f;
          f.rank = rank;
          f.records = batch.body.record_count();
          for (const auto& record : batch.records) {
            f.sources.push_back(record.source);
          }
          flushed.push_back(std::move(f));
        });
  }

  void add(PublishBatcher& batcher, std::size_t rank,
           const std::string& source) {
    batcher.add(rank, source, value_node(1.0), simulation.now(), nullptr,
                /*keep_copy=*/true);
  }

  sim::Simulation simulation;
  std::vector<Flushed> flushed;
};

TEST_F(PublishBatcherTest, SizeTriggerFlushesFullBatch) {
  BatchingConfig config;
  config.max_records = 3;
  auto batcher = make_batcher(config);
  add(*batcher, 0, "a");
  add(*batcher, 0, "b");
  EXPECT_TRUE(flushed.empty());
  EXPECT_EQ(batcher->pending_records(), 2u);
  add(*batcher, 0, "c");
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].records, 3u);
  EXPECT_EQ(flushed[0].sources, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(batcher->pending_records(), 0u);
  EXPECT_EQ(batcher->stats().size_flushes, 1u);
  EXPECT_EQ(batcher->stats().records_batched, 3u);
}

TEST_F(PublishBatcherTest, RanksCoalesceIndependently) {
  BatchingConfig config;
  config.max_records = 2;
  auto batcher = make_batcher(config);
  add(*batcher, 0, "a");
  add(*batcher, 1, "b");
  EXPECT_TRUE(flushed.empty());
  add(*batcher, 1, "c");
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].rank, 1u);
  EXPECT_EQ(batcher->pending_records(), 1u);  // rank 0's record still open
}

TEST_F(PublishBatcherTest, DelayTriggerFlushesPartialBatch) {
  BatchingConfig config;
  config.max_records = 100;
  config.max_delay = Duration::milliseconds(10);
  auto batcher = make_batcher(config);
  add(*batcher, 0, "a");
  simulation.run();
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].records, 1u);
  EXPECT_EQ(batcher->stats().delay_flushes, 1u);
  EXPECT_DOUBLE_EQ(simulation.now().to_seconds(), 0.010);
}

TEST_F(PublishBatcherTest, ByteTriggerBoundsFrameSize) {
  BatchingConfig config;
  config.max_records = 1000;
  config.max_bytes = 64;  // a couple of records at most
  auto batcher = make_batcher(config);
  for (int i = 0; i < 6; ++i) add(*batcher, 0, "a");
  EXPECT_GE(flushed.size(), 1u);
  EXPECT_EQ(batcher->stats().byte_flushes, flushed.size());
  for (const Flushed& f : flushed) EXPECT_LT(f.records, 6u);
}

TEST_F(PublishBatcherTest, FlushAllShipsOpenBatchesAndCancelsTimers) {
  BatchingConfig config;
  config.max_records = 100;
  auto batcher = make_batcher(config);
  add(*batcher, 0, "a");
  add(*batcher, 1, "b");
  batcher->flush_all();
  EXPECT_EQ(flushed.size(), 2u);
  EXPECT_EQ(batcher->pending_records(), 0u);
  // The delay timers were cancelled: nothing further fires.
  simulation.run();
  EXPECT_EQ(flushed.size(), 2u);
  EXPECT_EQ(batcher->stats().batches_flushed, 2u);
}

TEST_F(PublishBatcherTest, DestructionCancelsPendingTimers) {
  BatchingConfig config;
  config.max_records = 100;
  auto batcher = make_batcher(config);
  add(*batcher, 0, "a");
  batcher.reset();
  simulation.run();  // must not fire a flush into a destroyed batcher
  EXPECT_TRUE(flushed.empty());
}

TEST_F(PublishBatcherTest, DisabledConfigRejected) {
  EXPECT_THROW(make_batcher(BatchingConfig{}), InternalError);
}

// ---------- end-to-end parity: batched vs unbatched ----------

struct PipelineOutcome {
  std::vector<std::string> sources;
  std::vector<double> values;        // all records, source-major series order
  std::vector<std::int64_t> times;   // matching ingest timestamps (ns)
  std::string exported;              // serialized store contents
  std::uint64_t stored = 0;
  std::uint64_t batches_at_service = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t acked = 0;
};

/// Three clients, two service ranks, four sources, 30 publishes per source
/// on staggered cadences; optionally a lossy fabric with a crash window.
PipelineOutcome run_pipeline(StorageBackendKind backend,
                             std::size_t batch_records, bool faults,
                             std::uint64_t seed) {
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};

  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  service_config.ranks_per_namespace = 2;
  service_config.storage.backend = backend;
  SomaService service(network, {0}, service_config);
  const auto& ranks = service.instance(Namespace::kHardware).ranks;

  ClientReliability reliability;
  if (faults) {
    // A deterministic crash window rather than random drops: with a lossy
    // link, a lost *ack* duplicates a stored record (at-least-once), and
    // batched and unbatched runs draw different wire patterns — so exact
    // store equality is only defined for schedule-driven faults.
    net::FaultConfig fault_config;
    fault_config.seed = seed;
    net::FaultInjector& injector = network.install_faults(fault_config);
    injector.crash_endpoint(ranks[0], SimTime::from_seconds(10.0),
                            SimTime::from_seconds(20.0));
    reliability.retry.max_attempts = 4;
    reliability.retry.timeout = Duration::milliseconds(100);
    reliability.buffer_on_failure = true;
    reliability.probe_period = Duration::seconds(1);
  }
  BatchingConfig batching;
  batching.max_records = batch_records;
  // Publishes trickle in at monitor cadence; stretch the staleness bound so
  // records actually coalesce across ticks.
  batching.max_delay = Duration::seconds(2.0);

  std::vector<std::unique_ptr<SomaClient>> clients;
  for (int c = 0; c < 3; ++c) {
    clients.push_back(std::make_unique<SomaClient>(
        network, NodeId(c + 1), 6000, Namespace::kHardware, ranks,
        reliability, batching));
  }
  const std::vector<std::string> sources = {"cn0001", "cn0002", "task.7",
                                            "pipeline.9"};
  for (std::size_t s = 0; s < sources.size(); ++s) {
    SomaClient* client = clients[s % clients.size()].get();
    const std::string source = sources[s];
    for (int i = 0; i < 30; ++i) {
      simulation.schedule_at(
          SimTime::from_seconds(1.0 * (i + 1) + 0.1 * double(s)),
          [client, source, i] { client->publish(source, value_node(i)); });
    }
  }
  simulation.run_until(SimTime::from_seconds(45.0));
  for (auto& client : clients) client->flush_batches();
  simulation.run();

  PipelineOutcome outcome;
  const core::StoreView view = service.store_view();
  outcome.sources = view.sources(Namespace::kHardware);
  for (const std::string& source : outcome.sources) {
    for (const TimedRecord* record : view.series(Namespace::kHardware,
                                                 source)) {
      outcome.values.push_back(record->data.fetch_existing("v").as_float64());
      outcome.times.push_back(record->time.nanos());
    }
  }
  std::ostringstream out;
  export_store(service.store(), out);
  outcome.exported = out.str();
  outcome.stored = service.publishes_received();
  outcome.batches_at_service = service.batches_received();
  for (const auto& client : clients) {
    outcome.frames_sent += client->engine_stats().requests_sent;
    outcome.acked += client->stats().acked;
  }
  return outcome;
}

class BatchParityTest : public ::testing::TestWithParam<StorageBackendKind> {};

TEST_P(BatchParityTest, BatchedStoreMatchesUnbatchedFaultFree) {
  const PipelineOutcome plain = run_pipeline(GetParam(), 0, false, 0);
  const PipelineOutcome batched = run_pipeline(GetParam(), 8, false, 0);

  // Same records, same per-source order, same analysis inputs.
  EXPECT_EQ(batched.stored, plain.stored);
  EXPECT_EQ(batched.sources, plain.sources);
  EXPECT_EQ(batched.values, plain.values);
  EXPECT_EQ(batched.acked, plain.acked);
  // Batched records carry client publish time; unbatched ones are stamped at
  // service ingest, microseconds later. The series stay aligned within
  // network latency.
  ASSERT_EQ(batched.times.size(), plain.times.size());
  for (std::size_t i = 0; i < plain.times.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(batched.times[i]),
                static_cast<double>(plain.times[i]), 1e6)  // 1 ms
        << i;
  }
  // Coalescing actually happened, and it shrank the frame count.
  EXPECT_GT(batched.batches_at_service, 0u);
  EXPECT_EQ(plain.batches_at_service, 0u);
  EXPECT_LT(batched.frames_sent, plain.frames_sent);
}

TEST_P(BatchParityTest, BatchedRunsAreDeterministic) {
  const PipelineOutcome a = run_pipeline(GetParam(), 8, false, 0);
  const PipelineOutcome b = run_pipeline(GetParam(), 8, false, 0);
  EXPECT_EQ(a.exported, b.exported);
  EXPECT_EQ(a.times, b.times);
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  EXPECT_EQ(a.batches_at_service, b.batches_at_service);
}

TEST_P(BatchParityTest, BatchedStoreMatchesUnbatchedUnderFaults) {
  // One fault-matrix seed: lossy fabric plus a 10 s crash window on rank 0.
  // Batched and unbatched runs must store the same record multiset per
  // source (at-least-once: a lost ack can duplicate a record, but the same
  // publishes recover either way).
  const std::uint64_t seed = 4242;
  const PipelineOutcome plain = run_pipeline(GetParam(), 0, true, seed);
  const PipelineOutcome batched = run_pipeline(GetParam(), 8, true, seed);

  EXPECT_EQ(batched.sources, plain.sources);
  EXPECT_EQ(batched.stored, plain.stored);
  EXPECT_EQ(batched.values, plain.values);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BatchParityTest,
                         ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---------- failed batches: re-buffer, replay, drop accounting ----------

struct ReplayOutcome {
  std::vector<double> values;
  std::vector<std::int64_t> times;
  std::uint64_t stored = 0;
  SomaClient::ClientStats client{};
};

/// One client publishing a 2-record burst every 2 s for 40 s with 2-record
/// batches; optionally rank 0 crashes over [10 s, 25 s).
ReplayOutcome run_batch_replay(bool crash_collector) {
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};

  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  SomaService service(network, {0}, service_config);
  const auto& ranks = service.instance(Namespace::kHardware).ranks;
  if (crash_collector) {
    net::FaultInjector& injector = network.install_faults(net::FaultConfig{});
    injector.crash_endpoint(ranks[0], SimTime::from_seconds(10.0),
                            SimTime::from_seconds(25.0));
  }

  ClientReliability reliability;
  reliability.retry.max_attempts = 2;
  reliability.retry.timeout = Duration::milliseconds(50);
  reliability.buffer_on_failure = true;
  reliability.probe_period = Duration::seconds(1);
  BatchingConfig batching;
  batching.max_records = 2;
  SomaClient client(network, 1, 6000, Namespace::kHardware, ranks,
                    reliability, batching);

  for (int i = 0; i < 20; ++i) {
    simulation.schedule_at(SimTime::from_seconds(2.0 * (i + 1)),
                           [&client, i] {
                             client.publish("cn0001", value_node(2.0 * i));
                             client.publish("cn0001",
                                            value_node(2.0 * i + 1.0));
                           });
  }
  simulation.run();

  ReplayOutcome outcome;
  for (const TimedRecord* record :
       service.store().series(Namespace::kHardware, "cn0001")) {
    outcome.values.push_back(record->data.fetch_existing("v").as_float64());
    outcome.times.push_back(record->time.nanos());
  }
  outcome.stored = service.publishes_received();
  outcome.client = client.stats();
  return outcome;
}

TEST(BatchReplayTest, FailedBatchReplaysWithOriginalTimestamps) {
  const ReplayOutcome faulty = run_batch_replay(true);
  const ReplayOutcome clean = run_batch_replay(false);

  // Nothing lost: all 40 records stored, in publish order, and the series
  // is identical to the fault-free batched run — including timestamps,
  // because batched and replayed records both carry client publish time.
  EXPECT_EQ(faulty.stored, 40u);
  EXPECT_EQ(faulty.values, clean.values);
  EXPECT_EQ(faulty.times, clean.times);

  // The outage window [10 s, 25 s) swallows the 8 bursts at 10..24 s:
  // 16 records re-buffered from failed batches, then replayed.
  EXPECT_EQ(faulty.client.buffered, 16u);
  EXPECT_EQ(faulty.client.replayed, 16u);
  EXPECT_EQ(faulty.client.dropped_overflow, 0u);
  EXPECT_EQ(faulty.client.dropped_batch_records, 0u);
  EXPECT_EQ(clean.client.buffered, 0u);
  EXPECT_GT(faulty.client.batches_sent, 0u);
}

TEST(BatchReplayTest, DroppedBatchRecordsCountedDistinctly) {
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  SomaService service(network, {0}, service_config);
  const auto& ranks = service.instance(Namespace::kHardware).ranks;
  net::FaultInjector& injector = network.install_faults(net::FaultConfig{});
  injector.crash_endpoint(ranks[0], SimTime::zero(),
                          SimTime::from_seconds(1e6));

  ClientReliability reliability;
  reliability.retry.max_attempts = 1;
  reliability.retry.timeout = Duration::milliseconds(10);
  reliability.buffer_on_failure = true;
  reliability.probe_period = Duration::seconds(1);
  reliability.max_buffered = 4;
  BatchingConfig batching;
  batching.max_records = 2;
  SomaClient client(network, 1, 6000, Namespace::kHardware, ranks,
                    reliability, batching);

  // One burst: all 8 records pass through the batcher (4 batches of 2)
  // before any failure is detected, then every batch times out against the
  // dead collector and re-buffers its records.
  simulation.schedule_at(SimTime::from_seconds(1.0), [&client] {
    for (int i = 0; i < 8; ++i) client.publish("cn0001", value_node(i));
  });
  // The collector never recovers; cut the run short of the probe loop.
  simulation.run_until(SimTime::from_seconds(20.0));

  EXPECT_TRUE(client.degraded());
  EXPECT_EQ(client.buffered_pending(), 4u);
  EXPECT_EQ(client.stats().batches_sent, 4u);
  // Every eviction was a record that arrived via a failed batch — counted
  // apart from plain overflow drops.
  EXPECT_EQ(client.stats().dropped_batch_records, 4u);
  EXPECT_EQ(client.stats().dropped_overflow, 0u);
  EXPECT_EQ(service.publishes_received(), 0u);
}

}  // namespace
}  // namespace soma
