// Shard replication, heartbeat failure detection, and crash recovery.
//
// The acceptance bar: with factor-2 replication and a crash window covering
// more than 10% of the run, the final merged StoreView is identical to the
// fault-free run for BOTH storage backends — zero record loss — and the
// recovered rank serves complete reads from its own primary after re-sync.
// Every suite name contains "Replication" so the CI fault-matrix leg picks
// the lot up with `ctest --tests-regex "Fault|Replication"`; like the fault
// matrix, the crash seeds can be shifted via SOMA_FAULT_SEED.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"
#include "net/wire.hpp"
#include "sim/simulation.hpp"
#include "soma/client.hpp"
#include "soma/export.hpp"
#include "soma/namespaces.hpp"
#include "soma/replication.hpp"
#include "soma/service.hpp"
#include "soma/store.hpp"

namespace soma {
namespace {

using core::ClientReliability;
using core::Namespace;
using core::RankHealth;
using core::ReplicationConfig;
using core::ServiceConfig;
using core::SomaClient;
using core::SomaService;
using core::StorageBackend;
using core::StorageBackendKind;
using core::TimedRecord;

datamodel::Node value_node(double v) {
  datamodel::Node node;
  node["v"].set(v);
  return node;
}

std::uint64_t matrix_seed() {
  if (const char* env = std::getenv("SOMA_FAULT_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 1234;
}

/// Source names that land on the given shard of a 2-shard group (the FNV
/// route is platform-stable, so this is deterministic everywhere).
std::vector<std::string> sources_on_shard(int shard, int want) {
  std::vector<std::string> out;
  for (int i = 0; out.size() < static_cast<std::size_t>(want); ++i) {
    std::string name = "cn" + std::to_string(1000 + i);
    if (core::route_source(name, 2) == static_cast<std::size_t>(shard)) {
      out.push_back(std::move(name));
    }
  }
  return out;
}

/// Tight heartbeat settings so tests detect crashes and recoveries within
/// fractions of a simulated second instead of the deployment-scale 5 s.
ReplicationConfig fast_replication(int factor) {
  ReplicationConfig replication;
  replication.factor = factor;
  replication.heartbeat_period = Duration::milliseconds(200);
  replication.heartbeat_timeout = Duration::milliseconds(100);
  return replication;
}

// ---------- off-by-default parity ----------

struct PlainRunOutcome {
  std::uint64_t events = 0;
  std::int64_t final_nanos = 0;
  std::uint64_t publishes = 0;
  std::uint64_t records = 0;
  bool operator==(const PlainRunOutcome&) const = default;
};

PlainRunOutcome run_unreplicated(const ReplicationConfig& replication) {
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  service_config.ranks_per_namespace = 2;
  service_config.replication = replication;
  SomaService service(network, {0}, service_config);
  SomaClient client(network, 1, 6000, Namespace::kHardware,
                    service.instance(Namespace::kHardware).ranks);
  for (int i = 0; i < 10; ++i) {
    simulation.schedule_at(SimTime::from_seconds(1.0 * (i + 1)),
                           [&client, i] {
                             client.publish("cn" + std::to_string(1000 + i),
                                            value_node(i));
                           });
  }
  PlainRunOutcome outcome;
  outcome.final_nanos = simulation.run().nanos();
  outcome.events = simulation.events_dispatched();
  outcome.publishes = service.publishes_received();
  outcome.records = service.store_view().total_records();
  return outcome;
}

TEST(ReplicationConfigTest, FactorOneConstructsNothing) {
  // Factor 1 must not build a manager, arm heartbeats, or perturb the run in
  // any way — even with every other replication knob set to something loud.
  ReplicationConfig noisy;
  noisy.factor = 1;
  noisy.seed = 999;
  noisy.heartbeat_period = Duration::milliseconds(1);
  noisy.heartbeat_timeout = Duration::milliseconds(1);

  const PlainRunOutcome plain = run_unreplicated(ReplicationConfig{});
  const PlainRunOutcome loud = run_unreplicated(noisy);
  EXPECT_EQ(plain, loud);
  EXPECT_EQ(plain.publishes, 10u);

  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  SomaService service(network, {0}, service_config);
  EXPECT_EQ(service.replication(), nullptr);
}

// ---------- steady-state replication ----------

class ReplicationPipelineTest : public ::testing::Test {
 protected:
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};

  /// Run to `horizon`, then stop heartbeats and drain in-flight frames.
  void drain(SomaService& service, double horizon_s = 10.0) {
    simulation.run_until(SimTime::from_seconds(horizon_s));
    service.replication()->stop();
    simulation.run();
  }

  /// Every shard's replica (on its successor) must mirror the primary:
  /// same record count, same sources, same values in order.
  void expect_replicas_mirror_primaries(const SomaService& service) {
    const core::ReplicationManager* replication = service.replication();
    ASSERT_NE(replication, nullptr);
    for (int shard = 0; shard < 2; ++shard) {
      const StorageBackend& primary =
          service.store().shard(Namespace::kHardware, shard);
      const StorageBackend* replica =
          replication->replica(Namespace::kHardware, shard, (shard + 1) % 2);
      ASSERT_NE(replica, nullptr) << "shard " << shard;
      EXPECT_EQ(replica->record_count(), primary.record_count())
          << "shard " << shard;
      ASSERT_EQ(replica->sources(), primary.sources()) << "shard " << shard;
      for (const std::string& source : primary.sources()) {
        const auto primary_series = primary.series(source);
        const auto replica_series = replica->series(source);
        ASSERT_EQ(replica_series.size(), primary_series.size()) << source;
        for (std::size_t i = 0; i < primary_series.size(); ++i) {
          EXPECT_EQ(replica_series[i]->time, primary_series[i]->time);
          EXPECT_EQ(
              replica_series[i]->data.fetch_existing("v").as_float64(),
              primary_series[i]->data.fetch_existing("v").as_float64());
        }
      }
    }
  }
};

TEST_F(ReplicationPipelineTest, SinglePublishesReachSuccessorReplica) {
  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  service_config.ranks_per_namespace = 2;
  service_config.replication = fast_replication(2);
  SomaService service(network, {0}, service_config);
  SomaClient client(network, 1, 6000, Namespace::kHardware,
                    service.instance(Namespace::kHardware).ranks);

  // Sources on both shards, so both replication directions carry traffic.
  const auto on0 = sources_on_shard(0, 2);
  const auto on1 = sources_on_shard(1, 2);
  int published = 0;
  for (int i = 0; i < 3; ++i) {
    for (const auto* group : {&on0, &on1}) {
      for (const std::string& source : *group) {
        simulation.schedule_at(
            SimTime::from_seconds(0.1 * (published + 1)),
            [&client, source, published] {
              client.publish(source, value_node(published));
            });
        ++published;
      }
    }
  }
  drain(service);

  EXPECT_EQ(service.publishes_received(), 12u);
  expect_replicas_mirror_primaries(service);
  const auto& stats = service.replication()->stats();
  EXPECT_EQ(stats.records_replicated, 12u);
  EXPECT_GT(stats.frames_sent, 0u);
  EXPECT_EQ(stats.crash_wipes, 0u);
  EXPECT_EQ(service.replication()->replica_lag(Namespace::kHardware, 0), 0u);
  EXPECT_EQ(service.replication()->replica_lag(Namespace::kHardware, 1), 0u);
}

TEST_F(ReplicationPipelineTest, BatchedPublishesReachSuccessorReplica) {
  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  service_config.ranks_per_namespace = 2;
  service_config.replication = fast_replication(2);
  SomaService service(network, {0}, service_config);
  core::BatchingConfig batching;
  batching.max_records = 8;
  SomaClient client(network, 1, 6000, Namespace::kHardware,
                    service.instance(Namespace::kHardware).ranks, {},
                    batching);

  const auto on0 = sources_on_shard(0, 1);
  const auto on1 = sources_on_shard(1, 1);
  simulation.schedule_at(SimTime::from_seconds(1.0), [&] {
    for (int i = 0; i < 16; ++i) {
      client.publish(on0[0], value_node(i));
      client.publish(on1[0], value_node(100 + i));
    }
    client.flush_batches();
  });
  drain(service);

  EXPECT_EQ(service.publishes_received(), 32u);
  expect_replicas_mirror_primaries(service);
  EXPECT_EQ(service.replication()->stats().records_replicated, 32u);
}

// ---------- failure detection + read routing ----------

TEST_F(ReplicationPipelineTest, DeadRankReadsServedByReplica) {
  net::FaultInjector& injector = network.install_faults(net::FaultConfig{});
  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  service_config.ranks_per_namespace = 2;
  service_config.replication = fast_replication(2);
  SomaService service(network, {0}, service_config);
  const auto& ranks = service.instance(Namespace::kHardware).ranks;
  SomaClient client(network, 1, 6000, Namespace::kHardware, ranks);

  const std::string source = sources_on_shard(0, 1)[0];
  for (int i = 0; i < 8; ++i) {
    simulation.schedule_at(SimTime::from_seconds(0.2 * (i + 1)),
                           [&client, source, i] {
                             client.publish(source, value_node(i));
                           });
  }
  // Rank 0 (the source's home) dies at t=5 and never comes back.
  injector.crash_endpoint(ranks[0], SimTime::from_seconds(5.0),
                          SimTime::from_seconds(1e6));
  simulation.run_until(SimTime::from_seconds(20.0));

  const core::ReplicationManager* replication = service.replication();
  EXPECT_EQ(replication->health(Namespace::kHardware, 0), RankHealth::kDead);
  EXPECT_EQ(replication->health(Namespace::kHardware, 1), RankHealth::kLive);
  EXPECT_GE(replication->stats().suspected_transitions, 1u);
  EXPECT_GE(replication->stats().dead_transitions, 1u);
  EXPECT_EQ(replication->stats().crash_wipes, 1u);

  // The crashed rank lost its memory, but the merged view still serves the
  // full series from the successor's replica.
  const auto series = service.store_view().series(Namespace::kHardware,
                                                  source);
  ASSERT_EQ(series.size(), 8u);
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(series[i]->data.fetch_existing("v").as_float64(),
              static_cast<double>(i));
  }
  // Ground truth: the primary really is empty — the records come from the
  // read override, not a surviving primary.
  EXPECT_EQ(service.store().shard(Namespace::kHardware, 0).record_count(),
            0u);
}

// ---------- crash recovery: the zero-loss acceptance bar ----------

struct RecoveryOutcome {
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, std::vector<std::int64_t>> times;
  std::uint64_t store_records = 0;
  core::ReplicationStats stats{};
  bool operator==(const RecoveryOutcome&) const = default;
};

RecoveryOutcome run_recovery_scenario(StorageBackendKind backend,
                                      bool with_crash, std::uint64_t seed) {
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  net::FaultConfig fault_config;
  fault_config.seed = seed;
  net::FaultInjector& injector = network.install_faults(fault_config);

  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  service_config.ranks_per_namespace = 2;
  service_config.storage.backend = backend;
  service_config.replication = fast_replication(2);
  service_config.replication.seed = seed;
  SomaService service(network, {0}, service_config);
  const auto& ranks = service.instance(Namespace::kHardware).ranks;

  // Rank 0 is down for [20, 29.5) — ~16% of the 60 s run, comfortably past
  // the 10% bar. The window ends off the 2 s publish grid so recovery and
  // client replay never race a publish instant.
  if (with_crash) {
    injector.crash_endpoint(ranks[0], SimTime::from_seconds(20.0),
                            SimTime::from_seconds(29.5));
  }

  // Buffer-and-replay clients (the PR 2 machinery): publishes that hit the
  // crash window are parked and replayed once the rank answers probes again.
  ClientReliability reliability;
  reliability.retry.max_attempts = 2;
  reliability.retry.timeout = Duration::milliseconds(50);
  reliability.buffer_on_failure = true;
  reliability.probe_period = Duration::seconds(1);
  SomaClient client(network, 1, 6000, Namespace::kHardware, ranks,
                    reliability);

  // Two sources per shard, one publish every 2 s each for 60 s.
  std::vector<std::string> sources = sources_on_shard(0, 2);
  for (std::string& s : sources_on_shard(1, 2)) sources.push_back(s);
  for (int i = 0; i < 30; ++i) {
    for (std::size_t s = 0; s < sources.size(); ++s) {
      const std::string source = sources[s];
      const double value = static_cast<double>(i * 10 + s);
      simulation.schedule_at(SimTime::from_seconds(2.0 * (i + 1)),
                             [&client, source, value] {
                               client.publish(source, value_node(value));
                             });
    }
  }

  simulation.run_until(SimTime::from_seconds(70.0));
  service.replication()->stop();
  simulation.run();

  RecoveryOutcome outcome;
  const core::StoreView view = service.store_view();
  for (const std::string& source : sources) {
    for (const TimedRecord* record : view.series(Namespace::kHardware,
                                                 source)) {
      outcome.values[source].push_back(
          record->data.fetch_existing("v").as_float64());
      outcome.times[source].push_back(record->time.nanos());
    }
  }
  outcome.store_records = service.store_view().total_records();
  outcome.stats = service.replication()->stats();
  return outcome;
}

class ReplicationRecoveryTest
    : public ::testing::TestWithParam<StorageBackendKind> {};

TEST_P(ReplicationRecoveryTest, CrashWindowLosesNothing) {
  const StorageBackendKind backend = GetParam();
  const std::uint64_t seed = matrix_seed();
  const RecoveryOutcome faulty = run_recovery_scenario(backend, true, seed);
  const RecoveryOutcome clean = run_recovery_scenario(backend, false, seed);

  // Zero loss: the merged view is value-identical to the fault-free run —
  // pre-crash records restored by resync, in-window ones by client replay.
  EXPECT_EQ(faulty.values, clean.values);
  EXPECT_EQ(faulty.store_records, 120u);
  for (const auto& [source, clean_times] : clean.times) {
    const auto& faulty_times = faulty.times.at(source);
    ASSERT_EQ(faulty_times.size(), clean_times.size()) << source;
    for (std::size_t i = 0; i < clean_times.size(); ++i) {
      // Replayed records carry their original publish timestamps; live ones
      // differ from the clean run only by per-run microsecond jitter.
      EXPECT_NEAR(static_cast<double>(faulty_times[i]),
                  static_cast<double>(clean_times[i]), 1e6)
          << source << " record " << i;
    }
  }

  // The crash and the recovery actually happened.
  EXPECT_EQ(faulty.stats.crash_wipes, 1u);
  EXPECT_EQ(faulty.stats.recoveries_started, 1u);
  EXPECT_EQ(faulty.stats.recoveries_completed, 1u);
  EXPECT_GT(faulty.stats.resync_records, 0u);
  EXPECT_EQ(clean.stats.crash_wipes, 0u);
  EXPECT_EQ(clean.stats.resync_records, 0u);
}

TEST_P(ReplicationRecoveryTest, RecoveredRankServesCompletePrimaryReads) {
  const StorageBackendKind backend = GetParam();
  const std::uint64_t seed = matrix_seed() + 17;

  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  net::FaultConfig fault_config;
  fault_config.seed = seed;
  net::FaultInjector& injector = network.install_faults(fault_config);

  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  service_config.ranks_per_namespace = 2;
  service_config.storage.backend = backend;
  service_config.replication = fast_replication(2);
  SomaService service(network, {0}, service_config);
  const auto& ranks = service.instance(Namespace::kHardware).ranks;
  injector.crash_endpoint(ranks[0], SimTime::from_seconds(10.0),
                          SimTime::from_seconds(15.25));

  ClientReliability reliability;
  reliability.retry.max_attempts = 2;
  reliability.retry.timeout = Duration::milliseconds(50);
  reliability.buffer_on_failure = true;
  reliability.probe_period = Duration::seconds(1);
  SomaClient client(network, 1, 6000, Namespace::kHardware, ranks,
                    reliability);

  const std::string source = sources_on_shard(0, 1)[0];
  for (int i = 0; i < 15; ++i) {
    simulation.schedule_at(SimTime::from_seconds(2.0 * (i + 1)),
                           [&client, source, i] {
                             client.publish(source, value_node(i));
                           });
  }
  simulation.run_until(SimTime::from_seconds(40.0));
  service.replication()->stop();
  simulation.run();

  // Back in the read set, reading from its own primary — which holds the
  // complete series (resync + replay), time-sorted.
  EXPECT_EQ(service.replication()->health(Namespace::kHardware, 0),
            RankHealth::kLive);
  const StorageBackend& primary =
      service.store().shard(Namespace::kHardware, 0);
  const auto series = primary.series(source);
  ASSERT_EQ(series.size(), 15u);
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(series[i]->data.fetch_existing("v").as_float64(),
              static_cast<double>(i));
    if (i > 0) {
      EXPECT_LE(series[i - 1]->time, series[i]->time);
    }
  }
  // Its replicas healed too: the other primary re-shipped its log, and the
  // recovered rank's own log re-replicated to its successor.
  EXPECT_EQ(service.replication()->replica_lag(Namespace::kHardware, 0), 0u);
  EXPECT_EQ(service.replication()->replica_lag(Namespace::kHardware, 1), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ReplicationRecoveryTest,
                         ::testing::Values(StorageBackendKind::kMap,
                                           StorageBackendKind::kLog),
                         [](const auto& info) {
                           return std::string(core::to_string(info.param));
                         });

// ---------- determinism ----------

TEST(ReplicationDeterminismTest, SameSeedReplicatedRunsAreBitIdentical) {
  const std::uint64_t seed = matrix_seed() + 99;
  const RecoveryOutcome first =
      run_recovery_scenario(StorageBackendKind::kMap, true, seed);
  const RecoveryOutcome second =
      run_recovery_scenario(StorageBackendKind::kMap, true, seed);
  EXPECT_EQ(first.values, second.values);
  EXPECT_EQ(first.times, second.times);
  EXPECT_EQ(first.store_records, second.store_records);
  EXPECT_EQ(first.stats.records_replicated, second.stats.records_replicated);
  EXPECT_EQ(first.stats.frames_sent, second.stats.frames_sent);
  EXPECT_EQ(first.stats.heartbeats_sent, second.stats.heartbeats_sent);
  EXPECT_EQ(first.stats.heartbeats_missed, second.stats.heartbeats_missed);
  EXPECT_EQ(first.stats.resync_records, second.stats.resync_records);
}

// ---------- pinned crash-recovery trace ----------
//
// One crash window end to end — wipe, chunked resync, finish_recovery —
// over a lossy fabric, at a fixed seed (SOMA_FAULT_SEED is deliberately
// ignored). Every ReplicationStats counter, the fabric's wire totals and a
// digest of every primary and replica record are pinned, so a change to the
// shipping, resync or apply paths that moves one byte, one frame or one
// event shows up here even when the zero-loss outcome still holds.

struct PinnedRecovery {
  core::ReplicationStats stats{};
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t digest = 0;
};

/// FNV-1a over (source, time, packed payload) of every record, primaries
/// first, then each holder's replica of each home shard.
class RecordDigest {
 public:
  void add(const StorageBackend& backend) {
    for (const std::string& source : backend.sources()) {
      for (const TimedRecord* record : backend.series(source)) {
        mix(std::as_bytes(std::span(source.data(), source.size())));
        const std::int64_t nanos = record->time.nanos();
        mix(std::as_bytes(std::span(&nanos, 1)));
        mix(record->data.pack());
      }
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void mix(std::span<const std::byte> bytes) {
    for (const std::byte b : bytes) {
      hash_ ^= static_cast<std::uint64_t>(b);
      hash_ *= 1099511628211ULL;
    }
  }
  std::uint64_t hash_ = 14695981039346656037ULL;
};

PinnedRecovery run_pinned_recovery(int factor) {
  constexpr int kRanks = 3;
  constexpr std::uint64_t kSeed = 4242;
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  net::FaultConfig fault_config;
  fault_config.seed = kSeed;
  fault_config.default_link.drop_probability = 0.02;
  net::FaultInjector& injector = network.install_faults(fault_config);

  // One rank per node, so replication and resync frames cross lossy links.
  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  service_config.ranks_per_namespace = kRanks;
  service_config.replication = fast_replication(factor);
  service_config.replication.seed = kSeed;
  service_config.replication.max_batch_records = 8;  // several windows
  SomaService service(network, {0, 2, 4}, service_config);
  const auto& ranks = service.instance(Namespace::kHardware).ranks;
  injector.crash_endpoint(ranks[0], SimTime::from_seconds(20.0),
                          SimTime::from_seconds(29.5));

  ClientReliability reliability;
  reliability.retry.max_attempts = 2;
  reliability.retry.timeout = Duration::milliseconds(50);
  reliability.buffer_on_failure = true;
  reliability.probe_period = Duration::seconds(1);
  SomaClient client(network, 1, 6000, Namespace::kHardware, ranks,
                    reliability);
  for (int i = 0; i < 30; ++i) {
    for (int s = 0; s < 9; ++s) {
      const std::string source = "cn" + std::to_string(1000 + s);
      const double value = static_cast<double>(i * 10 + s);
      simulation.schedule_at(SimTime::from_seconds(2.0 * (i + 1)),
                             [&client, source, value] {
                               client.publish(source, value_node(value));
                             });
    }
  }
  simulation.run_until(SimTime::from_seconds(70.0));
  service.replication()->stop();
  simulation.run();

  RecordDigest digest;
  for (int shard = 0; shard < kRanks; ++shard) {
    digest.add(service.store().shard(Namespace::kHardware, shard));
  }
  for (int home = 0; home < kRanks; ++home) {
    for (int holder = 0; holder < kRanks; ++holder) {
      if (const StorageBackend* replica = service.replication()->replica(
              Namespace::kHardware, home, holder)) {
        digest.add(*replica);
      }
    }
  }
  PinnedRecovery pinned;
  pinned.stats = service.replication()->stats();
  pinned.bytes_sent = network.bytes_sent();
  pinned.messages_sent = network.messages_sent();
  pinned.digest = digest.value();
  return pinned;
}

class ReplicationRecoveryPinTest : public ::testing::TestWithParam<int> {};

TEST_P(ReplicationRecoveryPinTest, CrashWindowTraceIsPinned) {
  struct Expected {
    core::ReplicationStats stats;
    std::uint64_t bytes_sent;
    std::uint64_t messages_sent;
    std::uint64_t digest;
  };
  // records_replicated, frames_sent, heartbeats_sent, heartbeats_missed,
  // suspected_transitions, dead_transitions, crash_wipes,
  // recoveries_started, recoveries_completed, resync_records.
  const Expected expected =
      GetParam() == 2
          ? Expected{{370, 222, 1002, 87, 3, 1, 1, 1, 1, 27},
                     295944, 2987, 0x2afe00d82322aa55ULL}
          : Expected{{741, 426, 2004, 177, 3, 1, 1, 1, 1, 27},
                     526255, 5357, 0xe7873da7cf8a44d3ULL};

  const PinnedRecovery got = run_pinned_recovery(GetParam());
  const core::ReplicationStats& s = got.stats;
  const core::ReplicationStats& e = expected.stats;
  EXPECT_EQ(s.records_replicated, e.records_replicated);
  EXPECT_EQ(s.frames_sent, e.frames_sent);
  EXPECT_EQ(s.heartbeats_sent, e.heartbeats_sent);
  EXPECT_EQ(s.heartbeats_missed, e.heartbeats_missed);
  EXPECT_EQ(s.suspected_transitions, e.suspected_transitions);
  EXPECT_EQ(s.dead_transitions, e.dead_transitions);
  EXPECT_EQ(s.crash_wipes, e.crash_wipes);
  EXPECT_EQ(s.recoveries_started, e.recoveries_started);
  EXPECT_EQ(s.recoveries_completed, e.recoveries_completed);
  EXPECT_EQ(s.resync_records, e.resync_records);
  EXPECT_EQ(got.bytes_sent, expected.bytes_sent);
  EXPECT_EQ(got.messages_sent, expected.messages_sent);
  EXPECT_EQ(got.digest, expected.digest);
}

INSTANTIATE_TEST_SUITE_P(Factors, ReplicationRecoveryPinTest,
                         ::testing::Values(2, 3), [](const auto& info) {
                           return "factor" + std::to_string(info.param);
                         });

// ---------- observability: export + shards query ----------

TEST_F(ReplicationPipelineTest, ShardReportAndQueryCarryReplicaLag) {
  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  service_config.ranks_per_namespace = 2;
  service_config.replication = fast_replication(2);
  SomaService service(network, {0}, service_config);
  SomaClient client(network, 1, 6000, Namespace::kHardware,
                    service.instance(Namespace::kHardware).ranks);

  const auto on0 = sources_on_shard(0, 1);
  const auto on1 = sources_on_shard(1, 1);
  simulation.schedule_at(SimTime::from_seconds(1.0), [&] {
    for (int i = 0; i < 4; ++i) {
      client.publish(on0[0], value_node(i));
      client.publish(on1[0], value_node(i));
    }
  });
  datamodel::Node shards_reply;
  simulation.schedule_at(SimTime::from_seconds(5.0), [&] {
    datamodel::Node request;
    request["kind"].set(std::string("shards"));
    client.query(std::move(request),
                 [&](datamodel::Node reply) { shards_reply = reply; });
  });
  drain(service);

  const datamodel::Node report =
      core::export_shard_report(service.store(), service.replication());
  const datamodel::Node& hw = report.fetch_existing("hardware");
  for (int shard = 0; shard < 2; ++shard) {
    const datamodel::Node& entry =
        hw.fetch_existing("shard_" + std::to_string(shard));
    EXPECT_EQ(entry.fetch_existing("replica_lag_records").as_int64(), 0);
    EXPECT_EQ(entry.fetch_existing("health").as_string(), "live");
  }
  const datamodel::Node& summary = report.fetch_existing("replication");
  EXPECT_EQ(summary.fetch_existing("factor").as_int64(), 2);
  EXPECT_EQ(summary.fetch_existing("records_replicated").as_int64(), 8);
  EXPECT_EQ(summary.fetch_existing("crash_wipes").as_int64(), 0);

  // The remote "shards" query carries the same per-shard fields.
  const datamodel::Node& remote = shards_reply.fetch_existing("hardware");
  for (int shard = 0; shard < 2; ++shard) {
    const datamodel::Node& slot =
        remote.fetch_existing("shard_" + std::to_string(shard));
    EXPECT_TRUE(slot.find_child("replica_lag_records") != nullptr);
    EXPECT_EQ(slot.fetch_existing("health").as_string(), "live");
  }

  // The query's reply is the report itself (nothing changed since).
  EXPECT_EQ(shards_reply.to_json(), report.to_json());

  // Unreplicated stores report no replication subtree.
  const datamodel::Node plain = core::export_shard_report(service.store());
  EXPECT_EQ(plain.find_child("replication"), nullptr);
}

// ---------- instance stats: the service ranks' own calls ----------

TEST_F(ReplicationPipelineTest, InstanceStatsCountReplicationCalls) {
  // Service ranks are RPC clients too: they send replication frames and
  // heartbeats, and on a lossy fabric they retry frames. instance_stats
  // must carry those client-side counters, not only the server-side ones.
  net::FaultConfig fault_config;
  fault_config.seed = 99;
  fault_config.default_link.drop_probability = 0.05;
  network.install_faults(fault_config);
  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  service_config.ranks_per_namespace = 3;
  service_config.replication = fast_replication(2);
  SomaService service(network, {0, 2, 4}, service_config);
  SomaClient client(network, 1, 6000, Namespace::kHardware,
                    service.instance(Namespace::kHardware).ranks);
  for (int i = 0; i < 20; ++i) {
    simulation.schedule_at(SimTime::from_seconds(0.5 * (i + 1)), [&, i] {
      client.publish("cn" + std::to_string(1000 + i % 6), value_node(i));
    });
  }
  drain(service, 20.0);

  const net::EngineStats stats = service.instance_stats(Namespace::kHardware);
  const core::ReplicationStats& replication = service.replication()->stats();
  EXPECT_GT(stats.retries, 0u);
  // Every first attempt is a replication frame or a heartbeat; every
  // further attempt is a retry.
  EXPECT_EQ(stats.requests_sent, replication.frames_sent +
                                     replication.heartbeats_sent +
                                     stats.retries);
  // Each timeout either retried the call or gave it up.
  EXPECT_EQ(stats.timeouts, stats.retries + stats.calls_failed);
  EXPECT_GT(stats.responses_received, 0u);
}

// ---------- the packed replication log ----------
//
// The log holds each record as the bytes it arrived in and ships them
// verbatim. For every body a client builds those bytes are pack() of the
// stored record; a hand-made body with repeated names ships its original
// bytes, which decode to the same record.

class ReplicationLogBytesTest : public ReplicationPipelineTest {
 protected:
  ServiceConfig replicated_config() const {
    ServiceConfig config;
    config.namespaces = {Namespace::kHardware};
    config.ranks_per_namespace = 2;
    config.replication = fast_replication(2);
    return config;
  }

  /// Order a list of encodings by a hash of their bytes, so two lists of
  /// the same encodings line up. (Ordering by the bytes themselves trips a
  /// false -Wstringop-overread in GCC 12 Release builds.)
  static void sort_by_content(std::vector<std::vector<std::byte>>& list) {
    const auto key = [](const std::vector<std::byte>& bytes) {
      return std::hash<std::string_view>{}(std::string_view(
          reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    };
    std::sort(list.begin(), list.end(),
              [&key](const auto& a, const auto& b) { return key(a) < key(b); });
  }

  /// Every entry of `shard`'s replication log is pack() of a record its
  /// primary holds, one for one. Compared as sorted lists: resync and
  /// replay can interleave in a rebuilt log.
  static void expect_log_is_packed_primary(const SomaService& service,
                                           int shard) {
    const core::ReplicationManager* replication = service.replication();
    const auto status = replication->shard_status();
    std::vector<std::vector<std::byte>> logged;
    for (std::size_t i = 0; i < status.at(shard).log_records; ++i) {
      const auto bytes =
          replication->logged_record(Namespace::kHardware, shard, i);
      logged.emplace_back(bytes.begin(), bytes.end());
    }
    std::vector<std::vector<std::byte>> stored;
    const StorageBackend& primary =
        service.store().shard(Namespace::kHardware, shard);
    for (const std::string& source : primary.sources()) {
      for (const TimedRecord* record : primary.series(source)) {
        stored.push_back(record->data.pack());
      }
    }
    sort_by_content(logged);
    sort_by_content(stored);
    EXPECT_FALSE(logged.empty()) << "shard " << shard;
    EXPECT_EQ(logged, stored) << "shard " << shard;
  }

  /// A soma.publish body carrying `data` (raw bytes, possibly absent)
  /// after the ns and source fields.
  static std::vector<std::byte> publish_body(
      const std::string& source,
      const std::optional<std::vector<std::byte>>& data) {
    datamodel::Node head;
    head["ns"].set(std::string("hardware"));
    head["source"].set(source);
    std::vector<std::byte> body = head.pack();
    if (!data) return body;
    bytes::store_u32(body.data() + 1, 3);  // the envelope's child count
    const std::string name = "data";
    const std::size_t at = body.size();
    body.resize(at + 4);
    bytes::store_u32(body.data() + at, 4);
    for (const char c : name) body.push_back(static_cast<std::byte>(c));
    body.insert(body.end(), data->begin(), data->end());
    return body;
  }

  /// Send one hand-made soma.publish body to `rank`.
  void send_raw_publish(net::Engine& sender, const net::Address& rank,
                        const std::vector<std::byte>& body) {
    sender.call_raw(sender.network().resolve(rank), "soma.publish",
                    body.size(),
                    [&body](std::vector<std::byte>& frame) {
                      frame.insert(frame.end(), body.begin(), body.end());
                    });
  }
};

TEST_F(ReplicationLogBytesTest, LiveLogHoldsPackedRecords) {
  SomaService service(network, {0}, replicated_config());
  SomaClient client(network, 1, 6000, Namespace::kHardware,
                    service.instance(Namespace::kHardware).ranks);
  const auto on0 = sources_on_shard(0, 2);
  const auto on1 = sources_on_shard(1, 2);
  simulation.schedule_at(SimTime::from_seconds(1.0), [&] {
    for (int i = 0; i < 6; ++i) {
      datamodel::Node record = value_node(i);
      record["host"].set(on0[i % 2]);
      client.publish(on0[i % 2], record);
      client.publish(on1[i % 2], value_node(100 + i));
    }
  });
  drain(service);
  EXPECT_EQ(service.replication()->stats().records_replicated, 12u);
  expect_log_is_packed_primary(service, 0);
  expect_log_is_packed_primary(service, 1);
  expect_replicas_mirror_primaries(service);
}

TEST_F(ReplicationLogBytesTest, BatchedLogHoldsPackedRecords) {
  SomaService service(network, {0}, replicated_config());
  core::BatchingConfig batching;
  batching.max_records = 4;
  SomaClient client(network, 1, 6000, Namespace::kHardware,
                    service.instance(Namespace::kHardware).ranks, {},
                    batching);
  const auto on0 = sources_on_shard(0, 1);
  const auto on1 = sources_on_shard(1, 1);
  simulation.schedule_at(SimTime::from_seconds(1.0), [&] {
    for (int i = 0; i < 10; ++i) {
      client.publish(on0[0], value_node(i));
      client.publish(on1[0], value_node(100 + i));
    }
    client.flush_batches();
  });
  drain(service);
  EXPECT_EQ(service.replication()->stats().records_replicated, 20u);
  expect_log_is_packed_primary(service, 0);
  expect_log_is_packed_primary(service, 1);
  expect_replicas_mirror_primaries(service);
}

TEST_F(ReplicationLogBytesTest, ResyncedLogHoldsPackedRecords) {
  net::FaultConfig fault_config;
  fault_config.seed = matrix_seed();
  net::FaultInjector& injector = network.install_faults(fault_config);
  SomaService service(network, {0}, replicated_config());
  const auto& ranks = service.instance(Namespace::kHardware).ranks;
  injector.crash_endpoint(ranks[0], SimTime::from_seconds(10.0),
                          SimTime::from_seconds(15.25));
  ClientReliability reliability;
  reliability.retry.max_attempts = 2;
  reliability.retry.timeout = Duration::milliseconds(50);
  reliability.buffer_on_failure = true;
  reliability.probe_period = Duration::seconds(1);
  SomaClient client(network, 1, 6000, Namespace::kHardware, ranks,
                    reliability);
  const std::string source = sources_on_shard(0, 1)[0];
  for (int i = 0; i < 12; ++i) {
    simulation.schedule_at(SimTime::from_seconds(2.0 * (i + 1)),
                           [&client, source, i] {
                             client.publish(source, value_node(i));
                           });
  }
  drain(service, 40.0);

  // The rebuilt log came from a resync stream (each snapshot record packed
  // once) plus replayed publishes.
  EXPECT_GT(service.replication()->stats().resync_records, 0u);
  EXPECT_EQ(service.replication()->stats().recoveries_completed, 1u);
  EXPECT_EQ(service.store().shard(Namespace::kHardware, 0).record_count(),
            12u);
  expect_log_is_packed_primary(service, 0);
  EXPECT_EQ(service.replication()->replica_lag(Namespace::kHardware, 0), 0u);
}

TEST_F(ReplicationLogBytesTest, MissingDataReplicatesAsOneByte) {
  SomaService service(network, {0}, replicated_config());
  const auto& ranks = service.instance(Namespace::kHardware).ranks;
  net::Engine sender(network, net::make_address(1, 6000));
  const std::string source = sources_on_shard(0, 1)[0];
  const std::vector<std::byte> body = publish_body(source, std::nullopt);
  send_raw_publish(sender, ranks[0], body);
  drain(service);

  const auto logged =
      service.replication()->logged_record(Namespace::kHardware, 0, 0);
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_EQ(logged[0], std::byte{0});
  const StorageBackend* replica =
      service.replication()->replica(Namespace::kHardware, 0, 1);
  ASSERT_NE(replica, nullptr);
  ASSERT_NE(replica->latest(source), nullptr);
  EXPECT_TRUE(replica->latest(source)->data.is_empty());
  EXPECT_EQ(replica->ingested_bytes(), 1u);
  EXPECT_EQ(
      service.store().shard(Namespace::kHardware, 0).ingested_bytes(), 1u);
}

TEST_F(ReplicationLogBytesTest, RepeatedNamesShipTheOriginalBytes) {
  SomaService service(network, {0}, replicated_config());
  const auto& ranks = service.instance(Namespace::kHardware).ranks;
  net::Engine sender(network, net::make_address(1, 6000));
  const std::string source = sources_on_shard(0, 1)[0];
  // {"v": 1.0, "v": 2.0}: a record no Node can build, only a hand-made
  // body can carry. It decodes to {"v": 2.0}.
  std::vector<std::byte> data = {std::byte{1}, std::byte{2}, std::byte{0},
                                 std::byte{0}, std::byte{0}};
  for (const double v : {1.0, 2.0}) {
    const std::vector<std::byte> field = value_node(v).pack();
    data.insert(data.end(), field.begin() + 5, field.end());
  }
  send_raw_publish(sender, ranks[0], publish_body(source, data));
  drain(service);

  const datamodel::Node merged = value_node(2.0);
  ASSERT_NE(merged.pack(), data);
  const auto logged =
      service.replication()->logged_record(Namespace::kHardware, 0, 0);
  EXPECT_EQ(std::vector<std::byte>(logged.begin(), logged.end()), data);
  const StorageBackend& primary =
      service.store().shard(Namespace::kHardware, 0);
  const StorageBackend* replica =
      service.replication()->replica(Namespace::kHardware, 0, 1);
  ASSERT_NE(replica, nullptr);
  for (const StorageBackend* backend : {&primary, replica}) {
    ASSERT_NE(backend->latest(source), nullptr);
    EXPECT_TRUE(backend->latest(source)->data == merged);
    // Both count the bytes the record arrived in.
    EXPECT_EQ(backend->ingested_bytes(), data.size());
  }
}

}  // namespace
}  // namespace soma
