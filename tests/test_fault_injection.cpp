// Failure-matrix tests for deterministic fault injection and the RPC/client
// reliability layer: injector semantics, retry/timeout edge cases,
// buffer-and-replay, and a {drop rate x crash schedule x retry policy}
// matrix asserting same-seed runs are bit-identical.
//
// The matrix seed can be overridden with SOMA_FAULT_SEED (CI runs three fixed
// seeds under ASan/UBSan); every suite name contains "Fault" so the CI leg
// can select the lot with `ctest --tests-regex Fault`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/types.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"
#include "sim/simulation.hpp"
#include "soma/client.hpp"
#include "soma/export.hpp"
#include "soma/namespaces.hpp"
#include "soma/service.hpp"
#include "soma/storage_backend.hpp"
#include "soma/store.hpp"

namespace soma {
namespace {

using core::ClientReliability;
using core::Namespace;
using core::ServiceConfig;
using core::SomaClient;
using core::SomaService;
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

// ---------- FaultInjector semantics ----------

std::vector<int> drop_verdicts(net::FaultInjector& injector, int n) {
  const net::Address a = net::make_address(0, 1);
  const net::Address b = net::make_address(1, 1);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const SimTime at = SimTime::from_seconds(static_cast<double>(i));
    const auto verdict =
        injector.decide(0, 1, a, b, at, at + Duration::microseconds(2));
    out.push_back(verdict.drop ? 1 : 0);
  }
  return out;
}

TEST(FaultInjectorTest, SameSeedSameVerdicts) {
  net::FaultConfig config;
  config.seed = 42;
  config.default_link.drop_probability = 0.3;
  net::FaultInjector a(config);
  net::FaultInjector b(config);
  EXPECT_EQ(drop_verdicts(a, 300), drop_verdicts(b, 300));
  EXPECT_EQ(a.stats().random_drops, b.stats().random_drops);
  EXPECT_GT(a.stats().random_drops, 0u);
  EXPECT_LT(a.stats().random_drops, 300u);
}

TEST(FaultInjectorTest, DifferentSeedDifferentVerdicts) {
  net::FaultConfig config;
  config.default_link.drop_probability = 0.5;
  config.seed = 1;
  net::FaultInjector a(config);
  config.seed = 2;
  net::FaultInjector b(config);
  EXPECT_NE(drop_verdicts(a, 300), drop_verdicts(b, 300));
}

TEST(FaultInjectorTest, SchedulesConsumeNoRandomness) {
  // Adding crash windows for endpoints a link never touches must not
  // perturb that link's random drop pattern.
  net::FaultConfig config;
  config.seed = 7;
  config.default_link.drop_probability = 0.25;
  net::FaultInjector plain(config);
  net::FaultInjector scheduled(config);
  scheduled.crash_endpoint(net::make_address(9, 1), SimTime::zero(),
                           SimTime::from_seconds(1e6));
  EXPECT_EQ(drop_verdicts(plain, 300), drop_verdicts(scheduled, 300));
}

TEST(FaultInjectorTest, CrashWindowDropsBothDirections) {
  net::FaultInjector injector;
  const net::Address a = net::make_address(0, 1);
  const net::Address b = net::make_address(1, 1);
  injector.crash_endpoint(b, SimTime::from_seconds(5.0),
                          SimTime::from_seconds(10.0));

  auto at = [&](double send_s, double arrive_s) {
    return injector.decide(0, 1, a, b, SimTime::from_seconds(send_s),
                           SimTime::from_seconds(arrive_s));
  };
  // Arrival before the window: delivered.
  EXPECT_FALSE(at(4.9, 4.99).drop);
  // Arrival inside the window: receiver is down.
  const auto dropped = at(4.9, 5.0);
  EXPECT_TRUE(dropped.drop);
  EXPECT_EQ(dropped.cause, net::FaultInjector::Decision::Cause::kCrash);
  // `until` is exclusive: arrival at 10.0 is delivered again.
  EXPECT_FALSE(at(9.9, 10.0).drop);

  // Messages *sent by* a crashed endpoint are lost too.
  const auto from_down =
      injector.decide(1, 0, b, a, SimTime::from_seconds(6.0),
                      SimTime::from_seconds(6.1));
  EXPECT_TRUE(from_down.drop);
  EXPECT_EQ(injector.stats().crash_drops, 2u);
  EXPECT_EQ(injector.stats().random_drops, 0u);
}

TEST(FaultInjectorTest, LoopbackExemptFromLinkFaultsButNotCrashes) {
  net::FaultConfig config;
  config.default_link.drop_probability = 1.0;
  net::FaultInjector injector(config);
  const net::Address a = net::make_address(3, 1);
  const net::Address b = net::make_address(3, 2);

  // Intra-node traffic never touches the wire: no random drops.
  EXPECT_FALSE(injector.decide(3, 3, a, b, SimTime::zero(), SimTime::zero())
                   .drop);

  // ... but a crashed process is dead to its neighbours too.
  injector.crash_endpoint(b, SimTime::zero(), SimTime::from_seconds(1.0));
  const auto verdict =
      injector.decide(3, 3, a, b, SimTime::zero(), SimTime::zero());
  EXPECT_TRUE(verdict.drop);
  EXPECT_EQ(verdict.cause, net::FaultInjector::Decision::Cause::kCrash);
}

TEST(FaultInjectorTest, SpikeDelaysWithoutDropping) {
  net::FaultConfig config;
  config.default_link.spike_probability = 1.0;
  config.default_link.spike_latency = Duration::milliseconds(1);
  net::FaultInjector injector(config);
  const auto verdict = injector.decide(0, 1, net::make_address(0, 1),
                                       net::make_address(1, 1),
                                       SimTime::zero(), SimTime::zero());
  EXPECT_FALSE(verdict.drop);
  EXPECT_EQ(verdict.extra_latency, Duration::milliseconds(1));
  EXPECT_EQ(injector.stats().latency_spikes, 1u);
  EXPECT_EQ(injector.stats().total_drops(), 0u);
}

// ---------- Network integration ----------

class FaultNetworkTest : public ::testing::Test {
 protected:
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
};

TEST_F(FaultNetworkTest, DropsCountedPerEndpoint) {
  net::FaultConfig config;
  config.default_link.drop_probability = 1.0;
  net::FaultInjector& injector = network.install_faults(config);

  const net::Address src = net::make_address(0, 1);
  const net::Address dst = net::make_address(1, 1);
  int received = 0;
  network.bind(src, [](net::EndpointId, std::vector<std::byte>) {});
  network.bind(dst, [&](net::EndpointId, std::vector<std::byte>) {
    ++received;
  });
  network.send(network.resolve(src), network.resolve(dst),
               std::vector<std::byte>(64));
  network.send(network.resolve(src), network.resolve(dst),
               std::vector<std::byte>(64));
  simulation.run();

  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.messages_dropped(), 2u);
  EXPECT_EQ(injector.stats().random_drops, 2u);
  const auto& drops = network.drops_by_endpoint();
  ASSERT_TRUE(drops.contains(dst));
  EXPECT_EQ(drops.at(dst), 2u);
}

TEST_F(FaultNetworkTest, SpikeDelaysDelivery) {
  net::FaultConfig config;
  config.default_link.spike_probability = 1.0;
  config.default_link.spike_latency = Duration::milliseconds(1);
  network.install_faults(config);

  const net::Address src = net::make_address(0, 1);
  const net::Address dst = net::make_address(1, 1);
  SimTime arrival;
  network.bind(src, [](net::EndpointId, std::vector<std::byte>) {});
  network.bind(dst, [&](net::EndpointId, std::vector<std::byte>) {
    arrival = simulation.now();
  });
  network.send(network.resolve(src), network.resolve(dst), {});
  simulation.run();
  // Base cross-node latency (2us for an empty payload) plus the spike.
  EXPECT_NEAR(arrival.to_seconds(), 1.002e-3, 1e-9);
}

TEST_F(FaultNetworkTest, LoopbackDeliveredThroughLinkFaults) {
  // End-to-end pin of the fault.hpp contract: "Intra-node (loopback)
  // messages are exempt from link faults but not from endpoint crashes."
  // A service co-located with its client must keep working through 100%
  // cross-node loss — until the peer process itself crashes.
  net::FaultConfig config;
  config.default_link.drop_probability = 1.0;
  net::FaultInjector& injector = network.install_faults(config);

  const net::Address a = net::make_address(3, 1);
  const net::Address b = net::make_address(3, 2);
  int received = 0;
  network.bind(a, [](net::EndpointId, std::vector<std::byte>) {});
  network.bind(b, [&](net::EndpointId, std::vector<std::byte>) {
    ++received;
  });
  network.send(network.resolve(a), network.resolve(b),
               std::vector<std::byte>(32));
  simulation.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(network.messages_dropped(), 0u);

  // The crashed endpoint is dead to its node-local neighbours too.
  injector.crash_endpoint(b, simulation.now(),
                          simulation.now() + Duration::seconds(1));
  network.send(network.resolve(a), network.resolve(b),
               std::vector<std::byte>(32));
  simulation.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(network.messages_dropped(), 1u);
  EXPECT_EQ(injector.stats().crash_drops, 1u);
}

struct NetRunOutcome {
  std::uint64_t events = 0;
  std::int64_t final_nanos = 0;
  std::uint64_t sent = 0;
  std::uint64_t dropped = 0;
  std::int64_t arrival_nanos = 0;
  bool operator==(const NetRunOutcome&) const = default;
};

NetRunOutcome run_plain_exchange(bool install_zero_injector) {
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  if (install_zero_injector) {
    network.install_faults(net::FaultConfig{});
  }
  const net::Address src = net::make_address(0, 1);
  const net::Address dst = net::make_address(1, 1);
  NetRunOutcome outcome;
  network.bind(src, [](net::EndpointId, std::vector<std::byte>) {});
  network.bind(dst, [&](net::EndpointId, std::vector<std::byte>) {
    outcome.arrival_nanos = simulation.now().nanos();
  });
  for (int i = 0; i < 4; ++i) {
    network.send(network.resolve(src), network.resolve(dst),
                 std::vector<std::byte>(1000));
  }
  outcome.final_nanos = simulation.run().nanos();
  outcome.events = simulation.events_dispatched();
  outcome.sent = network.messages_sent();
  outcome.dropped = network.messages_dropped();
  return outcome;
}

TEST_F(FaultNetworkTest, ZeroProbabilityInjectorMatchesNoInjector) {
  // An installed injector with no probabilities and no schedules must leave
  // the run bit-identical to an uninjected network (the fig10/fig11
  // calibration contract).
  EXPECT_EQ(run_plain_exchange(false), run_plain_exchange(true));
}

// ---------- RPC retry / timeout edge cases ----------

class FaultRetryTest : public ::testing::Test {
 protected:
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};

  static datamodel::Node payload(std::int64_t v) {
    datamodel::Node node;
    node["value"].set(v);
    return node;
  }
};

TEST_F(FaultRetryTest, BackoffIsBoundedByMaxTimeout) {
  net::RetryPolicy policy;
  policy.timeout = Duration::milliseconds(10);
  policy.backoff_multiplier = 2.0;
  policy.max_timeout = Duration::milliseconds(25);
  EXPECT_EQ(policy.timeout_for(0), Duration::milliseconds(10));
  EXPECT_EQ(policy.timeout_for(1), Duration::milliseconds(20));
  EXPECT_EQ(policy.timeout_for(2), Duration::milliseconds(25));
  EXPECT_EQ(policy.timeout_for(3), Duration::milliseconds(25));

  policy.max_timeout = Duration::zero();  // uncapped
  EXPECT_EQ(policy.timeout_for(3), Duration::milliseconds(80));
}

TEST_F(FaultRetryTest, RetryExhaustionSurfacesError) {
  net::Engine client(network, net::make_address(1, 100));
  net::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.timeout = Duration::milliseconds(1);

  std::optional<datamodel::Node> failed_body;
  int responses = 0;
  // Nothing is bound at the destination: every transmission vanishes.
  client.call(
      net::make_address(0, 100), "echo", payload(1),
      [&](net::Engine::Result result) {
        if (result.ok) {
          ++responses;
        } else {
          failed_body = datamodel::Node::unpack(result.body);
        }
      },
      policy);
  simulation.run();

  EXPECT_EQ(responses, 0);
  // The failed call gets back exactly the request body that was sent.
  ASSERT_TRUE(failed_body.has_value());
  EXPECT_EQ(*failed_body, payload(1));
  EXPECT_EQ(client.stats().timeouts, 3u);
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_EQ(client.stats().calls_failed, 1u);
  EXPECT_EQ(client.stats().responses_received, 0u);
}

TEST_F(FaultRetryTest, RetrySucceedsAfterTransientCrash) {
  net::FaultInjector& injector = network.install_faults(net::FaultConfig{});
  net::Engine server(network, net::make_address(0, 100));
  net::Engine client(network, net::make_address(1, 100));
  server.define("echo", [](const net::Address&, const datamodel::Node& args) {
    return args;
  });
  // Server unreachable for the first 5 ms: attempts 0 (t=0) and 1 (t=2ms)
  // are lost; attempt 2 (t=6ms) lands after recovery.
  injector.crash_endpoint(server.address(), SimTime::zero(),
                          SimTime::from_seconds(0.005));

  net::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.timeout = Duration::milliseconds(2);

  int responses = 0;
  int errors = 0;
  client.call(
      server.address(), "echo", payload(7),
      [&](net::Engine::Result result) { ++(result.ok ? responses : errors); },
      policy);
  simulation.run();

  EXPECT_EQ(responses, 1);
  EXPECT_EQ(errors, 0);
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_EQ(client.stats().calls_failed, 0u);
  EXPECT_EQ(injector.stats().crash_drops, 2u);
  EXPECT_EQ(server.stats().requests_handled, 1u);
}

TEST_F(FaultRetryTest, DuplicateResponsesSuppressedAndCounted) {
  // A slow (5 ms) server against a 1 ms timeout: every attempt arrives and
  // is answered, but the caller must see exactly one completion and the late
  // replies must be counted as duplicates, never delivered.
  net::ServiceCost cost;
  cost.base = Duration::milliseconds(5);
  cost.per_kib = Duration::zero();
  net::Engine server(network, net::make_address(0, 100), cost);
  server.define("slow", [](const net::Address&, const datamodel::Node& args) {
    return args;
  });
  struct Completions {
    int fired = 0;
    bool ok = false;
    std::vector<std::byte> body;
  };
  const auto call = [&](net::Engine& client, int max_attempts,
                        Completions& seen) {
    net::RetryPolicy policy;
    policy.max_attempts = max_attempts;
    policy.timeout = Duration::milliseconds(1);
    client.call(
        server.address(), "slow", payload(9),
        [&seen](net::Engine::Result result) {
          ++seen.fired;
          seen.ok = result.ok;
          seen.body.assign(result.body.begin(), result.body.end());
        },
        policy);
    simulation.run();
  };
  const std::vector<std::byte> sent = payload(9).pack();

  // Three attempts (timeouts at 1, 3 and 7 ms): the first reply, at 5 ms,
  // settles the call; the other two are duplicates.
  net::Engine client(network, net::make_address(1, 100));
  Completions answered;
  call(client, 3, answered);
  EXPECT_EQ(answered.fired, 1);
  EXPECT_TRUE(answered.ok);
  EXPECT_EQ(answered.body, sent);  // the echo
  EXPECT_EQ(server.stats().requests_handled, 3u);
  EXPECT_EQ(server.stats().retried_requests, 2u);
  EXPECT_EQ(client.stats().duplicate_responses, 2u);
  EXPECT_EQ(client.stats().calls_failed, 0u);

  // Two attempts (timeouts at 1 and 3 ms): the call fails before any reply,
  // with the request body, and both replies arrive late.
  net::Engine late(network, net::make_address(2, 100));
  Completions failed;
  call(late, 2, failed);
  EXPECT_EQ(failed.fired, 1);
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.body, sent);
  EXPECT_EQ(late.stats().calls_failed, 1u);
  EXPECT_EQ(late.stats().responses_received, 2u);
  EXPECT_EQ(late.stats().duplicate_responses, 2u);
}

TEST_F(FaultRetryTest, FirstReplyToAnyCallIsNotADuplicate) {
  // The acknowledgement of a fire-and-forget call and the reply to a plain
  // call each settle their call; neither is a duplicate.
  net::Engine server(network, net::make_address(0, 100));
  server.define("echo", [](const net::Address&, const datamodel::Node& args) {
    return args;
  });
  net::Engine client(network, net::make_address(1, 100));
  int fired = 0;
  client.call(server.address(), "echo", payload(1));
  client.call(server.address(), "echo", payload(2),
              [&fired](net::Engine::Result result) {
                EXPECT_TRUE(result.ok);
                ++fired;
              });
  simulation.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(client.stats().responses_received, 2u);
  EXPECT_EQ(client.stats().duplicate_responses, 0u);
}

struct EchoRunOutcome {
  std::uint64_t events = 0;
  std::int64_t final_nanos = 0;
  std::uint64_t client_bytes_out = 0;
  std::uint64_t server_bytes_in = 0;
  std::uint64_t server_bytes_out = 0;
  std::uint64_t responses = 0;
  std::uint64_t handled = 0;
  bool operator==(const EchoRunOutcome&) const = default;
};

EchoRunOutcome run_echo_burst(bool via_default_policy) {
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  net::Engine server(network, net::make_address(0, 100));
  net::Engine client(network, net::make_address(1, 100));
  server.define("echo", [](const net::Address&, const datamodel::Node& args) {
    return args;
  });
  for (int i = 0; i < 5; ++i) {
    datamodel::Node args;
    args["value"].set(std::int64_t{i});
    auto on_done = [](net::Engine::Result) {};
    if (via_default_policy) {
      client.call(server.address(), "echo", std::move(args), on_done,
                  net::RetryPolicy{});
    } else {
      client.call(server.address(), "echo", std::move(args), on_done);
    }
  }
  EchoRunOutcome outcome;
  outcome.final_nanos = simulation.run().nanos();
  outcome.events = simulation.events_dispatched();
  outcome.client_bytes_out = client.stats().bytes_out;
  outcome.server_bytes_in = server.stats().bytes_in;
  outcome.server_bytes_out = server.stats().bytes_out;
  outcome.responses = client.stats().responses_received;
  outcome.handled = server.stats().requests_handled;
  return outcome;
}

TEST_F(FaultRetryTest, ZeroRetryPolicyMatchesLegacyBitForBit) {
  // The reliable call with the default (disabled) policy must produce the
  // exact same event count, timing and byte accounting as the legacy call:
  // frames stay byte-identical (attempt counter 0 = all-zero reserved byte)
  // and no timers are armed.
  const EchoRunOutcome legacy = run_echo_burst(false);
  const EchoRunOutcome reliable = run_echo_burst(true);
  EXPECT_EQ(legacy, reliable);
  EXPECT_EQ(legacy.responses, 5u);
}

// ---------- Client buffer-and-replay ----------

struct ReplayRunOutcome {
  std::vector<double> values;       // per-record payload, series order
  std::vector<std::int64_t> times;  // per-record ingest time (ns)
  std::uint64_t publishes = 0;
  std::uint64_t replayed_at_service = 0;
  std::size_t records_in_window = 0;
  SomaClient::ClientStats client{};
};

ReplayRunOutcome run_replay_scenario(bool crash_collector) {
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};

  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  service_config.ranks_per_namespace = 1;
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
  SomaClient client(network, 1, 6000, Namespace::kHardware, ranks,
                    reliability);

  // One publish every 2 s for 40 s; the outage swallows the 8 publishes at
  // t = 10, 12, ..., 24 s.
  for (int i = 0; i < 20; ++i) {
    simulation.schedule_at(SimTime::from_seconds(2.0 * (i + 1)),
                           [&client, i] {
                             client.publish("cn0001", value_node(i));
                           });
  }
  simulation.run();

  ReplayRunOutcome outcome;
  for (const TimedRecord* record :
       service.store_view().series(Namespace::kHardware, "cn0001")) {
    outcome.values.push_back(record->data.fetch_existing("v").as_float64());
    outcome.times.push_back(record->time.nanos());
  }
  outcome.publishes = service.publishes_received();
  outcome.replayed_at_service = service.replayed_publishes();
  outcome.records_in_window =
      service.store_view()
          .range(Namespace::kHardware, "cn0001", SimTime::from_seconds(9.5),
                 SimTime::from_seconds(25.5))
          .size();
  outcome.client = client.stats();
  return outcome;
}

TEST(FaultReplayTest, OutagePublishesReplayedInOrderWithOriginalTimestamps) {
  const ReplayRunOutcome faulty = run_replay_scenario(true);
  const ReplayRunOutcome clean = run_replay_scenario(false);

  // Nothing is lost: every publish reaches the store, in publish order.
  EXPECT_EQ(faulty.publishes, 20u);
  EXPECT_EQ(faulty.values, clean.values);

  // The 8 outage-window publishes arrived via replay and kept their
  // original publish timestamps exactly.
  EXPECT_EQ(faulty.replayed_at_service, 8u);
  EXPECT_EQ(clean.replayed_at_service, 0u);
  EXPECT_EQ(faulty.client.replayed, 8u);
  EXPECT_EQ(faulty.client.buffered, 8u);
  EXPECT_EQ(faulty.client.publish_failures, 1u);
  ASSERT_EQ(faulty.times.size(), 20u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(faulty.times[4 + i],
              SimTime::from_seconds(10.0 + 2.0 * i).nanos())
        << "replayed record " << i;
  }

  // Replay preserves the per-source sorted-time invariant DataStore::range
  // relies on, and ingest times stay within network latency of the no-fault
  // run (replayed records carry publish time; live ones add microseconds).
  for (std::size_t i = 1; i < faulty.times.size(); ++i) {
    EXPECT_LE(faulty.times[i - 1], faulty.times[i]);
  }
  for (std::size_t i = 0; i < faulty.times.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(faulty.times[i]),
                static_cast<double>(clean.times[i]), 1e6);  // 1 ms
  }

  // A range query over the outage window sees the same records either way.
  EXPECT_EQ(faulty.records_in_window, clean.records_in_window);
  EXPECT_EQ(faulty.records_in_window, 8u);
}

TEST(FaultReplayTest, BufferOverflowEvictsOldest) {
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
  SomaClient client(network, 1, 6000, Namespace::kHardware, ranks,
                    reliability);

  for (int i = 0; i < 6; ++i) {
    simulation.schedule_at(SimTime::from_seconds(1.0 * (i + 1)),
                           [&client, i] {
                             client.publish("cn0001", value_node(i));
                           });
  }
  // The collector never recovers; cut the run short of the probe loop.
  simulation.run_until(SimTime::from_seconds(10.0));

  EXPECT_TRUE(client.degraded());
  EXPECT_EQ(client.buffered_pending(), 4u);
  EXPECT_EQ(client.stats().buffered, 6u);
  EXPECT_EQ(client.stats().dropped_overflow, 2u);
  EXPECT_EQ(service.publishes_received(), 0u);
}

TEST(FaultReplayTest, DegradedFollowsEachFailureAndRecovery) {
  // Two ranks, one source homed on each. Both ranks go down (rank 0 with two
  // publishes in flight, so it fails twice), the probe brings both back,
  // then one goes down again: degraded() must follow every step, not just
  // the first failure.
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  service_config.ranks_per_namespace = 2;
  SomaService service(network, {0}, service_config);
  const auto& ranks = service.instance(Namespace::kHardware).ranks;
  std::string source_on[2];
  for (int i = 0; source_on[0].empty() || source_on[1].empty(); ++i) {
    const std::string source = "cn" + std::to_string(i);
    source_on[core::route_source(source, 2)] = source;
  }
  net::FaultInjector& injector = network.install_faults(net::FaultConfig{});
  injector.crash_endpoint(ranks[0], SimTime::from_seconds(0.5),
                          SimTime::from_seconds(3.0));
  injector.crash_endpoint(ranks[1], SimTime::from_seconds(0.5),
                          SimTime::from_seconds(3.0));
  injector.crash_endpoint(ranks[1], SimTime::from_seconds(5.0),
                          SimTime::from_seconds(7.0));

  ClientReliability reliability;
  reliability.retry.max_attempts = 1;
  reliability.retry.timeout = Duration::milliseconds(10);
  reliability.buffer_on_failure = true;
  reliability.probe_period = Duration::seconds(1);
  SomaClient client(network, 1, 6000, Namespace::kHardware, ranks,
                    reliability);

  simulation.schedule_at(SimTime::from_seconds(1.0), [&] {
    client.publish(source_on[0], value_node(1.0));
    client.publish(source_on[0], value_node(1.5));
    client.publish(source_on[1], value_node(2.0));
  });
  simulation.schedule_at(SimTime::from_seconds(5.5), [&] {
    client.publish(source_on[1], value_node(3.0));
  });
  std::vector<std::pair<double, bool>> seen;
  for (double at : {0.9, 1.1, 2.5, 3.5, 5.6, 8.5}) {
    simulation.schedule_at(SimTime::from_seconds(at), [&, at] {
      seen.emplace_back(at, client.degraded());
    });
  }
  simulation.run_until(SimTime::from_seconds(10.0));

  const std::vector<std::pair<double, bool>> expected = {
      {0.9, false}, {1.1, true},  {2.5, true},
      {3.5, false}, {5.6, true},  {8.5, false}};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(client.stats().publish_failures, 4u);
  EXPECT_EQ(client.stats().replayed, 4u);
  EXPECT_EQ(service.publishes_received(), 4u);
}

TEST(FaultReplayTest, RetryOnlyClientDoesNotStayDegraded) {
  // Retry without buffering: a failed publish is counted and dropped. The
  // client has no probe to bring the rank back up, so it must not mark the
  // rank down in the first place.
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  SomaService service(network, {0}, service_config);
  const auto& ranks = service.instance(Namespace::kHardware).ranks;
  net::FaultInjector& injector = network.install_faults(net::FaultConfig{});
  injector.crash_endpoint(ranks[0], SimTime::from_seconds(0.5),
                          SimTime::from_seconds(1.5));

  ClientReliability reliability;
  reliability.retry.max_attempts = 2;
  reliability.retry.timeout = Duration::milliseconds(10);
  SomaClient client(network, 1, 6000, Namespace::kHardware, ranks,
                    reliability);

  simulation.schedule_at(SimTime::from_seconds(1.0), [&client] {
    client.publish("cn0001", value_node(1.0));
  });
  simulation.schedule_at(SimTime::from_seconds(5.0), [&client] {
    client.publish("cn0001", value_node(2.0));
  });
  simulation.run_until(SimTime::from_seconds(60.0));

  EXPECT_EQ(client.stats().publish_failures, 1u);
  EXPECT_EQ(client.stats().acked, 1u);
  EXPECT_EQ(client.stats().buffered, 0u);
  EXPECT_EQ(service.store_view().total_records(), 1u);
  EXPECT_FALSE(client.degraded());
}

// ---------- Record conservation under crash-and-replay ----------

// With crash windows only (no random drops, so no at-least-once duplicates),
// every published record is exactly one of: stored on the service, evicted
// from the client's replay buffer, or still parked in it. The per-shard
// export totals must agree with the store.

class FaultConservationTest
    : public ::testing::TestWithParam<core::StorageBackendKind> {};

void expect_export_matches_store(const SomaService& service) {
  const datamodel::Node report = core::export_shard_report(service.store());
  std::uint64_t exported = 0;
  const datamodel::Node& ns_entry = report.fetch_existing("hardware");
  for (int i = 0; i < service.store().shard_count(); ++i) {
    exported += static_cast<std::uint64_t>(
        ns_entry.fetch_existing("shard_" + std::to_string(i))
            .fetch_existing("records")
            .as_int64());
  }
  EXPECT_EQ(exported, service.store_view().total_records());
}

TEST_P(FaultConservationTest, SinglePublishesConservedAcrossCrash) {
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  service_config.storage.backend = GetParam();
  SomaService service(network, {0}, service_config);
  const auto& ranks = service.instance(Namespace::kHardware).ranks;
  net::FaultInjector& injector = network.install_faults(net::FaultConfig{});
  // Down for 15 s; the 4-slot buffer cannot hold the ~15 window publishes.
  injector.crash_endpoint(ranks[0], SimTime::from_seconds(10.0),
                          SimTime::from_seconds(25.0));

  ClientReliability reliability;
  reliability.retry.max_attempts = 2;
  reliability.retry.timeout = Duration::milliseconds(50);
  reliability.buffer_on_failure = true;
  reliability.probe_period = Duration::seconds(1);
  reliability.max_buffered = 4;
  SomaClient client(network, 1, 6000, Namespace::kHardware, ranks,
                    reliability);

  for (int i = 0; i < 40; ++i) {
    simulation.schedule_at(SimTime::from_seconds(1.0 * (i + 1)),
                           [&client, i] {
                             client.publish("cn0001", value_node(i));
                           });
  }
  simulation.run();

  const SomaClient::ClientStats stats = client.stats();
  EXPECT_EQ(stats.published, 40u);
  EXPECT_GT(stats.dropped_overflow, 0u);
  EXPECT_EQ(stats.dropped_batch_records, 0u);
  EXPECT_EQ(client.buffered_pending(), 0u);  // outage ended; all replayed
  EXPECT_EQ(service.store_view().total_records() + stats.dropped_overflow, 40u);
  EXPECT_EQ(service.publishes_received(), service.store_view().total_records());
  expect_export_matches_store(service);
}

TEST_P(FaultConservationTest, BatchedPublishesConservedAcrossCrash) {
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  service_config.storage.backend = GetParam();
  SomaService service(network, {0}, service_config);
  const auto& ranks = service.instance(Namespace::kHardware).ranks;
  net::FaultInjector& injector = network.install_faults(net::FaultConfig{});
  injector.crash_endpoint(ranks[0], SimTime::from_seconds(10.0),
                          SimTime::from_seconds(25.0));

  ClientReliability reliability;
  reliability.retry.max_attempts = 2;
  reliability.retry.timeout = Duration::milliseconds(50);
  reliability.buffer_on_failure = true;
  reliability.probe_period = Duration::seconds(1);
  reliability.max_buffered = 6;
  core::BatchingConfig batching;
  batching.max_records = 4;
  SomaClient client(network, 1, 6000, Namespace::kHardware, ranks,
                    reliability, batching);

  for (int i = 0; i < 80; ++i) {
    simulation.schedule_at(SimTime::from_seconds(0.5 * (i + 1)),
                           [&client, i] {
                             client.publish("cn0001", value_node(i));
                           });
  }
  simulation.schedule_at(SimTime::from_seconds(41.0),
                         [&client] { client.flush_batches(); });
  simulation.run();

  // Failed batches disperse into the replay buffer record by record; buffer
  // eviction counts them separately from single-publish overflow.
  const SomaClient::ClientStats stats = client.stats();
  EXPECT_EQ(stats.published, 80u);
  EXPECT_GT(stats.batches_sent, 0u);
  EXPECT_GT(stats.dropped_batch_records, 0u);
  EXPECT_EQ(client.buffered_pending(), 0u);
  EXPECT_EQ(service.store_view().total_records() + stats.dropped_batch_records +
                stats.dropped_overflow,
            80u);
  EXPECT_EQ(service.publishes_received(), service.store_view().total_records());
  expect_export_matches_store(service);
}

INSTANTIATE_TEST_SUITE_P(Backends, FaultConservationTest,
                         ::testing::Values(core::StorageBackendKind::kMap,
                                           core::StorageBackendKind::kLog),
                         [](const auto& info) {
                           return std::string(core::to_string(info.param));
                         });

// ---------- Pinned crash-and-replay trace ----------
//
// Degrading clients on a 2-rank instance over a lossy fabric, with a crash
// window on each rank, at a fixed seed (SOMA_FAULT_SEED is deliberately
// ignored). The buffers are small enough to evict, so every client
// reliability path runs: retry, failure, buffering, eviction, probe and
// replay. Every summed client counter, the retry totals, the service's
// ingest counts, the fabric's wire totals and a digest of the stored records
// are pinned, so a change to the failure path that moves one record, byte or
// timestamp shows up here even when conservation still holds.

struct PinnedReplay {
  SomaClient::ClientStats client{};
  std::uint64_t retries = 0;
  std::uint64_t calls_failed = 0;
  std::uint64_t publishes = 0;
  std::uint64_t replayed_at_service = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t digest = 14695981039346656037ULL;

  /// FNV-1a over one stored record's source, time and packed payload.
  void mix(std::span<const std::byte> bytes) {
    for (const std::byte b : bytes) {
      digest ^= static_cast<std::uint64_t>(b);
      digest *= 1099511628211ULL;
    }
  }
};

PinnedReplay run_pinned_replay(std::size_t batch_records) {
  constexpr std::uint64_t kSeed = 31337;
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  net::FaultConfig fault_config;
  fault_config.seed = kSeed;
  fault_config.default_link.drop_probability = 0.02;
  net::FaultInjector& injector = network.install_faults(fault_config);

  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  service_config.ranks_per_namespace = 2;
  SomaService service(network, {0, 2}, service_config);
  const auto& ranks = service.instance(Namespace::kHardware).ranks;
  injector.crash_endpoint(ranks[0], SimTime::from_seconds(8.0),
                          SimTime::from_seconds(14.0));
  injector.crash_endpoint(ranks[1], SimTime::from_seconds(20.0),
                          SimTime::from_seconds(24.0));

  ClientReliability reliability;
  reliability.retry.max_attempts = 2;
  reliability.retry.timeout = Duration::milliseconds(20);
  reliability.buffer_on_failure = true;
  reliability.probe_period = Duration::seconds(1);
  reliability.max_buffered = 24;
  core::BatchingConfig batching;
  batching.max_records = batch_records;
  std::vector<std::unique_ptr<SomaClient>> clients;
  for (int c = 0; c < 3; ++c) {
    clients.push_back(std::make_unique<SomaClient>(
        network, NodeId(c + 4), 6000, Namespace::kHardware, ranks,
        reliability, batching));
  }
  for (int i = 0; i < 60; ++i) {
    for (int c = 0; c < 3; ++c) {
      SomaClient* client = clients[static_cast<std::size_t>(c)].get();
      for (int s = 0; s < 4; ++s) {
        const std::string source = "cn" + std::to_string(100 * c + s);
        const double value = static_cast<double>(i * 100 + c * 10 + s);
        simulation.schedule_at(SimTime::from_seconds(0.5 * (i + 1)),
                               [client, source, value] {
                                 client->publish(source, value_node(value));
                               });
      }
    }
  }
  simulation.schedule_at(SimTime::from_seconds(31.0), [&clients] {
    for (const auto& client : clients) client->flush_batches();
  });
  simulation.run();

  PinnedReplay pinned;
  for (const auto& client : clients) {
    const SomaClient::ClientStats& s = client->stats();
    SomaClient::ClientStats& sum = pinned.client;
    sum.published += s.published;
    sum.acked += s.acked;
    sum.publish_failures += s.publish_failures;
    sum.buffered += s.buffered;
    sum.replayed += s.replayed;
    sum.dropped_overflow += s.dropped_overflow;
    sum.dropped_batch_records += s.dropped_batch_records;
    sum.batches_sent += s.batches_sent;
    sum.total_ack_latency += s.total_ack_latency;
    sum.max_ack_latency = std::max(sum.max_ack_latency, s.max_ack_latency);
    pinned.retries += client->engine_stats().retries;
    pinned.calls_failed += client->engine_stats().calls_failed;
  }
  pinned.publishes = service.publishes_received();
  pinned.replayed_at_service = service.replayed_publishes();
  pinned.bytes_sent = network.bytes_sent();
  pinned.messages_sent = network.messages_sent();
  const core::StoreView view = service.store_view();
  for (const std::string& source : view.sources(Namespace::kHardware)) {
    for (const TimedRecord* record :
         view.series(Namespace::kHardware, source)) {
      pinned.mix(std::as_bytes(std::span(source.data(), source.size())));
      const std::int64_t nanos = record->time.nanos();
      pinned.mix(std::as_bytes(std::span(&nanos, 1)));
      pinned.mix(record->data.pack());
    }
  }
  return pinned;
}

class FaultReplayPinTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FaultReplayPinTest, CrashAndReplayTraceIsPinned) {
  struct Expected {
    SomaClient::ClientStats client;
    std::uint64_t retries;
    std::uint64_t calls_failed;
    std::uint64_t publishes;
    std::uint64_t replayed_at_service;
    std::uint64_t bytes_sent;
    std::uint64_t messages_sent;
    std::uint64_t digest;
  };
  // published, acked, publish_failures, buffered, replayed,
  // dropped_overflow, dropped_batch_records, batches_sent, total and max ack
  // latency (ns).
  const Expected expected =
      GetParam() == 0
          ? Expected{{720, 694, 13, 277, 251, 26, 0, 0,
                      Duration::nanoseconds(561444690),
                      Duration::nanoseconds(20054907)},
                     35, 39, 706, 255, 157069, 1489, 0x59098f4ab72c1a58ULL}
          : Expected{{720, 694, 13, 277, 251, 20, 6, 228,
                      Duration::nanoseconds(446541263),
                      Duration::nanoseconds(20055162)},
                     20, 33, 704, 256, 118153, 1020, 0x2a5e9cea95738736ULL};

  const PinnedReplay got = run_pinned_replay(GetParam());
  const SomaClient::ClientStats& c = got.client;
  const SomaClient::ClientStats& e = expected.client;
  EXPECT_EQ(c.published, e.published);
  EXPECT_EQ(c.acked, e.acked);
  EXPECT_EQ(c.publish_failures, e.publish_failures);
  EXPECT_EQ(c.buffered, e.buffered);
  EXPECT_EQ(c.replayed, e.replayed);
  EXPECT_EQ(c.dropped_overflow, e.dropped_overflow);
  EXPECT_EQ(c.dropped_batch_records, e.dropped_batch_records);
  EXPECT_EQ(c.batches_sent, e.batches_sent);
  EXPECT_EQ(c.total_ack_latency, e.total_ack_latency);
  EXPECT_EQ(c.max_ack_latency, e.max_ack_latency);
  EXPECT_EQ(got.retries, expected.retries);
  EXPECT_EQ(got.calls_failed, expected.calls_failed);
  EXPECT_EQ(got.publishes, expected.publishes);
  EXPECT_EQ(got.replayed_at_service, expected.replayed_at_service);
  EXPECT_EQ(got.bytes_sent, expected.bytes_sent);
  EXPECT_EQ(got.messages_sent, expected.messages_sent);
  EXPECT_EQ(got.digest, expected.digest);
}

INSTANTIATE_TEST_SUITE_P(Variants, FaultReplayPinTest,
                         ::testing::Values(std::size_t{0}, std::size_t{16}),
                         [](const auto& info) {
                           return info.param == 0
                                      ? std::string("single")
                                      : "batch" + std::to_string(info.param);
                         });

// ---------- Failure matrix: {drop rate x crash schedule x retry policy} ----

struct MatrixOutcome {
  std::uint64_t events = 0;
  std::int64_t final_nanos = 0;
  std::uint64_t publishes = 0;
  std::uint64_t replayed_at_service = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::map<net::Address, std::uint64_t> drops_by_endpoint;
  std::uint64_t injector_drops = 0;
  std::uint64_t spikes = 0;
  std::uint64_t published = 0;
  std::uint64_t acked = 0;
  std::uint64_t failures = 0;
  std::uint64_t buffered = 0;
  std::uint64_t replayed = 0;
  std::uint64_t retries = 0;
  bool operator==(const MatrixOutcome&) const = default;
};

MatrixOutcome run_matrix_case(double drop_probability, bool crash_schedule,
                              bool retry_enabled, std::uint64_t seed) {
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};

  net::FaultConfig fault_config;
  fault_config.seed = seed;
  fault_config.default_link.drop_probability = drop_probability;
  fault_config.default_link.spike_probability =
      drop_probability > 0.0 ? 0.05 : 0.0;
  net::FaultInjector& injector = network.install_faults(fault_config);

  ServiceConfig service_config;
  service_config.namespaces = {Namespace::kHardware};
  service_config.ranks_per_namespace = 2;
  SomaService service(network, {0}, service_config);
  const auto& ranks = service.instance(Namespace::kHardware).ranks;
  if (crash_schedule) {
    injector.crash_endpoint(ranks[0], SimTime::from_seconds(5.0),
                            SimTime::from_seconds(8.0));
    injector.crash_endpoint(ranks[1], SimTime::from_seconds(15.0),
                            SimTime::from_seconds(17.0));
  }

  ClientReliability reliability;
  if (retry_enabled) {
    reliability.retry.max_attempts = 3;
    reliability.retry.timeout = Duration::milliseconds(20);
    reliability.buffer_on_failure = true;
    reliability.probe_period = Duration::seconds(1);
  }
  std::vector<std::unique_ptr<SomaClient>> clients;
  for (int c = 0; c < 3; ++c) {
    clients.push_back(std::make_unique<SomaClient>(
        network, NodeId(c + 1), 6000, Namespace::kHardware, ranks,
        reliability));
  }
  for (int c = 0; c < 3; ++c) {
    const std::string source = "cn000" + std::to_string(c);
    SomaClient* client = clients[static_cast<std::size_t>(c)].get();
    for (int i = 0; i < 60; ++i) {
      simulation.schedule_at(SimTime::from_seconds(0.5 * (i + 1)),
                             [client, source, i] {
                               client->publish(source, value_node(i));
                             });
    }
  }

  MatrixOutcome outcome;
  outcome.final_nanos = simulation.run_until(SimTime::from_seconds(60.0))
                            .nanos();
  outcome.events = simulation.events_dispatched();
  outcome.publishes = service.publishes_received();
  outcome.replayed_at_service = service.replayed_publishes();
  outcome.messages_sent = network.messages_sent();
  outcome.messages_dropped = network.messages_dropped();
  outcome.drops_by_endpoint = network.drops_by_endpoint();
  outcome.injector_drops = injector.stats().total_drops();
  outcome.spikes = injector.stats().latency_spikes;
  for (const auto& client : clients) {
    outcome.published += client->stats().published;
    outcome.acked += client->stats().acked;
    outcome.failures += client->stats().publish_failures;
    outcome.buffered += client->stats().buffered;
    outcome.replayed += client->stats().replayed;
    outcome.retries += client->engine_stats().retries;
  }
  return outcome;
}

using MatrixParam = std::tuple<double, int, int>;

class FaultMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

std::string matrix_case_name(const ::testing::TestParamInfo<MatrixParam>& info) {
  const auto [drop, crash, retry] = info.param;
  return "drop" + std::to_string(static_cast<int>(drop * 100)) +
         (crash ? "_crash" : "_nocrash") + (retry ? "_retry" : "_noretry");
}

TEST_P(FaultMatrixTest, SameSeedRunsAreBitIdentical) {
  const auto [drop, crash, retry] = GetParam();
  const std::uint64_t seed = matrix_seed() + static_cast<std::uint64_t>(
      crash * 2 + retry + static_cast<int>(drop * 100) * 4);

  const MatrixOutcome first =
      run_matrix_case(drop, crash != 0, retry != 0, seed);
  const MatrixOutcome second =
      run_matrix_case(drop, crash != 0, retry != 0, seed);

  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.final_nanos, second.final_nanos);
  EXPECT_EQ(first.publishes, second.publishes);
  EXPECT_EQ(first.drops_by_endpoint, second.drops_by_endpoint);
  EXPECT_EQ(first, second);

  // Sanity: every publish was attempted, and the fault knobs actually bit.
  EXPECT_EQ(first.published, 180u);
  if (drop == 0.0 && !crash) {
    EXPECT_EQ(first.acked, 180u);
    EXPECT_EQ(first.injector_drops, 0u);
  } else {
    EXPECT_GT(first.injector_drops, 0u);
    EXPECT_EQ(first.messages_dropped,
              first.injector_drops);  // no unbound-address drops here
  }
  if (retry != 0 && drop == 0.0) {
    // Buffer-and-replay recovers every crash-window publish. (With random
    // drops the service may ingest more than 180: a lost *ack* makes the
    // client retransmit an already-stored record — at-least-once semantics.)
    EXPECT_EQ(first.publishes, 180u);
  } else if (retry != 0) {
    EXPECT_GE(first.publishes, 178u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FaultMatrixTest,
    ::testing::Combine(::testing::Values(0.0, 0.02, 0.1),
                       ::testing::Values(0, 1), ::testing::Values(0, 1)),
    matrix_case_name);

}  // namespace
}  // namespace soma
