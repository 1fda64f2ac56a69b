// Unit tests for the simulated fabric and the RPC engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"
#include "net/wire.hpp"
#include "sim/simulation.hpp"

namespace soma::net {
namespace {

TEST(AddressTest, RoundTrip) {
  const Address address = make_address(17, 9001);
  EXPECT_EQ(address, "sim://node17:9001");
  EXPECT_EQ(address_node(address), 17);
}

TEST(AddressTest, MalformedThrows) {
  EXPECT_THROW(address_node("tcp://node1:5"), ConfigError);
  EXPECT_THROW(address_node("sim://node1"), ConfigError);
  EXPECT_THROW(address_node("sim://nodeX:5"), ConfigError);
}

class NetworkTest : public ::testing::Test {
 protected:
  sim::Simulation simulation;
  NetworkConfig config{};
  Network network{simulation, config};
};

/// A delivery that ignores what it receives.
void ignore(EndpointId, std::vector<std::byte>) {}

TEST_F(NetworkTest, DeliversWithLatency) {
  std::vector<std::byte> received;
  SimTime arrival;
  const EndpointId dst = network.bind(
      make_address(1, 1), [&](EndpointId, std::vector<std::byte> payload) {
        received = std::move(payload);
        arrival = simulation.now();
      });
  std::vector<std::byte> payload(1000);
  const EndpointId src = network.bind(make_address(0, 1), ignore);
  network.send(src, dst, payload);
  simulation.run();
  EXPECT_EQ(received.size(), 1000u);
  // latency 2us + 1000B / 12.5GB/s = 2us + 0.08us
  EXPECT_NEAR(arrival.to_seconds(), 2.08e-6, 1e-8);
}

TEST_F(NetworkTest, LoopbackIsFaster) {
  SimTime arrival;
  const EndpointId dst = network.bind(
      make_address(0, 2),
      [&](EndpointId, std::vector<std::byte>) { arrival = simulation.now(); });
  const EndpointId src = network.bind(make_address(0, 1), ignore);
  network.send(src, dst,
               std::vector<std::byte>(1 << 20));  // 1 MiB, free on loopback
  simulation.run();
  EXPECT_NEAR(arrival.to_seconds(), 0.5e-6, 1e-9);
}

TEST_F(NetworkTest, NicSerializesBackToBackSends) {
  std::vector<double> arrivals;
  const EndpointId dst = network.bind(
      make_address(1, 1), [&](EndpointId, std::vector<std::byte>) {
        arrivals.push_back(simulation.now().to_seconds());
      });
  const EndpointId src = network.bind(make_address(0, 1), ignore);
  // Two 12.5 KB messages: each takes 1us of wire time.
  const std::vector<std::byte> payload(12500);
  network.send(src, dst, payload);
  network.send(src, dst, payload);
  simulation.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second message starts only after the first's transfer finished.
  EXPECT_NEAR(arrivals[1] - arrivals[0], 1e-6, 1e-8);
}

TEST_F(NetworkTest, DoubleBindThrows) {
  network.bind(make_address(0, 1), ignore);
  EXPECT_THROW(network.bind(make_address(0, 1), ignore), ConfigError);
}

TEST_F(NetworkTest, UnboundDestinationDropsMessage) {
  const EndpointId src = network.bind(make_address(0, 1), ignore);
  network.send(src, network.resolve(make_address(5, 5)), {});
  simulation.run();
  EXPECT_EQ(network.messages_dropped(), 1u);
}

TEST_F(NetworkTest, UnbindStopsDelivery) {
  int received = 0;
  const EndpointId dst = network.bind(
      make_address(1, 1),
      [&](EndpointId, std::vector<std::byte>) { ++received; });
  const EndpointId src = network.bind(make_address(0, 1), ignore);
  network.send(src, dst, {});
  network.unbind(dst);
  simulation.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.messages_dropped(), 1u);
}

TEST_F(NetworkTest, DropsCountedPerDestination) {
  // In-flight messages lost to an unbind (or an unbound destination) are
  // attributed to the destination address, not just a global counter.
  const Address gone = make_address(1, 1);
  const Address alive = make_address(2, 1);
  const EndpointId gone_id = network.bind(gone, ignore);
  const EndpointId alive_id = network.bind(alive, ignore);
  const EndpointId src = network.bind(make_address(0, 1), ignore);
  network.send(src, gone_id, {});
  network.send(src, gone_id, {});
  network.send(src, alive_id, {});
  network.unbind(gone_id);
  simulation.run();

  EXPECT_EQ(network.messages_dropped(), 2u);
  const auto& drops = network.drops_by_endpoint();
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops.at(gone), 2u);
}

TEST_F(NetworkTest, DeliveryMayBindEndpoints) {
  // A delivery that binds endpoints must still read its own captures: the
  // endpoint table may not move the delivery that is running. The capture
  // is small enough to live inside the std::function itself.
  static std::uint64_t seen = 0;
  const std::uint64_t marker = 0x5a5a5a5a5a5a5a5aULL;
  const EndpointId dst = network.bind(
      make_address(1, 1),
      [net = &network, marker](EndpointId, std::vector<std::byte>) {
        for (int i = 0; i < 64; ++i) net->bind(make_address(2, i), ignore);
        seen = marker;
      });
  const EndpointId src = network.bind(make_address(0, 1), ignore);
  network.send(src, dst, {});
  simulation.run();
  EXPECT_EQ(seen, marker);
  EXPECT_EQ(network.messages_dropped(), 0u);
}

TEST_F(NetworkTest, Accounting) {
  const EndpointId dst = network.bind(make_address(1, 1), ignore);
  const EndpointId src = network.bind(make_address(0, 1), ignore);
  network.send(src, dst, std::vector<std::byte>(100));
  network.send(src, dst, std::vector<std::byte>(50));
  EXPECT_EQ(network.messages_sent(), 2u);
  EXPECT_EQ(network.bytes_sent(), 150u);
}

// ---------- Wire format ----------

std::vector<std::byte> encode_frame(wire::Kind kind, std::uint64_t id,
                                    std::string_view rpc,
                                    const datamodel::Node& body) {
  std::vector<std::byte> frame;
  frame.reserve(wire::frame_size(kind, rpc.size(), body.packed_size()));
  wire::append_header(frame, kind, id, rpc);
  body.pack(frame);
  return frame;
}

TEST(WireTest, RequestHeaderRoundTrip) {
  datamodel::Node body;
  body["value"].set(std::int64_t{42});
  body["name"].set("publish");
  const auto frame =
      encode_frame(wire::Kind::kRequest, 0xDEADBEEFCAFEULL, "soma.push", body);

  const wire::FrameHeader header = wire::decode_header(frame);
  EXPECT_EQ(header.kind, wire::Kind::kRequest);
  EXPECT_EQ(header.request_id, 0xDEADBEEFCAFEULL);
  EXPECT_EQ(header.rpc, "soma.push");
  const datamodel::Node back = datamodel::Node::unpack(header.body);
  EXPECT_EQ(back.fetch_existing("value").as_int64(), 42);
  EXPECT_EQ(back.fetch_existing("name").as_string(), "publish");
}

TEST(WireTest, ResponseHeaderRoundTrip) {
  datamodel::Node body;
  body["ok"].set(std::int64_t{1});
  const auto frame = encode_frame(wire::Kind::kResponse, 7, {}, body);

  const wire::FrameHeader header = wire::decode_header(frame);
  EXPECT_EQ(header.kind, wire::Kind::kResponse);
  EXPECT_EQ(header.request_id, 7u);
  EXPECT_TRUE(header.rpc.empty());
  EXPECT_EQ(datamodel::Node::unpack(header.body).fetch_existing("ok").as_int64(),
            1);
}

TEST(WireTest, FrameSizeMatchesLegacyEnvelopeBytes) {
  // The figure benches are calibrated on the legacy envelope byte counts:
  // 57 + rpc_len + body for requests, 45 + body for responses. The framed
  // format must occupy exactly the same number of simulated bytes.
  datamodel::Node body;
  body["stat"].set(std::vector<std::int64_t>{1, 2, 3, 4, 5, 6});
  const std::size_t body_bytes = body.packed_size();
  const std::string rpc = "soma.publish";

  const auto request = encode_frame(wire::Kind::kRequest, 1, rpc, body);
  EXPECT_EQ(request.size(), 57u + rpc.size() + body_bytes);
  EXPECT_EQ(request.size(),
            wire::frame_size(wire::Kind::kRequest, rpc.size(), body_bytes));

  const auto response = encode_frame(wire::Kind::kResponse, 1, {}, body);
  EXPECT_EQ(response.size(), 45u + body_bytes);
  EXPECT_EQ(response.size(),
            wire::frame_size(wire::Kind::kResponse, 0, body_bytes));
}

TEST(WireTest, TruncatedFramesThrow) {
  datamodel::Node body;
  body["value"].set(std::int64_t{9});
  const auto frame = encode_frame(wire::Kind::kRequest, 3, "echo", body);
  // Any strict header prefix must be rejected; truncating into the body is
  // caught by Node::unpack downstream, not by decode_header.
  const std::size_t header_bytes = wire::kFixedHeaderBytes + 4;  // + rpc len
  for (std::size_t n = 0; n < header_bytes; ++n) {
    EXPECT_THROW((void)wire::decode_header(
                     std::span<const std::byte>(frame.data(), n)),
                 LookupError)
        << "prefix of " << n << " bytes accepted";
  }
}

TEST(WireTest, BadMagicThrows) {
  datamodel::Node body;
  auto frame = encode_frame(wire::Kind::kRequest, 3, "echo", body);
  frame[0] = std::byte{'X'};
  EXPECT_THROW((void)wire::decode_header(frame), LookupError);
}

TEST(WireTest, UnknownKindThrows) {
  datamodel::Node body;
  auto frame = encode_frame(wire::Kind::kRequest, 3, "echo", body);
  frame[4] = std::byte{2};  // kind field: only 0 and 1 are defined
  EXPECT_THROW((void)wire::decode_header(frame), LookupError);
}

TEST(WireTest, OversizedRpcLengthThrows) {
  datamodel::Node body;
  auto frame = encode_frame(wire::Kind::kRequest, 3, "echo", body);
  // Corrupt the rpc length to point past the end of the frame.
  frame[13] = std::byte{0xFF};
  frame[14] = std::byte{0xFF};
  frame[15] = std::byte{0xFF};
  frame[16] = std::byte{0xFF};
  EXPECT_THROW((void)wire::decode_header(frame), LookupError);
}

TEST(WireTest, RandomGarbageNeverCrashes) {
  // decode_header on arbitrary bytes must either succeed or throw — never
  // read out of bounds. (Run under ASan/UBSan in CI via SOMA_SANITIZE.)
  Rng rng(2024);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::byte> junk(rng.uniform_index(64));
    for (auto& b : junk) {
      b = static_cast<std::byte>(rng.uniform_index(256));
    }
    try {
      (void)wire::decode_header(junk);
    } catch (const LookupError&) {
      // expected for almost all inputs
    }
  }
}

TEST(WireTest, RandomBodiesRoundTrip) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    datamodel::Node body;
    const int leaves = static_cast<int>(rng.uniform_index(8));
    for (int i = 0; i < leaves; ++i) {
      body["leaf" + std::to_string(i)].set(
          static_cast<std::int64_t>(rng.next_u64() >> 1));
    }
    const std::uint64_t id = rng.next_u64();
    const auto kind =
        rng.uniform_index(2) == 0 ? wire::Kind::kRequest : wire::Kind::kResponse;
    const std::string rpc =
        kind == wire::Kind::kRequest
            ? std::string(rng.uniform_index(24), 'r')
            : std::string{};

    const auto frame = encode_frame(kind, id, rpc, body);
    const wire::FrameHeader header = wire::decode_header(frame);
    ASSERT_EQ(header.kind, kind);
    ASSERT_EQ(header.request_id, id);
    ASSERT_EQ(header.rpc, rpc);
    ASSERT_TRUE(datamodel::Node::unpack(header.body) == body);
  }
}

// ---------- RPC engine ----------

class RpcTest : public ::testing::Test {
 protected:
  sim::Simulation simulation;
  Network network{simulation, NetworkConfig{}};
};

datamodel::Node make_payload(std::int64_t value) {
  datamodel::Node node;
  node["value"].set(value);
  return node;
}

TEST_F(RpcTest, CallInvokesHandlerAndReturnsResponse) {
  Engine server(network, make_address(0, 100));
  Engine client(network, make_address(1, 100));

  server.define("echo", [](const Address&, const datamodel::Node& args) {
    datamodel::Node reply;
    reply["echoed"].set(args.fetch_existing("value").as_int64() * 2);
    return reply;
  });

  std::int64_t result = 0;
  client.call(server.address(), "echo", make_payload(21),
              [&](Engine::Result done) {
                result = datamodel::Node::unpack(done.body)
                             .fetch_existing("echoed")
                             .as_int64();
              });
  simulation.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(server.stats().requests_handled, 1u);
  EXPECT_EQ(client.stats().responses_received, 1u);
}

TEST_F(RpcTest, CompletionOwnsMoveOnlyCaptureAndFiresOnce) {
  Engine server(network, make_address(0, 100));
  Engine client(network, make_address(1, 100));
  const auto reply_for = [](const datamodel::Node& args) {
    datamodel::Node reply;
    reply["echoed"].set(args.fetch_existing("value").as_int64() * 2);
    return reply;
  };
  server.define("echo", [&](const Address&, const datamodel::Node& args) {
    return reply_for(args);
  });

  int fired = 0;
  bool ok = false;
  std::vector<std::byte> body;
  auto owned = std::make_unique<std::int64_t>(21);
  client.call(server.address(), "echo", make_payload(21),
              [&, owned = std::move(owned)](Engine::Result done) {
                ++fired;
                ok = done.ok;
                body.assign(done.body.begin(), done.body.end());
                EXPECT_EQ(*owned, 21);
              });
  simulation.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(ok);
  EXPECT_EQ(body, reply_for(make_payload(21)).pack());
}

TEST_F(RpcTest, CallerAddressPassedToHandler) {
  Engine server(network, make_address(0, 100));
  Engine client(network, make_address(3, 100));
  Address seen;
  server.define("who", [&](const Address& caller, const datamodel::Node&) {
    seen = caller;
    return datamodel::Node{};
  });
  client.call(server.address(), "who", {});
  simulation.run();
  EXPECT_EQ(seen, client.address());
}

TEST_F(RpcTest, UnknownRpcReturnsError) {
  ServiceCost cost;
  cost.base = Duration::milliseconds(1);
  Engine server(network, make_address(0, 100), cost);
  Engine client(network, make_address(1, 100));
  datamodel::Node reply;
  SimTime replied;
  client.call(server.address(), "nope", make_payload(5),
              [&](Engine::Result done) {
                reply = datamodel::Node::unpack(done.body);
                replied = simulation.now();
              });
  testing::internal::CaptureStderr();
  simulation.run();
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[WARN] rpc engine sim://node0:100: unknown rpc 'nope'\n");
  EXPECT_EQ(reply.fetch_existing("error").as_string(), "unknown rpc: nope");

  // An unknown rpc still occupies the engine for its service cost.
  const std::uint64_t bytes_in = server.stats().bytes_in;
  EXPECT_EQ(bytes_in, client.stats().bytes_out);
  EXPECT_EQ(server.stats().requests_handled, 1u);
  EXPECT_EQ(server.stats().total_service_time, cost.cost_for(bytes_in));
  EXPECT_GE(server.busy_until(), SimTime{} + cost.cost_for(bytes_in));
  EXPECT_GT(replied, server.busy_until());
}

TEST_F(RpcTest, DuplicateRpcNameThrows) {
  // define and define_raw share one name space, in either order.
  Engine server(network, make_address(0, 100));
  const auto node_handler = [](const Address&, const datamodel::Node&) {
    return datamodel::Node{};
  };
  const auto raw_handler = [](const Address&, std::span<const std::byte>) {
    return datamodel::Node{};
  };
  server.define("x", node_handler);
  EXPECT_THROW(server.define("x", node_handler), ConfigError);
  EXPECT_THROW(server.define_raw("x", raw_handler), ConfigError);
  server.define_raw("y", raw_handler);
  EXPECT_THROW(server.define_raw("y", raw_handler), ConfigError);
  EXPECT_THROW(server.define("y", node_handler), ConfigError);
}

TEST_F(RpcTest, RawHandlerSeesExactlyTheAppendedBody) {
  Engine server(network, make_address(0, 100));
  Engine client(network, make_address(1, 100));
  std::vector<std::byte> seen;
  server.define_raw("raw", [&](const Address&,
                               std::span<const std::byte> body) {
    seen.assign(body.begin(), body.end());
    return datamodel::Node{};
  });
  const std::vector<std::byte> sent = {std::byte{0x00}, std::byte{0x01},
                                       std::byte{0xfe}, std::byte{0xff},
                                       std::byte{0x7f}};
  client.call_raw(server.id(), "raw", sent.size(),
                  [&](std::vector<std::byte>& frame) {
                    frame.insert(frame.end(), sent.begin(), sent.end());
                  });
  simulation.run();
  EXPECT_EQ(seen, sent);
  EXPECT_EQ(client.stats().bytes_out,
            wire::frame_size(wire::Kind::kRequest, 3, sent.size()));
}

TEST_F(RpcTest, MalformedBodyThrowsLookupErrorAtDispatch) {
  ServiceCost cost;
  cost.base = Duration::milliseconds(1);
  Engine server(network, make_address(0, 100), cost);
  Engine client(network, make_address(1, 100));
  bool handled = false;
  server.define("x", [&](const Address&, const datamodel::Node&) {
    handled = true;
    return datamodel::Node{};
  });
  const std::vector<std::byte> garbage(3, std::byte{0xff});
  client.call_raw(server.id(), "x", garbage.size(),
                  [&](std::vector<std::byte>& frame) {
                    frame.insert(frame.end(), garbage.begin(), garbage.end());
                  });
  EXPECT_THROW(simulation.run(), LookupError);
  EXPECT_FALSE(handled);
  // Charged on arrival, decoded at dispatch: the throw comes once the
  // service cost has elapsed.
  EXPECT_EQ(server.stats().bytes_in, client.stats().bytes_out);
  EXPECT_EQ(simulation.now(), server.busy_until());
}

TEST_F(RpcTest, FireAndForgetStillCountsAck) {
  Engine server(network, make_address(0, 100));
  Engine client(network, make_address(1, 100));
  server.define("noop", [](const Address&, const datamodel::Node&) {
    return datamodel::Node{};
  });
  client.call(server.address(), "noop", {});  // no callback
  simulation.run();
  EXPECT_EQ(server.stats().requests_handled, 1u);
  EXPECT_EQ(client.stats().responses_received, 1u);
}

TEST_F(RpcTest, SerialServiceQueuesRequests) {
  // With base cost 1ms, 5 near-simultaneous requests should finish ~5ms of
  // service time later, and queueing delay must accumulate.
  ServiceCost cost;
  cost.base = Duration::milliseconds(1);
  cost.per_kib = Duration::zero();
  Engine server(network, make_address(0, 100), cost);
  Engine client(network, make_address(1, 100));
  server.define("work", [](const Address&, const datamodel::Node&) {
    return datamodel::Node{};
  });

  int acks = 0;
  SimTime last_ack;
  for (int i = 0; i < 5; ++i) {
    client.call(server.address(), "work", make_payload(i),
                [&](Engine::Result) {
                  ++acks;
                  last_ack = simulation.now();
                });
  }
  simulation.run();
  EXPECT_EQ(acks, 5);
  EXPECT_GE(last_ack.to_seconds(), 5e-3);
  EXPECT_GT(server.stats().total_queue_delay, Duration::zero());
  EXPECT_GE(server.stats().max_queue_delay, Duration::milliseconds(3));
}

TEST_F(RpcTest, ServiceCostScalesWithPayload) {
  ServiceCost cost;
  EXPECT_EQ(cost.cost_for(0), cost.base);
  EXPECT_GT(cost.cost_for(10240), cost.cost_for(1024));
  const Duration one_kib = cost.cost_for(1024);
  EXPECT_EQ(one_kib, cost.base + cost.per_kib);
}

TEST_F(RpcTest, ByteAccounting) {
  Engine server(network, make_address(0, 100));
  Engine client(network, make_address(1, 100));
  server.define("x", [](const Address&, const datamodel::Node&) {
    return datamodel::Node{};
  });
  client.call(server.address(), "x", make_payload(7));
  simulation.run();
  EXPECT_GT(client.stats().bytes_out, 0u);
  EXPECT_EQ(server.stats().bytes_in, client.stats().bytes_out);
  EXPECT_GT(server.stats().bytes_out, 0u);
}

TEST_F(RpcTest, EngineUnbindsOnDestruction) {
  {
    Engine server(network, make_address(0, 100));
  }
  // Address reusable after destruction.
  Engine again(network, make_address(0, 100));
  SUCCEED();
}

TEST_F(RpcTest, ManyConcurrentClients) {
  ServiceCost cost;
  cost.base = Duration::microseconds(100);
  Engine server(network, make_address(0, 100), cost);
  server.define("inc", [](const Address&, const datamodel::Node& args) {
    datamodel::Node reply;
    reply["v"].set(args.fetch_existing("value").as_int64() + 1);
    return reply;
  });

  std::vector<std::unique_ptr<Engine>> clients;
  int correct = 0;
  for (int i = 0; i < 20; ++i) {
    clients.push_back(
        std::make_unique<Engine>(network, make_address(i % 5 + 1, 200 + i)));
    clients.back()->call(server.address(), "inc", make_payload(i),
                         [&, i](Engine::Result done) {
                           const datamodel::Node reply =
                               datamodel::Node::unpack(done.body);
                           if (reply.fetch_existing("v").as_int64() == i + 1) {
                             ++correct;
                           }
                         });
  }
  simulation.run();
  EXPECT_EQ(correct, 20);
  EXPECT_EQ(server.stats().requests_handled, 20u);
}

TEST_F(RpcTest, ResponseCallbackMayBindNewEngines) {
  // Binding endpoints from inside a delivery must not disturb the delivery
  // that is running, nor later deliveries to any endpoint.
  Engine server(network, make_address(0, 100));
  Engine client(network, make_address(1, 100));
  server.define("echo", [](const Address&, const datamodel::Node& args) {
    return args;
  });
  std::vector<std::unique_ptr<Engine>> late;
  std::vector<std::int64_t> replies;
  const auto value = [](Engine::Result done) {
    return datamodel::Node::unpack(done.body)
        .fetch_existing("value")
        .as_int64();
  };
  client.call(server.address(), "echo", make_payload(1),
              [&](Engine::Result done) {
                for (int i = 0; i < 64; ++i) {
                  late.push_back(std::make_unique<Engine>(
                      network, make_address(2 + i % 3, 300 + i)));
                }
                replies.push_back(value(done));
                for (int i = 0; i < 64; ++i) {
                  late[static_cast<std::size_t>(i)]->call(
                      server.address(), "echo", make_payload(100 + i),
                      [&](Engine::Result r) { replies.push_back(value(r)); });
                }
              });
  simulation.run();
  client.call(server.address(), "echo", make_payload(7),
              [&](Engine::Result done) { replies.push_back(value(done)); });
  simulation.run();
  ASSERT_EQ(replies.size(), 66u);
  EXPECT_EQ(replies.front(), 1);
  EXPECT_EQ(replies.back(), 7);
  std::vector<std::int64_t> middle(replies.begin() + 1, replies.end() - 1);
  std::sort(middle.begin(), middle.end());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(middle[static_cast<std::size_t>(i)], 100 + i);
  }
  EXPECT_EQ(server.stats().requests_handled, 66u);
}

TEST_F(RpcTest, RebindWhileInFlightDeliversToTheNewBinding) {
  // A message is routed by its destination address at delivery time: an
  // address rebound while a request is in flight answers from the new
  // engine.
  Engine client(network, make_address(1, 100));
  auto first = std::make_unique<Engine>(network, make_address(0, 100));
  first->define("who", [](const Address&, const datamodel::Node&) {
    return make_payload(1);
  });
  std::int64_t answered_by = 0;
  client.call(first->address(), "who", {}, [&](Engine::Result done) {
    answered_by =
        datamodel::Node::unpack(done.body).fetch_existing("value").as_int64();
  });
  first.reset();
  Engine second(network, make_address(0, 100));
  second.define("who", [](const Address&, const datamodel::Node&) {
    return make_payload(2);
  });
  simulation.run();
  EXPECT_EQ(answered_by, 2);
  EXPECT_EQ(second.stats().requests_handled, 1u);
  EXPECT_EQ(network.messages_dropped(), 0u);
}

TEST_F(RpcTest, UnbindWithRequestInFlightCountsTheDropUnderItsAddress) {
  Engine client(network, make_address(1, 100));
  auto server = std::make_unique<Engine>(network, make_address(0, 100));
  const Address gone = server->address();
  bool answered = false;
  client.call(gone, "x", make_payload(3),
              [&](Engine::Result) { answered = true; });
  server.reset();
  simulation.run();
  EXPECT_FALSE(answered);
  EXPECT_EQ(network.messages_dropped(), 1u);
  const std::map<Address, std::uint64_t> drops = network.drops_by_endpoint();
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops.at(gone), 1u);
}

}  // namespace
}  // namespace soma::net
