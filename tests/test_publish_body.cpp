// The single-record publish request on the wire.
//
// A soma.publish body is the exact Node::pack encoding of the object
// {ns, source, data[, t]}, in that order. The pins below hold whole frames
// and acks byte for byte, plus the per-shard ingest counters, so a change to
// how either end builds or reads the body cannot move a byte unnoticed.
// Every suite name contains "PublishBody" for the CI fault-matrix regex.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "datamodel/node.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"
#include "net/wire.hpp"
#include "sim/simulation.hpp"
#include "soma/client.hpp"
#include "soma/namespaces.hpp"
#include "soma/service.hpp"

namespace soma {
namespace {

using core::Namespace;
using datamodel::Node;
namespace wire = net::wire;

std::string hex(std::span<const std::byte> bytes) {
  std::string out;
  char digits[3];
  for (const std::byte b : bytes) {
    std::snprintf(digits, sizeof(digits), "%02x", static_cast<unsigned>(b));
    out += digits;
  }
  return out;
}

Node sample_record() {
  Node record;
  record["cpu"].set(0.25);
  record["procs"].set(std::vector<std::int64_t>{3, 1, 4});
  record["host"].set("cn0001");
  return record;
}

/// The envelope a soma.publish body encodes, built as an explicit tree.
Node envelope(const std::string& ns, const std::string& source,
              const Node& data, std::optional<std::int64_t> t = {}) {
  Node args;
  args["ns"].set(ns);
  args["source"].set(source);
  args["data"] = data;
  if (t) args["t"].set(*t);
  return args;
}

std::vector<std::byte> ack_frame(std::uint64_t request_id) {
  Node ack;
  ack["status"].set("ok");
  std::vector<std::byte> frame;
  wire::append_header(frame, wire::Kind::kResponse, request_id, {});
  ack.pack(frame);
  return frame;
}

/// A raw endpoint bound where the client's service rank would be: it keeps
/// every request frame and acks those `answer` accepts.
class PublishBodyCaptureTest : public ::testing::Test {
 protected:
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  const net::Address rank = net::make_address(0, 9000);
  std::vector<std::vector<std::byte>> frames;
  std::function<bool(const wire::FrameHeader&)> answer =
      [](const wire::FrameHeader&) { return true; };

  void SetUp() override {
    network.bind(rank, [this](net::EndpointId from,
                              std::vector<std::byte> frame) {
      const wire::FrameHeader header = wire::decode_header(frame);
      const bool reply = answer(header);
      const std::uint64_t id = header.request_id;
      frames.push_back(std::move(frame));
      if (reply) network.send(network.resolve(rank), from, ack_frame(id));
    });
  }

  /// Bodies of the captured soma.publish frames, in arrival order.
  std::vector<std::vector<std::byte>> publish_bodies() const {
    std::vector<std::vector<std::byte>> out;
    for (const auto& frame : frames) {
      const wire::FrameHeader header = wire::decode_header(frame);
      if (header.rpc != "soma.publish") continue;
      out.emplace_back(header.body.begin(), header.body.end());
    }
    return out;
  }
};

TEST_F(PublishBodyCaptureTest, LivePublishBodyIsThePackedEnvelope) {
  core::SomaClient client(network, 1, 6000, Namespace::kHardware, {rank});
  simulation.schedule_at(SimTime::from_seconds(1.0), [&] {
    client.publish("cn0001", sample_record());
  });
  simulation.run();

  ASSERT_EQ(frames.size(), 1u);
  const auto bodies = publish_bodies();
  ASSERT_EQ(bodies.size(), 1u);
  EXPECT_EQ(bodies[0], envelope("hardware", "cn0001", sample_record()).pack());
  EXPECT_EQ(hex(frames[0]),
            "534f4d310001000000000000000c000000736f6d612e7075626c697368000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "00000000000103000000020000006e7304080000006861726477617265060000"
            "00736f757263650406000000636e303030310400000064617461010300000003"
            "00000063707503000000000000d03f0500000070726f63730503000000030000"
            "00000000000100000000000000040000000000000004000000686f7374040600"
            "0000636e30303031");
  EXPECT_EQ(client.stats().acked, 1u);
}

TEST_F(PublishBodyCaptureTest, ReplayedPublishCarriesItsOriginalTime) {
  // The first attempt goes unanswered; the client buffers the record,
  // probes until the rank answers a ping, then replays it with "t".
  core::ClientReliability reliability;
  reliability.retry.timeout = Duration::milliseconds(10);
  reliability.buffer_on_failure = true;
  reliability.probe_period = Duration::milliseconds(100);
  bool first = true;
  answer = [&first](const wire::FrameHeader& header) {
    if (header.rpc != "soma.publish" || !first) return true;
    first = false;
    return false;
  };
  core::SomaClient client(network, 1, 6000, Namespace::kHardware, {rank},
                          reliability);
  const SimTime published_at = SimTime::from_seconds(1.0);
  simulation.schedule_at(published_at, [&] {
    client.publish("cn0001", sample_record());
  });
  simulation.run_until(SimTime::from_seconds(2.0));

  EXPECT_EQ(client.stats().replayed, 1u);
  const auto bodies = publish_bodies();
  ASSERT_EQ(bodies.size(), 2u);
  EXPECT_EQ(bodies[0], envelope("hardware", "cn0001", sample_record()).pack());
  EXPECT_EQ(bodies[1], envelope("hardware", "cn0001", sample_record(),
                                published_at.nanos())
                           .pack());
  EXPECT_EQ(hex(bodies[1]),
            "0104000000020000006e730408000000686172647761726506000000736f7572"
            "63650406000000636e3030303104000000646174610103000000030000006370"
            "7503000000000000d03f0500000070726f637305030000000300000000000000"
            "0100000000000000040000000000000004000000686f73740406000000636e30"
            "30303101000000740200ca9a3b00000000");
}

TEST_F(PublishBodyCaptureTest, EmptyRecordPacksAsOneByte) {
  core::SomaClient client(network, 1, 6000, Namespace::kWorkflow, {rank});
  client.publish("task.000000", Node{});
  simulation.run();

  const auto bodies = publish_bodies();
  ASSERT_EQ(bodies.size(), 1u);
  EXPECT_EQ(bodies[0], envelope("workflow", "task.000000", Node{}).pack());
  // The record is the last field: its 1-byte empty encoding ends the body.
  EXPECT_EQ(bodies[0].back(), std::byte{0});
  EXPECT_EQ(hex(bodies[0]),
            "0103000000020000006e730408000000776f726b666c6f7706000000736f7572"
            "6365040b0000007461736b2e303030303030040000006461746100");
}

/// Request frames fed to a live service from a raw endpoint bound as the
/// client, which keeps the acks.
class PublishBodyIngestTest : public ::testing::Test {
 protected:
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  const net::Address client = net::make_address(1, 6000);
  std::vector<std::vector<std::byte>> acks;
  std::uint64_t next_id = 1;

  void SetUp() override {
    network.bind(client, [this](net::EndpointId /*from*/,
                                std::vector<std::byte> frame) {
      acks.push_back(std::move(frame));
    });
  }

  void send_publish(const net::Address& to,
                    const std::vector<std::byte>& body) {
    std::vector<std::byte> frame;
    wire::append_header(frame, wire::Kind::kRequest, next_id++,
                        "soma.publish");
    frame.insert(frame.end(), body.begin(), body.end());
    network.send(network.resolve(client), network.resolve(to),
                 std::move(frame));
  }
};

TEST_F(PublishBodyIngestTest, AcksAndShardBytesArePinned) {
  core::ServiceConfig config;
  config.namespaces = {Namespace::kHardware};
  config.ranks_per_namespace = 2;
  core::SomaService service(network, {0}, config);
  const auto& ranks = service.instance(Namespace::kHardware).ranks;

  // A live record, a replayed one, an empty one, and a body with no "data"
  // field at all (stored as an empty record). Each source hashes to the
  // rank it is sent to.
  Node no_data;
  no_data["ns"].set("hardware");
  no_data["source"].set("cn0003");
  send_publish(ranks[0],
               envelope("hardware", "cn0002", sample_record()).pack());
  send_publish(ranks[1], envelope("PROC", "cn0001", sample_record(),
                                  SimTime::from_seconds(0.5).nanos())
                             .pack());
  send_publish(ranks[0], envelope("hardware", "cn0002", Node{}).pack());
  send_publish(ranks[1], no_data.pack());
  simulation.run();

  EXPECT_EQ(service.publishes_received(), 4u);
  EXPECT_EQ(service.replayed_publishes(), 1u);
  ASSERT_EQ(acks.size(), 4u);
  for (std::size_t i = 0; i < acks.size(); ++i) {
    const wire::FrameHeader header = wire::decode_header(acks[i]);
    EXPECT_EQ(acks[i], ack_frame(header.request_id)) << i;
  }
  EXPECT_EQ(hex(acks[0]),
            "534f4d3101010000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000001010000000600000073746174757304020000"
            "006f6b");

  const auto& shard0 = service.store().shard(Namespace::kHardware, 0);
  const auto& shard1 = service.store().shard(Namespace::kHardware, 1);
  EXPECT_EQ(shard0.record_count(), 2u);
  EXPECT_EQ(shard1.record_count(), 2u);
  EXPECT_EQ(shard0.ingested_bytes(), 79u);
  EXPECT_EQ(shard1.ingested_bytes(), 79u);
  const core::TimedRecord* replayed = shard1.latest("cn0001");
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->time, SimTime::from_seconds(0.5));
  const core::TimedRecord* missing = shard1.latest("cn0003");
  ASSERT_NE(missing, nullptr);
  EXPECT_TRUE(missing->data.is_empty());
}


// ---------- the in-place decoder against Node::unpack ----------

/// What the tree path made of a body: Node::unpack, then the fields read
/// the way a Node handler reads them.
struct TreeDecode {
  std::string ns;
  std::string source;
  Node data;
  std::optional<std::int64_t> t;
};

TreeDecode tree_decode(std::span<const std::byte> body) {
  const Node args = Node::unpack(body);
  TreeDecode out;
  out.ns = args.fetch_existing("ns").as_string();
  out.source = args.fetch_existing("source").as_string();
  if (const Node* data = args.find_child("data")) out.data = *data;
  if (const Node* t = args.find_child("t")) out.t = t->as_int64();
  return out;
}

/// The decoder either agrees with the tree path or both reject the body,
/// the decoder with LookupError.
void expect_decoders_agree(std::span<const std::byte> body) {
  std::optional<TreeDecode> expected;
  try {
    expected = tree_decode(body);
  } catch (const LookupError&) {
  }
  if (!expected) {
    EXPECT_THROW((void)wire::decode_publish_body(body), LookupError)
        << hex(body);
    return;
  }
  wire::PublishBodyView view;
  ASSERT_NO_THROW(view = wire::decode_publish_body(body)) << hex(body);
  EXPECT_EQ(view.ns, expected->ns);
  EXPECT_EQ(view.source, expected->source);
  EXPECT_TRUE(view.data == expected->data) << hex(body);
  EXPECT_TRUE(Node::unpack(view.data_bytes) == view.data) << hex(body);
  EXPECT_EQ(view.t, expected->t);
}

/// An object encoding from already-encoded children, in order; unlike a
/// Node it can repeat a name.
std::vector<std::byte> object_body(
    const std::vector<std::pair<std::string, std::vector<std::byte>>>&
        fields) {
  std::vector<std::byte> out(5);
  out[0] = static_cast<std::byte>(datamodel::PackTag::kObject);
  bytes::store_u32(out.data() + 1, static_cast<std::uint32_t>(fields.size()));
  for (const auto& [name, value] : fields) {
    const std::size_t at = out.size();
    out.resize(at + 4);
    bytes::store_u32(out.data() + at, static_cast<std::uint32_t>(name.size()));
    for (const char c : name) out.push_back(static_cast<std::byte>(c));
    out.insert(out.end(), value.begin(), value.end());
  }
  return out;
}

template <typename T>
std::vector<std::byte> packed(T value) {
  Node node;
  node.set(value);
  return node.pack();
}

std::vector<std::byte> client_body(const Node& data,
                                   std::optional<std::int64_t> t = {}) {
  std::vector<std::byte> body;
  wire::encode_publish_body(body, "hardware", "cn0001", data,
                            data.packed_size(), t);
  return body;
}

/// Real publish bodies: live, replayed, empty and nested records.
std::vector<std::vector<std::byte>> seed_bodies() {
  Node nested = sample_record();
  nested["mem"]["free"].set(std::int64_t{1} << 33);
  nested["mem"]["loads"].set(std::vector<double>{0.5, 1.5});
  return {client_body(sample_record()),
          client_body(sample_record(), std::int64_t{1'000'000'000}),
          client_body(Node{}), client_body(nested, -7)};
}

TEST(PublishBodyDecoderTest, EncoderWritesThePackedEnvelope) {
  for (const std::optional<std::int64_t> t :
       {std::optional<std::int64_t>{}, std::optional<std::int64_t>{42}}) {
    const std::vector<std::byte> body = client_body(sample_record(), t);
    EXPECT_EQ(body, envelope("hardware", "cn0001", sample_record(), t).pack());
    EXPECT_EQ(body.size(),
              wire::publish_body_size("hardware", "cn0001",
                                      sample_record().packed_size(),
                                      t.has_value()));
  }
}

TEST(PublishBodyDecoderTest, RealBodiesDecodeInPlace) {
  for (const auto& body : seed_bodies()) expect_decoders_agree(body);
  const std::vector<std::byte> body = client_body(sample_record());
  const wire::PublishBodyView view = wire::decode_publish_body(body);
  const std::vector<std::byte> record = sample_record().pack();
  EXPECT_TRUE(std::equal(view.data_bytes.begin(), view.data_bytes.end(),
                         record.begin(), record.end()));
  // The record is a view into the body, not a copy.
  EXPECT_GE(view.data_bytes.data(), body.data());
  EXPECT_LE(view.data_bytes.data() + view.data_bytes.size(),
            body.data() + body.size());
}

TEST(PublishBodyDecoderTest, TruncationAtEveryOffsetIsRejected) {
  for (const auto& body : seed_bodies()) {
    for (std::size_t n = 0; n < body.size(); ++n) {
      const std::span<const std::byte> prefix(body.data(), n);
      expect_decoders_agree(prefix);
      EXPECT_THROW((void)wire::decode_publish_body(prefix), LookupError);
    }
  }
}

TEST(PublishBodyDecoderTest, SeededByteFlipsMatchTheTreePath) {
  Rng rng(20240611);
  for (const auto& body : seed_bodies()) {
    for (int trial = 0; trial < 3000; ++trial) {
      std::vector<std::byte> mutated = body;
      const int flips = 1 + static_cast<int>(rng.uniform_index(3));
      for (int f = 0; f < flips; ++f) {
        const std::size_t at = rng.uniform_index(mutated.size());
        mutated[at] = static_cast<std::byte>(rng.uniform_index(256));
      }
      expect_decoders_agree(mutated);
    }
  }
}

TEST(PublishBodyDecoderTest, AppendedBytesAreRejected) {
  Rng rng(90210);
  for (const auto& body : seed_bodies()) {
    for (int extra = 1; extra <= 9; ++extra) {
      std::vector<std::byte> longer = body;
      for (int i = 0; i < extra; ++i) {
        longer.push_back(static_cast<std::byte>(rng.uniform_index(256)));
      }
      expect_decoders_agree(longer);
      EXPECT_THROW((void)wire::decode_publish_body(longer), LookupError);
    }
  }
}

TEST(PublishBodyDecoderTest, RepeatedFieldTakesItsLastValue) {
  Node first;
  first["x"].set(std::int64_t{1});
  Node second;
  second["y"].set(std::int64_t{2});
  const auto body = object_body({{"ns", packed("hardware")},
                                 {"source", packed(std::int64_t{5})},
                                 {"data", first.pack()},
                                 {"source", packed("cn0002")},
                                 {"t", packed(1.5)},
                                 {"data", second.pack()},
                                 {"t", packed(std::int64_t{9})}});
  expect_decoders_agree(body);
  const wire::PublishBodyView view = wire::decode_publish_body(body);
  EXPECT_EQ(view.source, "cn0002");
  EXPECT_TRUE(view.data == second);
  EXPECT_EQ(view.t, 9);

  // The last value decides: a good field followed by a bad one fails.
  for (const char* name : {"ns", "source", "t"}) {
    const auto bad = object_body({{"ns", packed("hardware")},
                                  {"source", packed("cn0001")},
                                  {"t", packed(std::int64_t{1})},
                                  {name, packed(2.5)}});
    expect_decoders_agree(bad);
    EXPECT_THROW((void)wire::decode_publish_body(bad), LookupError) << name;
  }
}

TEST(PublishBodyDecoderTest, UnknownFieldIsDecodedThenDropped) {
  Node extra;
  extra["deep"]["er"].set("value");
  const auto body = object_body({{"ns", packed("hardware")},
                                 {"extra", extra.pack()},
                                 {"source", packed("cn0001")},
                                 {"data", sample_record().pack()}});
  expect_decoders_agree(body);
  EXPECT_TRUE(wire::decode_publish_body(body).data == sample_record());

  // Its value is still checked: a malformed unknown field rejects the body.
  const auto broken = object_body({{"ns", packed("hardware")},
                                   {"source", packed("cn0001")},
                                   {"extra", {std::byte{0x7f}}}});
  expect_decoders_agree(broken);
  EXPECT_THROW((void)wire::decode_publish_body(broken), LookupError);
}

TEST(PublishBodyDecoderTest, MissingDataIsAnEmptyOneByteRecord) {
  const auto body = object_body(
      {{"ns", packed("hardware")}, {"source", packed("cn0001")}});
  expect_decoders_agree(body);
  const wire::PublishBodyView view = wire::decode_publish_body(body);
  EXPECT_TRUE(view.data.is_empty());
  ASSERT_EQ(view.data_bytes.size(), 1u);
  EXPECT_EQ(view.data_bytes[0],
            static_cast<std::byte>(datamodel::PackTag::kEmpty));
  EXPECT_FALSE(view.t.has_value());
}

TEST(PublishBodyDecoderTest, MissingOrMistypedFieldsAreRejected) {
  const std::vector<std::vector<std::byte>> bodies = {
      object_body({{"source", packed("cn0001")}}),
      object_body({{"ns", packed("hardware")}}),
      object_body({{"ns", packed(std::int64_t{1})},
                   {"source", packed("cn0001")}}),
      object_body({{"ns", packed("hardware")},
                   {"source", sample_record().pack()}}),
      object_body({{"ns", packed("hardware")},
                   {"source", packed("cn0001")},
                   {"t", packed("soon")}}),
      packed(std::int64_t{3}),
      {},
  };
  for (const auto& body : bodies) {
    expect_decoders_agree(body);
    EXPECT_THROW((void)wire::decode_publish_body(body), LookupError)
        << hex(body);
  }
}

TEST(PublishBodyDecoderTest, RecordDepthLimitMatchesTheTreePath) {
  // The envelope is the root, so the record's own root sits at depth 1.
  for (const std::size_t levels :
       {Node::kMaxDepth - 2, Node::kMaxDepth - 1, Node::kMaxDepth}) {
    Node data;
    Node* leaf = &data;
    for (std::size_t i = 0; i < levels; ++i) leaf = &leaf->child("a");
    leaf->set(std::int64_t{1});
    expect_decoders_agree(client_body(data));
  }
  Node ok;
  Node* leaf = &ok;
  for (std::size_t i = 0; i + 1 < Node::kMaxDepth; ++i) {
    leaf = &leaf->child("a");
  }
  leaf->set(std::int64_t{1});
  EXPECT_NO_THROW((void)wire::decode_publish_body(client_body(ok)));
  leaf->child("a").set(std::int64_t{1});
  EXPECT_THROW((void)wire::decode_publish_body(client_body(ok)), LookupError);
}

TEST_F(PublishBodyIngestTest, MalformedBodySurfacesFromRun) {
  core::ServiceConfig config;
  config.namespaces = {Namespace::kHardware};
  core::SomaService service(network, {0}, config);
  net::Engine sender(network, net::make_address(2, 6000));
  const std::vector<std::byte> garbage = {std::byte{0x01}, std::byte{0xff}};
  const net::Address& rank = service.instance(Namespace::kHardware).ranks[0];
  sender.call_raw(network.resolve(rank), "soma.publish", garbage.size(),
                  [&garbage](std::vector<std::byte>& frame) {
                    frame.insert(frame.end(), garbage.begin(), garbage.end());
                  });
  EXPECT_THROW(simulation.run(), LookupError);
  EXPECT_EQ(service.publishes_received(), 0u);
}

// A record whose source hashes to another rank is refused before anything
// is counted, stored or logged, whether it arrives alone or in a batch (here
// behind a record that is home on the receiving rank).
TEST(PublishBodyRoutingTest, MisroutedRecordsSurfaceFromRun) {
  ASSERT_EQ(core::route_source("cn0001", 2), 1u);
  ASSERT_EQ(core::route_source("cn0002", 2), 0u);
  wire::BatchBodyWriter batch("hardware");
  batch.add("cn0002", 1, sample_record());
  batch.add("cn0001", 2, sample_record());
  std::vector<std::byte> batch_body;
  batch.encode(batch_body);
  const std::pair<const char*, std::vector<std::byte>> cases[] = {
      {"soma.publish", envelope("hardware", "cn0001", sample_record()).pack()},
      {"soma.publish_batch", batch_body}};

  for (const auto& [rpc, body] : cases) {
    sim::Simulation simulation;
    net::Network network{simulation, net::NetworkConfig{}};
    core::ServiceConfig config;
    config.namespaces = {Namespace::kHardware};
    config.ranks_per_namespace = 2;
    config.replication.factor = 2;
    core::SomaService service(network, {0}, config);
    net::Engine sender(network, net::make_address(1, 6000));
    const net::Address& rank0 = service.instance(Namespace::kHardware).ranks[0];
    sender.call_raw(network.resolve(rank0), rpc, body.size(),
                    [&body = body](std::vector<std::byte>& frame) {
                      frame.insert(frame.end(), body.begin(), body.end());
                    });
    EXPECT_THROW(simulation.run_until(SimTime::from_seconds(1.0)),
                 LookupError)
        << rpc;
    EXPECT_EQ(service.publishes_received(), 0u) << rpc;
    EXPECT_EQ(service.batches_received(), 0u) << rpc;
    EXPECT_EQ(service.store_view().total_records(), 0u) << rpc;
    for (const core::ReplicationShardStatus& shard :
         service.replication()->shard_status()) {
      EXPECT_EQ(shard.log_records, 0u) << rpc;
    }
  }
}

// A body that names no namespace the service knows is malformed input, so
// it is a LookupError like any other decode failure, not a ConfigError.
TEST(PublishBodyRoutingTest, UnknownNamespaceSurfacesAsLookupError) {
  wire::BatchBodyWriter batch("bogus");
  batch.add("cn0001", 1, sample_record());
  std::vector<std::byte> batch_body;
  batch.encode(batch_body);
  const std::pair<const char*, std::vector<std::byte>> cases[] = {
      {"soma.publish", envelope("bogus", "cn0001", sample_record()).pack()},
      {"soma.publish_batch", batch_body}};

  for (const auto& [rpc, body] : cases) {
    sim::Simulation simulation;
    net::Network network{simulation, net::NetworkConfig{}};
    core::ServiceConfig config;
    config.namespaces = {Namespace::kHardware};
    core::SomaService service(network, {0}, config);
    net::Engine sender(network, net::make_address(1, 6000));
    const net::Address& rank = service.instance(Namespace::kHardware).ranks[0];
    sender.call_raw(network.resolve(rank), rpc, body.size(),
                    [&body = body](std::vector<std::byte>& frame) {
                      frame.insert(frame.end(), body.begin(), body.end());
                    });
    EXPECT_THROW(simulation.run(), LookupError) << rpc;
    EXPECT_EQ(service.publishes_received(), 0u) << rpc;
    EXPECT_EQ(service.store_view().total_records(), 0u) << rpc;
  }
}

// A query naming an unknown namespace is malformed input too: the latest
// and sources queries surface it as a LookupError, as publish bodies do.
TEST(PublishBodyRoutingTest, QueryOfUnknownNamespaceSurfacesAsLookupError) {
  for (const char* kind : {"latest", "sources"}) {
    sim::Simulation simulation;
    net::Network network{simulation, net::NetworkConfig{}};
    core::ServiceConfig config;
    config.namespaces = {Namespace::kHardware};
    core::SomaService service(network, {0}, config);
    net::Engine sender(network, net::make_address(1, 6000));
    Node query;
    query["kind"].set(kind);
    query["ns"].set("bogus");
    query["source"].set("cn0001");
    sender.call(service.instance(Namespace::kHardware).ranks[0], "soma.query",
                query);
    EXPECT_THROW(simulation.run(), LookupError) << kind;
  }
}

TEST_F(PublishBodyIngestTest, NonIntTimeSurfacesFromRun) {
  core::ServiceConfig config;
  config.namespaces = {Namespace::kHardware};
  core::SomaService service(network, {0}, config);
  const auto body = object_body({{"ns", packed("hardware")},
                                 {"source", packed("cn0001")},
                                 {"data", sample_record().pack()},
                                 {"t", packed(1.0)}});
  send_publish(service.instance(Namespace::kHardware).ranks[0], body);
  EXPECT_THROW(simulation.run(), LookupError);
  EXPECT_EQ(service.store_view().total_records(), 0u);
}

}  // namespace
}  // namespace soma
