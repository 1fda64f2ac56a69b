// Seeded mutation of every decoder. Binary: Node::unpack, the frame header
// (decode_header, set_request_attempt), the batch body, the soma.replicate
// prefix and soma.query bodies sent to a live service. Text: Node::parse_json
// and parse_export_line. Each seed input is a real encoding; every
// truncation of it and a fixed-seed run of random byte overwrites must
// either decode or throw LookupError — never another exception, a crash or
// an unbounded allocation. The CI fault-matrix leg runs this suite under
// ASan/UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <initializer_list>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <typeinfo>
#include <utility>
#include <vector>

#include "cluster/platform.hpp"
#include "cluster/proc.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "datamodel/node.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"
#include "net/wire.hpp"
#include "sim/simulation.hpp"
#include "soma/client.hpp"
#include "soma/export.hpp"
#include "soma/namespaces.hpp"
#include "soma/service.hpp"
#include "soma/store.hpp"
#include "test_names.hpp"
#include "test_proc.hpp"

namespace soma {
namespace {

using core::Namespace;
using datamodel::Node;
namespace wire = net::wire;

using Input = std::span<const std::byte>;

/// Run `decode` over `input`: it must return or throw LookupError.
template <typename Decode>
void expect_decodes_or_rejects(const Decode& decode, Input input) {
  try {
    decode(input);
  } catch (const LookupError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << typeid(e).name() << " (" << e.what() << ") on a "
                  << input.size() << "-byte input";
  }
}

/// Every proper prefix of `seed`, then `trials` copies of it with one to
/// three bytes overwritten at random positions in [from, to), through
/// `decode`. The unmodified seed must decode.
template <typename Decode>
void mutate(const std::vector<std::byte>& seed, std::uint64_t rng_seed,
            int trials, const Decode& decode, std::size_t from = 0,
            std::size_t to = std::numeric_limits<std::size_t>::max()) {
  ASSERT_NO_THROW(decode(Input(seed)));
  for (std::size_t n = 0; n < seed.size(); ++n) {
    expect_decodes_or_rejects(decode, Input(seed.data(), n));
  }
  to = std::min(to, seed.size());
  ASSERT_LT(from, to);
  Rng rng(rng_seed);
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<std::byte> mutated = seed;
    const int flips = 1 + static_cast<int>(rng.uniform_index(3));
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = from + rng.uniform_index(to - from);
      mutated[at] = static_cast<std::byte>(rng.uniform_index(256));
    }
    expect_decodes_or_rejects(decode, Input(mutated));
  }
}

/// A tree holding every pack tag: object, empty, int64, float64, string and
/// both arrays, empty ones included.
Node every_type_tree() {
  Node root;
  root["empty"];
  root["int"].set(std::int64_t{-42});
  root["float"].set(2.5);
  root["text"].set("soma");
  root["ints"].set(std::vector<std::int64_t>{1, -2, 3});
  root["floats"].set(std::vector<double>{0.5, -1.25});
  root["no_ints"].set(std::vector<std::int64_t>{});
  root["no_floats"].set(std::vector<double>{});
  root["no_text"].set("");
  root["nested"]["deeper"]["leaf"].set(std::int64_t{7});
  return root;
}

/// A 42-core /proc snapshot, as the hardware monitor publishes it.
Node proc_snapshot() {
  sim::Simulation simulation;
  cluster::Platform platform(simulation, cluster::summit(1));
  Rng rng(1);
  return Node::unpack(testutil::packed_proc_snapshot(
      platform.node(0), SimTime::from_seconds(100), rng));
}

const auto unpack_node = [](Input input) { (void)Node::unpack(input); };

TEST(DecoderMutationTest, NodeUnpackOfProcSnapshot) {
  mutate(proc_snapshot().pack(), 101, 4000, unpack_node);
}

TEST(DecoderMutationTest, NodeUnpackOfEveryTypeTree) {
  mutate(every_type_tree().pack(), 102, 10000, unpack_node);
}

std::vector<std::byte> text_bytes(std::string_view text) {
  const auto* first = reinterpret_cast<const std::byte*>(text.data());
  return {first, first + text.size()};
}

std::string_view as_text(Input input) {
  return {reinterpret_cast<const char*>(input.data()), input.size()};
}

const auto parse_json = [](Input input) {
  (void)Node::parse_json(as_text(input));
};

TEST(DecoderMutationTest, ParseJsonOfEveryTypeTree) {
  mutate(text_bytes(every_type_tree().to_json()), 111, 10000, parse_json);
}

TEST(DecoderMutationTest, ParseJsonOfProcSnapshot) {
  mutate(text_bytes(proc_snapshot().to_json()), 112, 4000, parse_json);
}

/// One record line of a store export, without its newline.
std::string exported_line() {
  core::DataStore store;
  store.append(Namespace::kHardware, "cn0001", SimTime::from_seconds(30),
               every_type_tree());
  std::ostringstream out;
  core::export_store(store.view(), out);
  std::string line = out.str();
  line.pop_back();
  return line;
}

TEST(DecoderMutationTest, ParseExportLine) {
  mutate(text_bytes(exported_line()), 113, 10000, [](Input input) {
    core::ExportedRecord record;
    (void)core::parse_export_line(std::string(as_text(input)), record);
  });
}

/// A soma.publish request frame as a live client sends it, and the response
/// frame a live service rank answers it with. A raw endpoint between the
/// two keeps both.
std::pair<std::vector<std::byte>, std::vector<std::byte>> live_frames() {
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  core::ServiceConfig config;
  config.namespaces = {Namespace::kHardware};
  core::SomaService service(network, {0}, config);
  const net::Address rank = service.instance(Namespace::kHardware).ranks.at(0);
  const net::Address relay = net::make_address(2, 7000);
  std::vector<std::byte> request;
  std::vector<std::byte> response;
  network.bind(relay, [&](net::EndpointId, std::vector<std::byte> frame) {
    if (wire::decode_header(frame).kind == wire::Kind::kRequest) {
      request = frame;
      network.send(network.resolve(relay), network.resolve(rank),
                   std::move(frame));
    } else {
      response = std::move(frame);
    }
  });
  core::SomaClient client(network, 1, 6000, Namespace::kHardware, {relay});
  simulation.schedule_at(SimTime::from_seconds(1.0), [&] {
    Node record;
    record["cpu"].set(0.25);
    record["procs"].set(std::vector<std::int64_t>{3, 1, 4});
    client.publish("cn0001", record);
  });
  simulation.run();
  return {request, response};
}

TEST(DecoderMutationTest, FrameHeaderOfLiveFrames) {
  const auto [request, response] = live_frames();
  ASSERT_FALSE(request.empty());
  ASSERT_FALSE(response.empty());
  const auto decode = [](Input input) { (void)wire::decode_header(input); };
  mutate(request, 201, 3000, decode);
  mutate(response, 202, 3000, decode);
}

TEST(DecoderMutationTest, RequestAttemptOfLiveRequest) {
  const auto [request, response] = live_frames();
  ASSERT_FALSE(request.empty());
  const auto stamp = [](Input input) {
    std::vector<std::byte> frame(input.begin(), input.end());
    wire::set_request_attempt(frame, 3);
  };
  mutate(request, 203, 3000, stamp);
  // A response frame carries no attempt counter: it and each of its
  // prefixes are rejected.
  for (std::size_t n = 0; n <= response.size(); ++n) {
    EXPECT_THROW(stamp(Input(response.data(), n)), LookupError) << n;
  }
}

TEST(DecoderMutationTest, BatchBodyOfSixteenRecords) {
  wire::BatchBodyWriter writer("hardware");
  for (int i = 0; i < 16; ++i) {
    Node record;
    record["v"].set(static_cast<double>(i));
    record["host"].set(testutil::numbered("cn", 1000 + i % 3));
    writer.add(testutil::numbered("cn", 1000 + i % 3), 1'000'000 * i, record);
  }
  std::vector<std::byte> body;
  writer.encode(body);
  ASSERT_EQ(body.size(), writer.body_size());
  mutate(body, 301, 10000, [](Input input) {
    for (const wire::BatchRecordView& record :
         wire::decode_batch_body(input).records) {
      (void)Node::unpack(record.payload);
    }
  });
}

/// Send `body` as a soma.replicate request to rank 1 of a fresh replicated
/// 2-rank instance, which holds shard 0's replica, and return the records
/// that replica then holds. A handler exception leaves the simulation
/// through run_until.
std::size_t deliver_replicate(Input body) {
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  core::ServiceConfig config;
  config.namespaces = {Namespace::kHardware};
  config.ranks_per_namespace = 2;
  config.replication.factor = 2;
  core::SomaService service(network, {0}, config);
  net::Engine sender(network, net::make_address(1, 6000));
  const net::Address holder =
      service.instance(Namespace::kHardware).ranks.at(1);
  sender.call_raw(network.resolve(holder), "soma.replicate", body.size(),
                  [body](std::vector<std::byte>& frame) {
                    frame.insert(frame.end(), body.begin(), body.end());
                  });
  simulation.run_until(SimTime::from_seconds(1.0));
  return service.replication()->replica(Namespace::kHardware, 0, 1)
      ->record_count();
}

// Prefix: kind 0 (replica append), home shard 0, base sequence 0 — all
// zero bytes — then a three-record batch body.
constexpr std::size_t kReplicatePrefixBytes = 1 + 4 + 8;

std::vector<std::byte> replicate_body() {
  std::vector<std::byte> body(kReplicatePrefixBytes);
  wire::BatchBodyWriter writer("hardware");
  for (int i = 0; i < 3; ++i) {
    Node record;
    record["v"].set(static_cast<double>(i));
    writer.add(testutil::numbered("cn", 1000 + i), 1'000'000 * i, record);
  }
  writer.encode(body);
  return body;
}

TEST(DecoderMutationTest, ReplicatePrefix) {
  const std::vector<std::byte> body = replicate_body();
  // The frame reaches the handler: the seed lands in the replica, and an
  // unknown kind is rejected.
  EXPECT_EQ(deliver_replicate(body), 3u);
  std::vector<std::byte> unknown_kind = body;
  unknown_kind[0] = std::byte{7};
  EXPECT_THROW(deliver_replicate(unknown_kind), LookupError);
  mutate(body, 401, 1000, deliver_replicate, 0, kReplicatePrefixBytes);
}

TEST(DecoderMutationTest, ReplicateWholeFrame) {
  // Overwrites anywhere, the batch body's namespace included: a frame that
  // names an unknown or another namespace is malformed like any other.
  mutate(replicate_body(), 402, 1000, deliver_replicate);
}

/// Send `body` as a soma.query request to a live 1-rank hardware instance
/// that holds one record of cn0001. A body the handler answers must get a
/// reply back; a handler exception leaves the simulation through run().
void deliver_query(Input body) {
  sim::Simulation simulation;
  net::Network network{simulation, net::NetworkConfig{}};
  core::ServiceConfig config;
  config.namespaces = {Namespace::kHardware};
  core::SomaService service(network, {0}, config);
  Node record;
  record["cpu"].set(0.5);
  service.store().append(Namespace::kHardware, "cn0001",
                         SimTime::from_seconds(1.0), record);
  net::Engine sender(network, net::make_address(1, 6000));
  bool replied = false;
  sender.call_raw(
      network.resolve(service.instance(Namespace::kHardware).ranks.at(0)),
      "soma.query", body.size(),
      [body](std::vector<std::byte>& frame) {
        frame.insert(frame.end(), body.begin(), body.end());
      },
      [&replied](net::Engine::Result result) { replied = result.ok; });
  simulation.run();
  EXPECT_TRUE(replied) << "a query the handler answered got no reply";
}

using Fields = std::initializer_list<std::pair<const char*, const char*>>;

std::vector<std::byte> query_body(Fields fields) {
  Node query;
  for (const auto& [name, value] : fields) query[name].set(value);
  return query.pack();
}

TEST(DecoderMutationTest, QueryBodies) {
  const std::vector<std::byte> seeds[] = {
      query_body(
          {{"kind", "latest"}, {"ns", "hardware"}, {"source", "cn0001"}}),
      query_body({{"kind", "sources"}, {"ns", "hardware"}}),
      query_body({{"kind", "stats"}})};
  std::uint64_t rng_seed = 501;
  for (const std::vector<std::byte>& seed : seeds) {
    mutate(seed, rng_seed++, 1000, deliver_query);
  }
}

}  // namespace
}  // namespace soma
