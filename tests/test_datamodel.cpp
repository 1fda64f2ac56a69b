// Unit + property tests for the Conduit-like hierarchical data model.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "datamodel/node.hpp"

namespace soma::datamodel {
namespace {

TEST(NodeTest, DefaultIsEmpty) {
  Node node;
  EXPECT_TRUE(node.is_empty());
  EXPECT_FALSE(node.is_object());
  EXPECT_FALSE(node.is_leaf());
  EXPECT_EQ(node.type(), Node::Type::kEmpty);
}

TEST(NodeTest, LeafTypesRoundTrip) {
  Node node;
  node.set(std::int64_t{42});
  EXPECT_EQ(node.type(), Node::Type::kInt64);
  EXPECT_EQ(node.as_int64(), 42);

  node.set(3.5);
  EXPECT_EQ(node.type(), Node::Type::kFloat64);
  EXPECT_DOUBLE_EQ(node.as_float64(), 3.5);

  node.set(std::string("hello"));
  EXPECT_EQ(node.type(), Node::Type::kString);
  EXPECT_EQ(node.as_string(), "hello");

  node.set(std::vector<std::int64_t>{1, 2, 3});
  EXPECT_EQ(node.type(), Node::Type::kInt64Array);
  EXPECT_EQ(node.as_int64_array().size(), 3u);

  node.set(std::vector<double>{1.5, 2.5});
  EXPECT_EQ(node.type(), Node::Type::kFloat64Array);
  EXPECT_EQ(node.as_float64_array()[1], 2.5);
}

TEST(NodeTest, CStringSetter) {
  Node node;
  node.set("literal");
  EXPECT_EQ(node.as_string(), "literal");
}

TEST(NodeTest, TypeMismatchThrows) {
  Node node;
  node.set(std::int64_t{1});
  EXPECT_THROW(node.as_string(), LookupError);
  EXPECT_THROW(node.as_float64(), LookupError);
  EXPECT_THROW(node.as_int64_array(), LookupError);
  Node empty;
  EXPECT_THROW(empty.as_int64(), LookupError);
}

TEST(NodeTest, NumericCoercion) {
  Node node;
  node.set(std::int64_t{7});
  EXPECT_DOUBLE_EQ(node.to_float64(), 7.0);
  node.set(2.25);
  EXPECT_DOUBLE_EQ(node.to_float64(), 2.25);
  node.set("nope");
  EXPECT_THROW(node.to_float64(), LookupError);
}

TEST(NodeTest, ChildCreationMakesObject) {
  Node node;
  node.set(std::int64_t{1});  // leaf first
  node.child("a").set(std::int64_t{2});
  EXPECT_TRUE(node.is_object());          // leaf value discarded
  EXPECT_EQ(node.number_of_children(), 1u);
  EXPECT_EQ(node.child("a").as_int64(), 2);
}

TEST(NodeTest, ChildOrderPreserved) {
  Node node;
  node["zebra"].set(std::int64_t{1});
  node["alpha"].set(std::int64_t{2});
  node["mid"].set(std::int64_t{3});
  ASSERT_EQ(node.child_names().size(), 3u);
  EXPECT_EQ(node.child_names()[0], "zebra");
  EXPECT_EQ(node.child_names()[1], "alpha");
  EXPECT_EQ(node.child_names()[2], "mid");
  EXPECT_EQ(node.child_at(2).as_int64(), 3);
}

TEST(NodeTest, FindChildConstness) {
  Node node;
  node["x"].set(std::int64_t{5});
  const Node& const_ref = node;
  ASSERT_NE(const_ref.find_child("x"), nullptr);
  EXPECT_EQ(const_ref.find_child("y"), nullptr);
}

TEST(NodeTest, FetchCreatesPath) {
  Node node;
  node.fetch("a/b/c").set(std::int64_t{9});
  EXPECT_TRUE(node.has_path("a/b/c"));
  EXPECT_TRUE(node.has_path("a/b"));
  EXPECT_FALSE(node.has_path("a/x"));
  EXPECT_EQ(node.fetch_existing("a/b/c").as_int64(), 9);
}

TEST(NodeTest, FetchExistingThrowsOnMissing) {
  Node node;
  node.fetch("a/b").set(std::int64_t{1});
  EXPECT_THROW(node.fetch_existing("a/c"), LookupError);
  EXPECT_THROW(node.fetch_existing("x"), LookupError);
}

TEST(NodeTest, KeysMayContainDots) {
  // Task uids like "task.000000" are path components (Listing 1).
  Node node;
  node.fetch("RP/task.000000/1698435412.606").set("launch_start");
  EXPECT_EQ(node.fetch_existing("RP/task.000000/1698435412.606").as_string(),
            "launch_start");
}

TEST(NodeTest, RemoveChild) {
  Node node;
  node["a"].set(std::int64_t{1});
  node["b"].set(std::int64_t{2});
  node["c"].set(std::int64_t{3});
  EXPECT_TRUE(node.remove_child("b"));
  EXPECT_FALSE(node.remove_child("b"));
  EXPECT_EQ(node.number_of_children(), 2u);
  // Index integrity after removal.
  EXPECT_EQ(node.find_child("c")->as_int64(), 3);
  EXPECT_EQ(node.child_names()[1], "c");
}

TEST(NodeTest, ResetClearsEverything) {
  Node node;
  node["a"]["b"].set(std::int64_t{1});
  node.reset();
  EXPECT_TRUE(node.is_empty());
  EXPECT_EQ(node.number_of_children(), 0u);
}

TEST(NodeTest, DeepCopy) {
  Node a;
  a.fetch("x/y").set(std::int64_t{1});
  Node b = a;
  b.fetch("x/y").set(std::int64_t{2});
  EXPECT_EQ(a.fetch_existing("x/y").as_int64(), 1);
  EXPECT_EQ(b.fetch_existing("x/y").as_int64(), 2);
}

TEST(NodeTest, SelfAssignmentSafe) {
  Node a;
  a["k"].set(std::int64_t{3});
  a = *&a;
  EXPECT_EQ(a.fetch_existing("k").as_int64(), 3);
}

TEST(NodeTest, Equality) {
  Node a, b;
  a.fetch("x/y").set(1.5);
  b.fetch("x/y").set(1.5);
  EXPECT_TRUE(a == b);
  b.fetch("x/z").set(std::int64_t{1});
  EXPECT_FALSE(a == b);
}

TEST(NodeTest, EqualityIsOrderSensitive) {
  Node a, b;
  a["p"].set(std::int64_t{1});
  a["q"].set(std::int64_t{2});
  b["q"].set(std::int64_t{2});
  b["p"].set(std::int64_t{1});
  EXPECT_FALSE(a == b);  // Conduit nodes are ordered
}

TEST(NodeTest, UpdateMergesObjects) {
  Node base;
  base.fetch("a/x").set(std::int64_t{1});
  base.fetch("a/y").set(std::int64_t{2});
  Node patch;
  patch.fetch("a/y").set(std::int64_t{20});
  patch.fetch("a/z").set(std::int64_t{30});
  base.update(patch);
  EXPECT_EQ(base.fetch_existing("a/x").as_int64(), 1);
  EXPECT_EQ(base.fetch_existing("a/y").as_int64(), 20);
  EXPECT_EQ(base.fetch_existing("a/z").as_int64(), 30);
}

TEST(NodeTest, UpdateLeafOverwritesSubtree) {
  Node base;
  base.fetch("a/x").set(std::int64_t{1});
  Node patch;
  patch["a"].set("flat");
  base.update(patch);
  EXPECT_EQ(base.fetch_existing("a").as_string(), "flat");
}

TEST(NodeTest, UpdateEmptyIsNoop) {
  Node base;
  base["k"].set(std::int64_t{1});
  Node empty;
  base.update(empty);
  EXPECT_EQ(base.fetch_existing("k").as_int64(), 1);
}

TEST(NodeTest, LeafCount) {
  Node node;
  EXPECT_EQ(node.leaf_count(), 0u);
  node.fetch("a/b").set(std::int64_t{1});
  node.fetch("a/c").set(std::int64_t{2});
  node.fetch("d").set("x");
  EXPECT_EQ(node.leaf_count(), 3u);
}

TEST(NodeTest, ChildAtOutOfRangeThrows) {
  Node node;
  node["only"].set(std::int64_t{1});
  EXPECT_THROW(node.child_at(1), InternalError);
}

// ---------- JSON ----------

TEST(NodeJsonTest, Scalars) {
  Node node;
  node.set(std::int64_t{42});
  EXPECT_EQ(node.to_json(), "42");
  node.set("hi");
  EXPECT_EQ(node.to_json(), "\"hi\"");
  Node empty;
  EXPECT_EQ(empty.to_json(), "null");
}

TEST(NodeJsonTest, ObjectCompact) {
  Node node;
  node["a"].set(std::int64_t{1});
  node["b"].set(std::vector<std::int64_t>{1, 2});
  EXPECT_EQ(node.to_json(), "{\"a\":1,\"b\":[1,2]}");
}

TEST(NodeJsonTest, StringEscaping) {
  Node node;
  node.set("a\"b\\c\nd");
  EXPECT_EQ(node.to_json(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(NodeJsonTest, DeeplyNestedObjectThrows) {
  constexpr std::size_t kLevels = 1'000'000;
  std::string json;
  json.reserve(kLevels * 6 + 1);
  for (std::size_t i = 0; i < kLevels; ++i) json += "{\"a\":";
  json += '1';
  json.append(kLevels, '}');
  EXPECT_THROW(Node::parse_json(json), LookupError);
}

TEST(NodeJsonTest, PrettyPrintContainsNewlines) {
  Node node;
  node.fetch("a/b").set(std::int64_t{1});
  const std::string pretty = node.to_json(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_NE(pretty.find("  \"a\""), std::string::npos);
}

// ---------- binary serde ----------

TEST(NodeSerdeTest, RoundTripScalars) {
  Node node;
  node.set(std::int64_t{-17});
  EXPECT_TRUE(Node::unpack(node.pack()) == node);
  node.set(2.71828);
  EXPECT_TRUE(Node::unpack(node.pack()) == node);
  node.set("string value");
  EXPECT_TRUE(Node::unpack(node.pack()) == node);
  Node empty;
  EXPECT_TRUE(Node::unpack(empty.pack()) == empty);
}

TEST(NodeSerdeTest, RoundTripNested) {
  Node node;
  node.fetch("PROC/cn4302/stat/cpu")
      .set(std::vector<std::int64_t>{10749, 865, 685, 9293, 999, 745});
  node.fetch("PROC/cn4302/Uptime").set(std::int64_t{49902});
  node.fetch("PROC/cn4302/ratio").set(0.25);
  const Node copy = Node::unpack(node.pack());
  EXPECT_TRUE(copy == node);
}

TEST(NodeSerdeTest, PackedSizeMatchesPack) {
  Node node;
  node.fetch("a/b/c").set(std::vector<double>{1.0, 2.0, 3.0});
  node.fetch("a/s").set("hello world");
  node.fetch("n").set(std::int64_t{1});
  EXPECT_EQ(node.pack().size(), node.packed_size());
}

TEST(NodeSerdeTest, PackedSizeCacheTracksMutation) {
  // packed_size() must agree with the actual encoding after every mutation
  // path.
  Node node;
  node.fetch("a/b").set(std::int64_t{1});
  EXPECT_EQ(node.packed_size(), node.pack().size());  // prime the cache

  node.fetch("a/b").set("a much longer string value");  // resize a leaf
  EXPECT_EQ(node.packed_size(), node.pack().size());

  node.fetch("c/d").set(3.5);  // add a subtree
  EXPECT_EQ(node.packed_size(), node.pack().size());

  node["a"]["b"].set(std::vector<std::int64_t>{1, 2, 3});  // via operator[]
  EXPECT_EQ(node.packed_size(), node.pack().size());

  node.find_child("a")->remove_child("b");  // via mutable find_child
  EXPECT_EQ(node.packed_size(), node.pack().size());

  node.remove_child("c");
  EXPECT_EQ(node.packed_size(), node.pack().size());

  node.reset();
  EXPECT_EQ(node.packed_size(), node.pack().size());
}

TEST(NodeSerdeTest, PackedSizeCacheSurvivesCopyAndMove) {
  Node node;
  node.fetch("a").set("payload");
  const std::size_t size = node.packed_size();  // prime the cache

  Node copy = node;
  EXPECT_EQ(copy.packed_size(), size);
  copy.fetch("b").set(std::int64_t{2});
  EXPECT_EQ(copy.packed_size(), copy.pack().size());
  EXPECT_EQ(node.packed_size(), size);  // source untouched by copy's mutation

  Node moved = std::move(node);
  EXPECT_EQ(moved.packed_size(), size);
  // The moved-from node is reusable and must not report the stale size.
  node.fetch("x").set(std::int64_t{1});
  EXPECT_EQ(node.packed_size(), node.pack().size());
}

TEST(NodeSerdeTest, MutationThroughHeldChildAfterAncestorPackedSize) {
  // A pointer obtained before an ancestor's packed_size() stays usable for
  // mutation; the ancestor's size and encoding must still agree afterwards.
  Node root;
  root.fetch("a").set(std::int64_t{1});
  root.fetch("b/c").set(2.0);
  Node* a = root.find_child("a");
  Node* c = root.find_child("b")->find_child("c");
  (void)root.packed_size();
  a->set(std::string(100, 'x'));
  c->set(std::vector<double>(50, 1.0));
  EXPECT_EQ(root.packed_size(), root.pack().size());
  std::vector<std::byte> wire;
  EXPECT_NO_THROW(wire = root.pack());
  EXPECT_EQ(Node::unpack(wire), root);
}

// Little-endian frame builders for hand-made unpack inputs.
void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

void put_object_header(std::vector<std::byte>& out, std::uint32_t children) {
  out.push_back(std::byte{1});  // object tag
  put_u32(out, children);
}

void put_name(std::vector<std::byte>& out, std::string_view name) {
  put_u32(out, static_cast<std::uint32_t>(name.size()));
  for (char ch : name) out.push_back(static_cast<std::byte>(ch));
}

void put_int64_leaf(std::vector<std::byte>& out, std::int64_t v) {
  out.push_back(std::byte{2});  // int64 tag
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, 0);
}

TEST(NodeSerdeTest, RepeatedChildNameKeepsFirstPositionWithLastValue) {
  std::vector<std::byte> wire;
  put_object_header(wire, 3);
  put_name(wire, "a");
  put_int64_leaf(wire, 1);
  put_name(wire, "b");
  put_int64_leaf(wire, 2);
  put_name(wire, "a");
  put_int64_leaf(wire, 3);
  const Node node = Node::unpack(wire);
  ASSERT_EQ(node.number_of_children(), 2u);
  EXPECT_EQ(node.child_names()[0], "a");
  EXPECT_EQ(node.child_names()[1], "b");
  EXPECT_EQ(node.child_at(0).as_int64(), 3);
  EXPECT_EQ(node.child_at(1).as_int64(), 2);
}

TEST(NodeSerdeTest, ImpossibleCountThrowsBeforeAllocating) {
  // Tag + u32 count claiming ~2^31 elements in a 5-byte frame.
  for (const std::byte tag : {std::byte{5}, std::byte{6}, std::byte{1}}) {
    const std::vector<std::byte> wire{tag, std::byte{0xff}, std::byte{0xff},
                                      std::byte{0xff}, std::byte{0x7f}};
    EXPECT_THROW(Node::unpack(wire), LookupError)
        << "tag " << static_cast<int>(tag);
  }
  // Two int64 elements need 16 bytes; 15 are present.
  std::vector<std::byte> wire{std::byte{5}};
  put_u32(wire, 2);
  wire.resize(wire.size() + 15);
  EXPECT_THROW(Node::unpack(wire), LookupError);
}

TEST(NodeSerdeTest, NestingDeeperThanLimitThrows) {
  // 2M nested single-child objects with empty names around an empty leaf.
  constexpr std::size_t kLevels = 2'000'000;
  std::vector<std::byte> wire;
  wire.reserve(kLevels * 9 + 1);
  for (std::size_t i = 0; i < kLevels; ++i) {
    put_object_header(wire, 1);
    put_name(wire, "");
  }
  wire.push_back(std::byte{0});
  EXPECT_THROW(Node::unpack(wire), LookupError);
}

TEST(NodeSerdeTest, NestingAtLimitRoundTrips) {
  Node deepest;
  Node* cursor = &deepest;
  for (std::size_t i = 0; i < Node::kMaxDepth; ++i) {
    cursor = &cursor->child("d");
  }
  cursor->set(std::int64_t{7});
  EXPECT_EQ(Node::unpack(deepest.pack()), deepest);
  EXPECT_EQ(Node::parse_json(deepest.to_json()), deepest);

  Node too_deep;
  too_deep.child("d") = deepest;
  EXPECT_THROW(Node::unpack(too_deep.pack()), LookupError);
  EXPECT_THROW(Node::parse_json(too_deep.to_json()), LookupError);
}

TEST(NodeSerdeTest, TruncatedBufferThrows) {
  Node node;
  node.fetch("a/b").set("payload");
  std::vector<std::byte> wire = node.pack();
  wire.resize(wire.size() / 2);
  EXPECT_THROW(Node::unpack(wire), LookupError);
}

TEST(NodeSerdeTest, TrailingBytesThrow) {
  Node node;
  node.set(std::int64_t{1});
  std::vector<std::byte> wire = node.pack();
  wire.push_back(std::byte{0});
  EXPECT_THROW(Node::unpack(wire), LookupError);
}

TEST(NodeSerdeTest, UnknownTagThrows) {
  std::vector<std::byte> wire{std::byte{0xee}};
  EXPECT_THROW(Node::unpack(wire), LookupError);
}

// ---------- property test: random trees round-trip ----------

Node random_tree(Rng& rng, int depth) {
  Node node;
  const double roll = rng.uniform();
  if (depth <= 0 || roll < 0.35) {
    switch (rng.uniform_index(5)) {
      case 0: node.set(static_cast<std::int64_t>(rng.next_u64() >> 1)); break;
      case 1: node.set(rng.uniform(-1e6, 1e6)); break;
      case 2: node.set("s" + std::to_string(rng.next_u64() % 1000)); break;
      case 3: {
        std::vector<std::int64_t> v(rng.uniform_index(8));
        for (auto& x : v) x = static_cast<std::int64_t>(rng.next_u64() >> 1);
        node.set(std::move(v));
        break;
      }
      default: {
        std::vector<double> v(rng.uniform_index(8));
        for (auto& x : v) x = rng.uniform(-1.0, 1.0);
        node.set(std::move(v));
        break;
      }
    }
    return node;
  }
  const std::size_t children = 1 + rng.uniform_index(4);
  for (std::size_t i = 0; i < children; ++i) {
    node.child("k" + std::to_string(i)) = random_tree(rng, depth - 1);
  }
  return node;
}

class NodeRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(NodeRoundTripProperty, PackUnpackIdentity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  for (int i = 0; i < 20; ++i) {
    const Node tree = random_tree(rng, 4);
    const Node back = Node::unpack(tree.pack());
    EXPECT_TRUE(back == tree);
    EXPECT_EQ(tree.pack().size(), tree.packed_size());
    // Copy is also an identity.
    const Node copy = tree;
    EXPECT_TRUE(copy == tree);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTrees, NodeRoundTripProperty,
                         ::testing::Range(0, 10));

// JSON round-trip property. JSON canonicalizes two representable-but-
// ambiguous cases (integral doubles parse back as int64; empty float64
// arrays parse back as int64 arrays), so the generator avoids them — the
// binary format above covers those exactly.
Node random_json_safe_tree(Rng& rng, int depth) {
  Node node;
  if (depth <= 0 || rng.uniform() < 0.35) {
    switch (rng.uniform_index(4)) {
      case 0: node.set(static_cast<std::int64_t>(rng.next_u64() >> 1)); break;
      case 1: node.set(rng.uniform(0.0, 1.0) + 0.5e-7); break;
      case 2: node.set("s" + std::to_string(rng.next_u64() % 1000)); break;
      default: {
        std::vector<std::int64_t> v(rng.uniform_index(6));
        for (auto& x : v) x = static_cast<std::int64_t>(rng.next_u64() >> 1);
        node.set(std::move(v));
        break;
      }
    }
    return node;
  }
  const std::size_t children = 1 + rng.uniform_index(4);
  for (std::size_t i = 0; i < children; ++i) {
    node.child("k" + std::to_string(i)) = random_json_safe_tree(rng, depth - 1);
  }
  return node;
}

class JsonRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(JsonRoundTripProperty, ToJsonParseJsonIdentity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  for (int i = 0; i < 20; ++i) {
    const Node tree = random_json_safe_tree(rng, 4);
    EXPECT_TRUE(Node::parse_json(tree.to_json()) == tree);
    EXPECT_TRUE(Node::parse_json(tree.to_json(2)) == tree);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTrees, JsonRoundTripProperty,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace soma::datamodel
