// Unit + property tests for the Conduit-like hierarchical data model.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/platform.hpp"
#include "cluster/proc.hpp"
#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "datamodel/node.hpp"
#include "sim/simulation.hpp"
#include "test_names.hpp"

// Every heap allocation of this binary goes through these replacements, which
// keep the requested size in a header so that NodeMemoryTest can count live
// heap bytes. They are not inlined: GCC's -Wmismatched-new-delete would pair
// an inlined malloc or free with the operator delete or new of its caller.
namespace {
constexpr std::size_t kHeapHeader = alignof(std::max_align_t);
std::size_t heap_live_bytes = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  void* block = std::malloc(size + kHeapHeader);
  if (block == nullptr) throw std::bad_alloc();
  std::memcpy(block, &size, sizeof(size));
  heap_live_bytes += size;
  return static_cast<std::byte*>(block) + kHeapHeader;
}

[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<std::byte*>(p) - kHeapHeader;
  std::size_t size;
  std::memcpy(&size, block, sizeof(size));
  heap_live_bytes -= size;
  std::free(block);
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

// The standard library's temporary buffers (std::stable_sort) come from the
// nothrow form, which a sanitizer runtime would otherwise serve without the
// header.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace soma::datamodel {
namespace {

using testutil::numbered;

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

TEST(NodeTest, AppendChildKeepsOrderAndIsFoundByName) {
  Node node;
  node.set(std::int64_t{1});  // leaf first, as with child()
  node.reserve_children(3);
  node.append_child("zebra").set(std::int64_t{1});
  node.append_child("alpha").set(std::int64_t{2});
  node.child("mid").set(std::int64_t{3});
  EXPECT_TRUE(node.is_object());
  ASSERT_EQ(node.number_of_children(), 3u);
  EXPECT_EQ(node.child_names()[0], "zebra");
  EXPECT_EQ(node.child_names()[1], "alpha");
  EXPECT_EQ(node.child_names()[2], "mid");
  // A later child() finds the appended child instead of adding another.
  node.child("alpha").set(std::int64_t{20});
  EXPECT_EQ(node.number_of_children(), 3u);
  EXPECT_EQ(node.child_at(1).as_int64(), 20);

  Node looked_up;
  looked_up["zebra"].set(std::int64_t{1});
  looked_up["alpha"].set(std::int64_t{20});
  looked_up["mid"].set(std::int64_t{3});
  EXPECT_EQ(node, looked_up);
  EXPECT_EQ(node.pack(), looked_up.pack());
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

// A node that was only given room for children has none: it is empty.
TEST(NodeTest, ReservedChildrenAloneLeaveNodeEmpty) {
  Node node;
  node.reserve_children(8);
  EXPECT_TRUE(node.is_empty());
  EXPECT_EQ(node.number_of_children(), 0u);
  EXPECT_EQ(node.pack().size(), 1u);
  EXPECT_EQ(node.packed_size(), 1u);
  EXPECT_TRUE(node == Node{});
  EXPECT_TRUE(Node{} == node);
  EXPECT_EQ(node.to_json(), "null");
}

TEST(NodeTest, SetOnObjectDropsChildren) {
  Node node;
  node["a"].set(std::int64_t{1});
  node["b"]["c"].set(2.0);
  node.set("leaf");
  EXPECT_EQ(node.type(), Node::Type::kString);
  EXPECT_EQ(node.number_of_children(), 0u);
  EXPECT_FALSE(node.has_child("a"));
  EXPECT_EQ(node.find_child("b"), nullptr);
  EXPECT_EQ(node.as_string(), "leaf");
}

TEST(NodeTest, ChildOnLeafDropsValue) {
  Node node;
  node.set(std::vector<double>{1.0, 2.0});
  node.child("a");
  EXPECT_TRUE(node.is_object());
  EXPECT_THROW(node.as_float64_array(), LookupError);
  EXPECT_EQ(node.number_of_children(), 1u);
  EXPECT_TRUE(node.child_at(0).is_empty());

  Node appended;
  appended.set(std::int64_t{7});
  appended.append_child("b").set(std::int64_t{8});
  EXPECT_THROW(appended.as_int64(), LookupError);
  EXPECT_EQ(appended.fetch_existing("b").as_int64(), 8);
}

TEST(NodeTest, CopiesAreDeepAtEveryLevel) {
  Node a;
  a.fetch("x/y/z").set(std::vector<std::int64_t>{1, 2, 3});
  a.fetch("x/s").set("text");
  Node b = a;
  Node c;
  c = a;
  b.fetch("x/y/z").set(std::vector<std::int64_t>{4});
  c.fetch("x/s").set("other");
  c.fetch("x/new").set(1.0);
  EXPECT_EQ(a.fetch_existing("x/y/z").as_int64_array(),
            (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(a.fetch_existing("x/s").as_string(), "text");
  EXPECT_FALSE(a.has_path("x/new"));
  EXPECT_EQ(a.fetch_existing("x").number_of_children(), 2u);
  EXPECT_EQ(c.fetch_existing("x/y/z").as_int64_array().size(), 3u);
}

TEST(NodeTest, LeafHasNoChildNames) {
  Node node;
  node.set(3.5);
  EXPECT_TRUE(node.child_names().empty());
  EXPECT_EQ(node.child_names().size(), 0u);
  EXPECT_EQ(node.number_of_children(), 0u);
  const Node empty;
  EXPECT_TRUE(empty.child_names().empty());
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

  node.find_child("a")->child("e").set(std::int64_t{7});  // via find_child
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
  out.resize(out.size() + 4);
  bytes::store_u32(out.data() + out.size() - 4, v);
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

TEST(NodeSerdeTest, RepeatInWideObjectKeepsFirstPositionWithLastValue) {
  // 100 children; "c3" is repeated at position 97.
  std::vector<std::byte> wire;
  put_object_header(wire, 100);
  for (int i = 0; i < 100; ++i) {
    put_name(wire, numbered("c", i == 97 ? 3 : i));
    put_int64_leaf(wire, i);
  }
  const Node node = Node::unpack(wire);
  ASSERT_EQ(node.number_of_children(), 99u);
  for (std::size_t i = 0; i < 99; ++i) {
    const int original = i < 97 ? static_cast<int>(i) : static_cast<int>(i) + 1;
    EXPECT_EQ(node.child_names()[i], numbered("c", original));
    EXPECT_EQ(node.child_at(i).as_int64(), i == 3 ? 97 : original);
  }
}

TEST(NodeSerdeTest, NameRepeatedThreeTimesTakesLastValue) {
  // "x" at positions 0, 2 and 4; the first one is an object, which the
  // last (leaf) value replaces whole.
  Node first;
  first["k"].set(std::int64_t{7});
  std::vector<std::byte> wire;
  put_object_header(wire, 6);
  put_name(wire, "x");
  first.pack(wire);
  const char* rest[] = {"a", "x", "b", "x", "c"};
  for (int i = 0; i < 5; ++i) {
    put_name(wire, rest[i]);
    put_int64_leaf(wire, i + 1);
  }
  const Node node = Node::unpack(wire);
  ASSERT_EQ(node.number_of_children(), 4u);
  EXPECT_EQ(node.child_names()[0], "x");
  EXPECT_EQ(node.child_names()[1], "a");
  EXPECT_EQ(node.child_names()[2], "b");
  EXPECT_EQ(node.child_names()[3], "c");
  EXPECT_EQ(node.child_at(0).as_int64(), 4);
  EXPECT_EQ(node.child_at(1).as_int64(), 1);
  EXPECT_EQ(node.child_at(2).as_int64(), 3);
  EXPECT_EQ(node.child_at(3).as_int64(), 5);
}

TEST(NodeSerdeTest, ObjectOfOnlyRepeatsCollapsesToOneChild) {
  std::vector<std::byte> wire;
  put_object_header(wire, 5000);
  for (int i = 0; i < 5000; ++i) {
    put_name(wire, "a");
    put_int64_leaf(wire, i);
  }
  const Node node = Node::unpack(wire);
  ASSERT_EQ(node.number_of_children(), 1u);
  EXPECT_EQ(node.child_at(0).as_int64(), 4999);
}

TEST(NodeSerdeTest, EventsSizedObjectRoundTripsByteForByte) {
  // As wide as RpMonitor's `events` node at 512 pipelines: one child per
  // task uid, each holding its timestamped events.
  Node events;
  for (int i = 0; i < 6685; ++i) {
    char uid[16];
    std::snprintf(uid, sizeof(uid), "task.%06d", i);
    Node& task = events[uid];
    task[std::to_string(1698435412606000000LL + i)].set("rank_start");
    task[std::to_string(1698435413606000000LL + i)].set("rank_stop");
  }
  const std::vector<std::byte> bytes = events.pack();
  const Node back = Node::unpack(bytes);
  EXPECT_EQ(back.number_of_children(), 6685u);
  EXPECT_EQ(back, events);
  EXPECT_EQ(back.pack(), bytes);
}

TEST(NodeSerdeTest, NumericArraysKeepBitPatterns) {
  const std::vector<std::uint64_t> float_bits = {
      0x7ff8000000000123ULL,  // quiet NaN with a payload
      0xfff8000000000000ULL,  // negative quiet NaN
      0x8000000000000000ULL,  // -0.0
      0x0000000000000001ULL,  // smallest subnormal
      0x3ff8000000000000ULL,  // 1.5
  };
  std::vector<double> floats;
  for (std::uint64_t bits : float_bits) {
    floats.push_back(std::bit_cast<double>(bits));
  }
  Node node;
  node["f"].set(floats);
  node["i"].set(std::vector<std::int64_t>{
      std::numeric_limits<std::int64_t>::min(), -1, 0,
      std::numeric_limits<std::int64_t>::max()});
  const Node back = Node::unpack(node.pack());
  const std::vector<double>& f = back.fetch_existing("f").as_float64_array();
  ASSERT_EQ(f.size(), float_bits.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(f[i]), float_bits[i]) << i;
  }
  EXPECT_EQ(back.fetch_existing("i").as_int64_array(),
            node.fetch_existing("i").as_int64_array());
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

// The byte order itself, not only a digest of it: one tree holding every
// pack tag, an object with no children and empty arrays included.
TEST(NodeSerdeTest, PackOfEveryTagIsPinnedByteForByte) {
  Node root;
  root["e"];
  root["o"]["x"].set(std::int64_t{-2});
  root["eo"].reserve_children(1);  // an object with no children
  root["i"].set(std::int64_t{0x0102030405060708});
  root["f"].set(1.5);
  root["s"].set("ab");
  root["I"].set(std::vector<std::int64_t>{1, -1});
  root["F"].set(std::vector<double>{-0.5});
  root["I0"].set(std::vector<std::int64_t>{});
  root["F0"].set(std::vector<double>{});

  const std::vector<unsigned> expected = {
      0x01, 0x0a, 0x00, 0x00, 0x00,                          // object, 10
      0x01, 0x00, 0x00, 0x00, 'e', 0x00,                     // e: empty
      0x01, 0x00, 0x00, 0x00, 'o', 0x01, 0x01, 0x00, 0x00, 0x00,  // o: {
      0x01, 0x00, 0x00, 0x00, 'x',                           //   x:
      0x02, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  //   -2 }
      0x02, 0x00, 0x00, 0x00, 'e', 'o', 0x00,                // eo: empty
      0x01, 0x00, 0x00, 0x00, 'i',                           // i:
      0x02, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  //   int64
      0x01, 0x00, 0x00, 0x00, 'f',                           // f:
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f,  //   1.5
      0x01, 0x00, 0x00, 0x00, 's',                           // s:
      0x04, 0x02, 0x00, 0x00, 0x00, 'a', 'b',                //   "ab"
      0x01, 0x00, 0x00, 0x00, 'I', 0x05, 0x02, 0x00, 0x00, 0x00,  // I: [
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,        //   1,
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,        //   -1 ]
      0x01, 0x00, 0x00, 0x00, 'F', 0x06, 0x01, 0x00, 0x00, 0x00,  // F: [
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0xbf,        //   -0.5 ]
      0x02, 0x00, 0x00, 0x00, 'I', '0', 0x05, 0x00, 0x00, 0x00, 0x00,  // []
      0x02, 0x00, 0x00, 0x00, 'F', '0', 0x06, 0x00, 0x00, 0x00, 0x00,  // []
  };
  std::vector<std::byte> wire;
  for (const unsigned b : expected) wire.push_back(static_cast<std::byte>(b));
  EXPECT_EQ(root.pack(), wire);
  EXPECT_EQ(root.packed_size(), wire.size());
  EXPECT_EQ(Node::unpack(wire), root);
}

// ---------- text: child names and string leaves ----------

// Text at the edges of the 15-byte inline limit, a long one, and text with
// a NUL inside, held inline and on the heap. The letters run on, so the
// 15-byte case is a prefix of the 16-byte one.
std::vector<std::string> text_cases() {
  std::vector<std::string> cases;
  for (const std::size_t size : {0, 15, 16, 300}) {
    std::string text(size, ' ');
    for (std::size_t i = 0; i < size; ++i) {
      text[i] = static_cast<char>('a' + i % 26);
    }
    cases.push_back(text);
  }
  cases.emplace_back("nul\0inline", 10);
  cases.emplace_back("nul\0held on the heap", 21);
  return cases;
}

Node string_leaf(std::string_view text) {
  Node node;
  node.set(text);
  return node;
}

TEST(NodeTextTest, StringLeafKeepsEveryByte) {
  for (const std::string& text : text_cases()) {
    const Node node = string_leaf(text);
    EXPECT_EQ(node.as_string(), text) << text.size();
    std::vector<std::byte> expected(5 + text.size());
    expected[0] = std::byte{4};  // string tag, then u32 length and bytes
    bytes::store_text(expected.data() + 1, text);
    EXPECT_EQ(node.pack(), expected) << text.size();
    EXPECT_EQ(Node::unpack(expected).as_string(), text) << text.size();
    EXPECT_EQ(Node::parse_json(node.to_json()), node) << text.size();
  }
}

TEST(NodeTextTest, CopyMoveSelfAssignmentAndSwapKeepText) {
  const std::vector<std::string> cases = text_cases();
  for (const std::string& a : cases) {
    const Node original = string_leaf(a);
    Node copy = original;
    EXPECT_EQ(copy.as_string(), a);
    if (a.size() > 15) {
      EXPECT_NE(copy.as_string().data(), original.as_string().data());
    }
    Node moved = std::move(copy);
    EXPECT_EQ(moved.as_string(), a);
    const Node& alias = moved;
    moved = alias;
    EXPECT_EQ(moved.as_string(), a);
    for (const std::string& b : cases) {
      Node assigned = string_leaf(a);
      const Node source = string_leaf(b);
      assigned = source;
      EXPECT_EQ(assigned.as_string(), b);
      EXPECT_EQ(source.as_string(), b);
      Node move_assigned = string_leaf(a);
      move_assigned = string_leaf(b);
      EXPECT_EQ(move_assigned.as_string(), b);
      Node left = string_leaf(a);
      Node right = string_leaf(b);
      std::swap(left, right);
      EXPECT_EQ(left.as_string(), b);
      EXPECT_EQ(right.as_string(), a);
    }
  }
}

// The text handed in may view the value it replaces.
TEST(NodeTextTest, TextViewingTheReplacedValueIsCopiedFirst) {
  const std::string text(300, 'x');
  Node leaf = string_leaf(text);
  leaf.set(leaf.as_string());
  EXPECT_EQ(leaf.as_string(), text);

  Node parent;
  parent["c"].set(text);
  parent.set(parent.child_at(0).as_string());
  EXPECT_EQ(parent.as_string(), text);

  Node named = string_leaf(text);
  named.child(named.as_string()).set(std::int64_t{1});
  EXPECT_EQ(named.child_names()[0], text);

  Node appended = string_leaf(text);
  appended.append_child(appended.as_string()).set(std::int64_t{2});
  EXPECT_EQ(appended.child_names()[0], text);
}

TEST(NodeTextTest, ChildNamesKeepEveryByte) {
  const std::vector<std::string> cases = text_cases();
  Node node;
  for (const std::string& name : cases) node.append_child(name).set(name);
  ASSERT_EQ(node.number_of_children(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(node.child_names()[i], cases[i]) << i;
    const Node* found = node.find_child(cases[i]);
    ASSERT_NE(found, nullptr) << i;
    EXPECT_EQ(found->as_string(), cases[i]);
  }
  // The text before a NUL is another name.
  EXPECT_FALSE(node.has_child("nul"));
  EXPECT_EQ(Node::unpack(node.pack()), node);
  EXPECT_EQ(Node::parse_json(node.to_json()), node);

  Node copy = node;
  EXPECT_EQ(copy, node);
  Node moved = std::move(copy);
  EXPECT_EQ(moved, node);
  Node other;
  other["x"].set("y");
  std::swap(moved, other);
  EXPECT_EQ(other, node);
  EXPECT_EQ(moved.child_names()[0], "x");
}

TEST(NodeTextTest, FetchAndFindReachHeapHeldNames) {
  const std::string outer = "sixteen_bytes_16";
  const std::string inner(300, 'n');
  const std::string path = outer + "/" + inner;
  Node node;
  node.fetch(path).set(std::int64_t{7});
  node[outer]["short"].set(std::int64_t{8});
  ASSERT_NE(node.find_child(outer), nullptr);
  EXPECT_NE(node.find_child(outer)->find_child(inner), nullptr);
  EXPECT_EQ(node.fetch_existing(path).as_int64(), 7);
  EXPECT_TRUE(node.has_path(path));
  EXPECT_FALSE(node.has_path(outer + "/" + inner.substr(1)));
  EXPECT_THROW((void)node.fetch_existing(path + "n"), LookupError);
}

TEST(NodeTextTest, RepeatedHeapHeldNameKeepsFirstPositionWithLastValue) {
  const std::string name(300, 'r');
  std::vector<std::byte> wire;
  put_object_header(wire, 3);
  put_name(wire, name);
  put_int64_leaf(wire, 1);
  put_name(wire, "b");
  put_int64_leaf(wire, 2);
  put_name(wire, name);
  put_int64_leaf(wire, 3);
  const Node node = Node::unpack(wire);
  ASSERT_EQ(node.number_of_children(), 2u);
  EXPECT_EQ(node.child_names()[0], name);
  EXPECT_EQ(node.child_at(0).as_int64(), 3);
  EXPECT_EQ(node.child_at(1).as_int64(), 2);
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

// ---------- memory ----------

// A stored record is an unpacked tree, so its heap cost is what a store of
// /proc snapshots pays per record. A 42-core snapshot (43 stat rows) packs to
// about 2.8 kB; its tree, one 48 B Child per row plus each row's jiffy array,
// must stay within 1.7 times that.
TEST(NodeMemoryTest, UnpackedProcSnapshotStaysWithinOnePointSevenTimesPacked) {
  sim::Simulation simulation;
  cluster::Platform platform(simulation, cluster::summit(1));
  Rng rng(1);
  const std::vector<std::byte> packed =
      cluster::make_proc_snapshot(platform.node(0), SimTime::from_seconds(100),
                                  rng)
          .pack();

  const std::size_t before = heap_live_bytes;
  const Node snapshot = Node::unpack(packed);
  const std::size_t heap = heap_live_bytes - before;

  ASSERT_EQ(snapshot.fetch_existing("cn0000").child_at(0)
                .fetch_existing("stat").number_of_children(),
            43u);
  // The 43 six-word jiffy arrays alone: the counter sees the tree.
  EXPECT_GE(heap, 43 * 6 * sizeof(std::int64_t));
  EXPECT_LE(static_cast<double>(heap),
            1.7 * static_cast<double>(packed.size()))
      << heap << " heap bytes for " << packed.size() << " packed bytes";
}

}  // namespace
}  // namespace soma::datamodel
