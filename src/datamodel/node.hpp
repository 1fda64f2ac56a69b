// Hierarchical, typed data model in the spirit of LLNL Conduit.
//
// SOMA represents every monitoring record as a `Node` tree: the top level is
// a namespace tag ("RP", "PROC", "TAU", "APP"), below that are source tags
// (task uid, hostname), and leaves carry typed values. See paper §2.3.2,
// Listings 1 and 2. The model supports:
//   * object nodes with ordered, named children, held by value in one
//     insertion-ordered vector and found by linear scan (the widest object
//     any bench builds, RpMonitor's `events` node at 512 pipelines, has 6685
//     children, and all three benchmark workloads ran faster without a
//     hash index),
//   * leaf nodes of type int64 / float64 / string / int64[] / float64[],
//   * path access ("RP/task.000000/1698435412.606"),
//   * deep merge (`update`), equality, JSON rendering, and a compact binary
//     wire format used by the RPC transport, written and read through the
//     byte codec of common/bytes.hpp that every binary format shares.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace soma::datamodel {

/// Type tag that opens every encoded subtree of Node::pack. Codecs that
/// write or read pack() encodings outside node.cpp (the soma.publish body)
/// take the values from here.
enum class PackTag : std::uint8_t {
  kEmpty = 0,
  kObject = 1,
  kInt64 = 2,
  kFloat64 = 3,
  kString = 4,
  kInt64Array = 5,
  kFloat64Array = 6,
};

class Node {
 public:
  enum class Type {
    kEmpty,
    kObject,
    kInt64,
    kFloat64,
    kString,
    kInt64Array,
    kFloat64Array,
  };

  /// Deepest nesting unpack() and parse_json() accept (the root is depth 0);
  /// deeper input throws LookupError, bounding the decoders' recursion.
  static constexpr std::size_t kMaxDepth = 256;

  // ---- type ----
  [[nodiscard]] Type type() const;
  [[nodiscard]] bool is_empty() const { return type() == Type::kEmpty; }
  [[nodiscard]] bool is_object() const { return type() == Type::kObject; }
  [[nodiscard]] bool is_leaf() const {
    return !is_object() && !is_empty();
  }

  // ---- leaf value setters (clear any children) ----
  void set(std::int64_t value);
  void set(double value);
  void set(std::string_view value);
  void set(std::vector<std::int64_t> values);
  void set(std::vector<double> values);
  void set(const char* value) { set(std::string_view{value}); }
  // Guard against the int64 overload being picked for bool by accident.
  void set(bool) = delete;

  // ---- leaf value getters (throw LookupError on type mismatch) ----
  [[nodiscard]] std::int64_t as_int64() const;
  [[nodiscard]] double as_float64() const;
  /// The string leaf's bytes, valid until the node is changed or destroyed.
  [[nodiscard]] std::string_view as_string() const;
  [[nodiscard]] const std::vector<std::int64_t>& as_int64_array() const;
  [[nodiscard]] const std::vector<double>& as_float64_array() const;

  /// Numeric coercion: int64 or float64 leaf -> double.
  [[nodiscard]] double to_float64() const;

  // ---- hierarchy ----
  // Children live by value in one vector, so a Node& or Node* obtained from
  // child(), operator[], fetch(), find_child() or child_at() is invalidated
  // when a sibling is inserted or removed, as with any std::vector element.
  // Re-look a child up after adding its siblings.

  /// Child by name, created (empty) if absent. Converts this node to an
  /// object, discarding any leaf value.
  Node& child(std::string_view name);
  /// New child `name`, appended without a lookup, for builders that know
  /// the name is new. Precondition: no child is called `name` (a repeat
  /// would leave two; child() would then find only the first). Converts
  /// this node to an object, discarding any leaf value.
  Node& append_child(std::string_view name);
  /// Make room for `n` children, so appending them moves no sibling.
  /// Discards any leaf value; the node stays empty until a child is added.
  void reserve_children(std::size_t n);
  /// Child by name or nullptr. Never creates.
  [[nodiscard]] const Node* find_child(std::string_view name) const;
  [[nodiscard]] Node* find_child(std::string_view name);

  /// Path access with '/'-separated components; creates missing levels.
  Node& fetch(std::string_view path);
  /// Path access that throws LookupError when any component is missing.
  [[nodiscard]] const Node& fetch_existing(std::string_view path) const;

  [[nodiscard]] bool has_child(std::string_view name) const;
  [[nodiscard]] bool has_path(std::string_view path) const;

  [[nodiscard]] std::size_t number_of_children() const;
  /// Random-access view of the child names in insertion order;
  /// `child_names()[i]` is a `std::string_view`, valid until the child is
  /// renamed, moved or destroyed (so, like a child reference, until a sibling
  /// is inserted or removed).
  [[nodiscard]] auto child_names() const;
  /// Child access by insertion index (with bounds check).
  [[nodiscard]] const Node& child_at(std::size_t index) const;
  [[nodiscard]] Node& child_at(std::size_t index);

  /// Sugar: node["a"]["b"] — equivalent to child(name).
  Node& operator[](std::string_view name) { return child(name); }

  /// Reset to empty (no value, no children).
  void reset();

  // ---- merge ----
  /// Deep merge: leaves in `other` overwrite, objects merge recursively.
  /// Matches Conduit's Node::update semantics.
  void update(const Node& other);

  // ---- equality (deep, exact) ----
  bool operator==(const Node& other) const;

  // ---- introspection ----
  /// Serialized size in bytes (matches pack() exactly). Walks the subtree on
  /// every call; nothing is cached, so no mutation can leave it stale.
  [[nodiscard]] std::size_t packed_size() const;

  // ---- serialization ----
  /// Render as JSON. `indent` > 0 pretty-prints.
  [[nodiscard]] std::string to_json(int indent = 0) const;

  /// Parse JSON produced by to_json (null / integer / double / string /
  /// homogeneous numeric array / object). Throws LookupError on malformed
  /// or unrepresentable input.
  static Node parse_json(std::string_view json);

  /// Compact binary wire format (tag/length/value). Appends to `out`.
  void pack(std::vector<std::byte>& out) const;
  /// pack() for a caller that has already walked packed_size() (to size a
  /// frame around the body): `size` must equal packed_size().
  void pack(std::vector<std::byte>& out, std::size_t size) const;
  [[nodiscard]] std::vector<std::byte> pack() const;
  /// Parse a buffer produced by pack(). Throws LookupError on malformed
  /// input (truncation, unknown tags, a count the remaining bytes cannot
  /// hold, nesting deeper than kMaxDepth). Decodes in place in linear time
  /// plus an O(n log n) repeated-name check per object; a repeated name
  /// keeps its first position and takes its last value.
  static Node unpack(std::span<const std::byte> buffer);
  /// unpack() of the one encoded subtree at `offset`, which is advanced past
  /// it; `depth` is the subtree's nesting below the enclosing root. For
  /// decoders of an envelope whose fields are pack() encodings: the result
  /// equals the matching child of unpack() over the whole envelope.
  static Node unpack_at(std::span<const std::byte> buffer, std::size_t& offset,
                        std::size_t depth);

 private:
  /// Owning text of 16 bytes, for child names and string leaves. Byte 15
  /// is the tag: the length of text held inline in bytes 0-14 (so at most
  /// kInline = 15), or kHeap for longer text, whose heap block's pointer is
  /// in bytes 0-7 and its u32 length (the wire format's limit) in 8-11.
  /// Fields are read and written with memcpy; any byte, NUL too, is text.
  class Text {
   public:
    Text() = default;
    explicit Text(std::string_view text) {
      if (text.size() > kInline) {
        store_on_heap(text);
        return;
      }
      if (!text.empty()) std::memcpy(bytes_, text.data(), text.size());
      bytes_[kInline] = static_cast<char>(text.size());
    }
    Text(const Text& other) {
      if (other.on_heap()) {
        store_on_heap(other.view());
      } else {
        std::memcpy(bytes_, other.bytes_, sizeof(bytes_));
      }
    }
    Text(Text&& other) noexcept : Text() { swap(other); }
    Text& operator=(Text other) noexcept {
      swap(other);
      return *this;
    }
    ~Text() {
      if (on_heap()) delete[] heap_data();
    }

    [[nodiscard]] std::string_view view() const {
      if (!on_heap()) return {bytes_, static_cast<std::size_t>(tag())};
      std::uint32_t size = 0;
      std::memcpy(&size, bytes_ + 8, sizeof(size));
      return {heap_data(), size};
    }
    friend bool operator==(const Text& a, const Text& b) {
      return a.view() == b.view();
    }

   private:
    static constexpr std::size_t kInline = 15;
    static constexpr unsigned char kHeap = 0xff;

    void swap(Text& other) noexcept { std::swap(bytes_, other.bytes_); }

    [[nodiscard]] unsigned char tag() const {
      return static_cast<unsigned char>(bytes_[kInline]);
    }
    [[nodiscard]] bool on_heap() const { return tag() == kHeap; }
    /// Copy `text` (longer than kInline) into a new heap block.
    void store_on_heap(std::string_view text);
    [[nodiscard]] char* heap_data() const {
      char* data = nullptr;
      std::memcpy(&data, bytes_, sizeof(data));
      return data;
    }

    alignas(8) char bytes_[16] = {};
  };

  struct Child;
  using Children = std::vector<Child>;  // insertion order; names are unique
  // The node's one member. The alternatives are in Type order, so type() is
  // the index, except that an empty Children reads as kEmpty.
  using Value = std::variant<std::monostate, Children, std::int64_t, double,
                             Text, std::vector<std::int64_t>,
                             std::vector<double>>;

  /// The children; none for a leaf or an empty node.
  [[nodiscard]] std::span<const Child> children() const;
  /// The children, after discarding any leaf value.
  Children& make_object();

  /// Write this subtree's pack() encoding at `p` (which must have
  /// packed_size() bytes of room); returns one past the last byte written.
  std::byte* pack_into(std::byte* p) const;
  /// Decode one encoded subtree at `offset` into the empty `node`.
  static void unpack_into(Node& node, std::span<const std::byte> buffer,
                          std::size_t& offset, std::size_t depth);
  /// Collapse repeated child names the way child(name) = value would have:
  /// each name keeps its first position and takes its last value.
  void merge_repeated_children();

  Value value_;
};

struct Node::Child {
  Text name;
  Node node;
  bool operator==(const Child&) const = default;
};

inline std::span<const Node::Child> Node::children() const {
  if (const auto* c = std::get_if<Children>(&value_)) return *c;
  return {};
}

inline std::size_t Node::number_of_children() const {
  return children().size();
}

inline auto Node::child_names() const {
  return std::views::transform(
      children(), [](const Child& c) { return c.name.view(); });
}

/// Human-readable name of a node type ("int64", "object", ...).
std::string_view type_name(Node::Type type);

}  // namespace soma::datamodel
