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
//     wire format used by the RPC transport.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace soma::datamodel {

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
  void set(std::string value);
  void set(std::vector<std::int64_t> values);
  void set(std::vector<double> values);
  void set(const char* value) { set(std::string{value}); }
  // Guard against the int64 overload being picked for bool by accident.
  void set(bool) = delete;

  // ---- leaf value getters (throw LookupError on type mismatch) ----
  [[nodiscard]] std::int64_t as_int64() const;
  [[nodiscard]] double as_float64() const;
  [[nodiscard]] const std::string& as_string() const;
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
  /// Child by name or nullptr. Never creates.
  [[nodiscard]] const Node* find_child(std::string_view name) const;
  [[nodiscard]] Node* find_child(std::string_view name);

  /// Path access with '/'-separated components; creates missing levels.
  Node& fetch(std::string_view path);
  /// Path access that throws LookupError when any component is missing.
  [[nodiscard]] const Node& fetch_existing(std::string_view path) const;

  [[nodiscard]] bool has_child(std::string_view name) const;
  [[nodiscard]] bool has_path(std::string_view path) const;

  /// Remove a direct child; returns true if it existed.
  bool remove_child(std::string_view name);

  [[nodiscard]] std::size_t number_of_children() const;
  /// Random-access view of the child names in insertion order;
  /// `child_names()[i]` is a `const std::string&`.
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
  /// Total number of leaf values in the subtree.
  [[nodiscard]] std::size_t leaf_count() const;
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
  [[nodiscard]] std::vector<std::byte> pack() const;
  /// Parse a buffer produced by pack(). Throws LookupError on malformed
  /// input (truncation, unknown tags, a count the remaining bytes cannot
  /// hold, nesting deeper than kMaxDepth).
  static Node unpack(std::span<const std::byte> buffer);

 private:
  struct Child;
  using Value = std::variant<std::monostate, std::int64_t, double, std::string,
                             std::vector<std::int64_t>, std::vector<double>>;

  /// Write this subtree's pack() encoding at `p` (which must have
  /// packed_size() bytes of room); returns one past the last byte written.
  std::byte* pack_into(std::byte* p) const;
  static Node unpack_one(std::span<const std::byte> buffer,
                         std::size_t& offset, std::size_t depth);

  Value value_;
  std::vector<Child> children_;  // insertion order; names are unique
};

struct Node::Child {
  std::string name;
  Node node;
};

inline std::size_t Node::number_of_children() const {
  return children_.size();
}

inline auto Node::child_names() const {
  return std::views::transform(children_, &Child::name);
}

/// Human-readable name of a node type ("int64", "object", ...).
std::string_view type_name(Node::Type type);

}  // namespace soma::datamodel
