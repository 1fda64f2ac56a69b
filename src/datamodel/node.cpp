#include "datamodel/node.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace soma::datamodel {
namespace {

[[noreturn]] void type_error(std::string_view wanted, Node::Type actual) {
  throw soma::LookupError("node type mismatch: wanted " + std::string(wanted) +
                          ", node is " + std::string(type_name(actual)));
}

std::pair<std::string_view, std::string_view> split_first(
    std::string_view path) {
  const std::size_t pos = path.find('/');
  if (pos == std::string_view::npos) return {path, {}};
  return {path.substr(0, pos), path.substr(pos + 1)};
}

void json_escape(std::string_view in, std::ostringstream& out) {
  out << '"';
  for (char c : in) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default: out << c;
    }
  }
  out << '"';
}

void json_number(double v, std::ostringstream& out) {
  if (std::isfinite(v)) {
    char buffer[40];
    const int n = std::snprintf(buffer, sizeof(buffer), "%.17g", v);
    out << buffer;
    // A whole value prints as bare digits, which parse back as int64:
    // append ".0" so the leaf keeps its type.
    if (std::strspn(buffer, "-0123456789") == static_cast<std::size_t>(n)) {
      out << ".0";
    }
  } else {
    out << "null";
  }
}

using Tag = PackTag;

}  // namespace

// A node moves without throwing, so a growing Children vector moves its
// elements instead of copying them.
static_assert(std::is_nothrow_move_constructible_v<Node>);

void Node::Text::store_on_heap(std::string_view text) {
  if (text.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("Node text longer than the wire format's u32");
  }
  char* data = new char[text.size()];
  std::memcpy(data, text.data(), text.size());
  const auto size = static_cast<std::uint32_t>(text.size());
  std::memcpy(bytes_, &data, sizeof(data));
  std::memcpy(bytes_ + 8, &size, sizeof(size));
  bytes_[kInline] = static_cast<char>(kHeap);
}

std::string_view type_name(Node::Type type) {
  switch (type) {
    case Node::Type::kEmpty: return "empty";
    case Node::Type::kObject: return "object";
    case Node::Type::kInt64: return "int64";
    case Node::Type::kFloat64: return "float64";
    case Node::Type::kString: return "string";
    case Node::Type::kInt64Array: return "int64_array";
    case Node::Type::kFloat64Array: return "float64_array";
  }
  return "?";
}

Node::Type Node::type() const {
  const std::size_t index = value_.index();
  if (index == 1) return children().empty() ? Type::kEmpty : Type::kObject;
  // A valueless variant (index npos) reads as kEmpty too.
  return index <= 6 ? static_cast<Type>(index) : Type::kEmpty;
}

void Node::reset() { value_ = std::monostate{}; }

void Node::set(std::int64_t value) { value_ = value; }
void Node::set(double value) { value_ = value; }
// The text is copied before the old value goes: `value` may view it.
void Node::set(std::string_view value) { value_ = Text(value); }
void Node::set(std::vector<std::int64_t> values) { value_ = std::move(values); }
void Node::set(std::vector<double> values) { value_ = std::move(values); }

std::int64_t Node::as_int64() const {
  if (const auto* v = std::get_if<std::int64_t>(&value_)) return *v;
  type_error("int64", type());
}
double Node::as_float64() const {
  if (const auto* v = std::get_if<double>(&value_)) return *v;
  type_error("float64", type());
}
std::string_view Node::as_string() const {
  if (const auto* v = std::get_if<Text>(&value_)) return v->view();
  type_error("string", type());
}
const std::vector<std::int64_t>& Node::as_int64_array() const {
  if (const auto* v = std::get_if<std::vector<std::int64_t>>(&value_)) {
    return *v;
  }
  type_error("int64_array", type());
}
const std::vector<double>& Node::as_float64_array() const {
  if (const auto* v = std::get_if<std::vector<double>>(&value_)) return *v;
  type_error("float64_array", type());
}

double Node::to_float64() const {
  if (const auto* v = std::get_if<double>(&value_)) return *v;
  if (const auto* v = std::get_if<std::int64_t>(&value_)) {
    return static_cast<double>(*v);
  }
  type_error("numeric", type());
}

Node::Children& Node::make_object() {
  // The layout every stored record pays for: a Text and a Node per child
  // (the Node is the variant's 24 B vector alternatives plus its index).
#if defined(__GLIBCXX__) && defined(__x86_64__)
  static_assert(sizeof(Text) == 16);
  static_assert(sizeof(Node) == 32);
  static_assert(sizeof(Child) == 48);
#endif
  if (auto* c = std::get_if<Children>(&value_)) return *c;
  return value_.emplace<Children>();
}

// Both copy the name before make_object() drops a leaf `name` may view.
Node& Node::child(std::string_view name) {
  if (Node* existing = find_child(name)) return *existing;
  Text text(name);
  return make_object().emplace_back(std::move(text)).node;
}

Node& Node::append_child(std::string_view name) {
  assert(find_child(name) == nullptr);
  Text text(name);
  return make_object().emplace_back(std::move(text)).node;
}

void Node::reserve_children(std::size_t n) { make_object().reserve(n); }

const Node* Node::find_child(std::string_view name) const {
  for (const Child& c : children()) {
    if (c.name.view() == name) return &c.node;
  }
  return nullptr;
}

Node* Node::find_child(std::string_view name) {
  return const_cast<Node*>(std::as_const(*this).find_child(name));
}

Node& Node::fetch(std::string_view path) {
  if (path.empty()) return *this;
  const auto [head, rest] = split_first(path);
  Node& c = child(head);
  return rest.empty() ? c : c.fetch(rest);
}

const Node& Node::fetch_existing(std::string_view path) const {
  if (path.empty()) return *this;
  const auto [head, rest] = split_first(path);
  const Node* c = find_child(head);
  if (c == nullptr) {
    throw soma::LookupError("Node::fetch_existing: no child '" +
                            std::string(head) + "'");
  }
  return rest.empty() ? *c : c->fetch_existing(rest);
}

bool Node::has_child(std::string_view name) const {
  return find_child(name) != nullptr;
}

bool Node::has_path(std::string_view path) const {
  if (path.empty()) return true;
  const auto [head, rest] = split_first(path);
  const Node* c = find_child(head);
  if (c == nullptr) return false;
  return rest.empty() ? true : c->has_path(rest);
}

const Node& Node::child_at(std::size_t index) const {
  check(index < number_of_children(), "child_at: index out of range");
  return children()[index].node;
}

Node& Node::child_at(std::size_t index) {
  return const_cast<Node&>(std::as_const(*this).child_at(index));
}

void Node::update(const Node& other) {
  if (other.is_object()) {
    for (const Child& c : other.children()) {
      child(c.name.view()).update(c.node);
    }
  } else if (!other.is_empty()) {
    value_ = other.value_;
  }
}

bool Node::operator==(const Node& other) const {
  // An empty child vector and std::monostate are both kEmpty.
  if (is_empty() || other.is_empty()) return is_empty() && other.is_empty();
  return value_ == other.value_;
}

std::size_t Node::packed_size() const {
  std::size_t total = 1;  // tag
  switch (type()) {
    case Type::kEmpty:
      break;
    case Type::kObject:
      total += 4;
      for (const Child& c : children()) {
        total += 4 + c.name.view().size() + c.node.packed_size();
      }
      break;
    case Type::kInt64:
    case Type::kFloat64:
      total += 8;
      break;
    case Type::kString:
      total += 4 + as_string().size();
      break;
    case Type::kInt64Array:
      total += 4 + 8 * as_int64_array().size();
      break;
    case Type::kFloat64Array:
      total += 4 + 8 * as_float64_array().size();
      break;
  }
  return total;
}

namespace {
void to_json_impl(const Node& node, std::ostringstream& out, int indent,
                  int depth) {
  // "\n" plus the indent of this level (close_pad) or of its children (pad).
  std::string pad;
  std::string close_pad;
  if (indent > 0) {
    const auto width = static_cast<std::size_t>(indent);
    close_pad.append(1, '\n').append(width * static_cast<std::size_t>(depth),
                                     ' ');
    pad.append(close_pad).append(width, ' ');
  }
  switch (node.type()) {
    case Node::Type::kEmpty:
      out << "null";
      break;
    case Node::Type::kInt64:
      out << node.as_int64();
      break;
    case Node::Type::kFloat64:
      json_number(node.as_float64(), out);
      break;
    case Node::Type::kString:
      json_escape(node.as_string(), out);
      break;
    case Node::Type::kInt64Array: {
      out << '[';
      const auto& values = node.as_int64_array();
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out << (indent > 0 ? ", " : ",");
        out << values[i];
      }
      out << ']';
      break;
    }
    case Node::Type::kFloat64Array: {
      out << '[';
      const auto& values = node.as_float64_array();
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out << (indent > 0 ? ", " : ",");
        json_number(values[i], out);
      }
      out << ']';
      break;
    }
    case Node::Type::kObject: {
      out << '{';
      for (std::size_t i = 0; i < node.number_of_children(); ++i) {
        if (i > 0) out << ',';
        out << pad;
        json_escape(node.child_names()[i], out);
        out << (indent > 0 ? ": " : ":");
        to_json_impl(node.child_at(i), out, indent, depth + 1);
      }
      out << close_pad << '}';
      break;
    }
  }
}
}  // namespace

std::string Node::to_json(int indent) const {
  std::ostringstream out;
  to_json_impl(*this, out, indent, 0);
  return out.str();
}

void PackWriter::grow(std::size_t n) {
  const std::size_t at = size();
  out_.resize(base_ + std::max(at + n, 2 * at));
  at_ = out_.data() + base_ + at;
  end_ = out_.data() + out_.size();
}

std::byte* Node::pack_into(std::byte* p) const {
  switch (type()) {
    case Type::kEmpty:
      return PackWriter::empty_at(p);
    case Type::kObject:
      p = PackWriter::object_at(
          p, static_cast<std::uint32_t>(number_of_children()));
      for (const Child& c : children()) {
        p = PackWriter::name_at(p, c.name.view());
        p = c.node.pack_into(p);
      }
      return p;
    case Type::kInt64:
      return PackWriter::int64_at(p, as_int64());
    case Type::kFloat64:
      return PackWriter::float64_at(p, as_float64());
    case Type::kString:
      return PackWriter::string_at(p, as_string());
    case Type::kInt64Array:
      return PackWriter::array_at(p, std::span(as_int64_array()));
    case Type::kFloat64Array:
      return PackWriter::array_at(p, std::span(as_float64_array()));
  }
  return p;
}

void Node::pack(PackWriter& out, std::size_t size) const {
  std::byte* p = out.room(size);
  check(pack_into(p) == p + size,
        "Node::pack: packed_size out of sync with encoder");
}

void Node::pack(std::vector<std::byte>& out) const {
  pack(out, packed_size());
}

void Node::pack(std::vector<std::byte>& out, std::size_t size) const {
  PackWriter writer(out, size);
  pack(writer, size);
}

std::vector<std::byte> Node::pack() const {
  std::vector<std::byte> out;
  pack(out);
  return out;
}

void Node::unpack_into(Node& node, std::span<const std::byte> buffer,
                       std::size_t& offset, std::size_t depth) {
  if (depth > kMaxDepth) throw soma::LookupError("Node::unpack: too deep");
  bytes::ByteReader reader(buffer, offset, "Node::unpack");
  switch (static_cast<Tag>(reader.u8())) {
    case Tag::kEmpty:
      break;
    case Tag::kObject: {
      // Each child takes at least a name length and a tag (5 B).
      const std::uint32_t n = reader.count(5);
      // Reserved up front, so `c` stays put while its subtree decodes.
      Children& children = node.value_.emplace<Children>();
      children.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        Child& c = children.emplace_back(Text(reader.text()));
        unpack_into(c.node, buffer, offset, depth + 1);
      }
      node.merge_repeated_children();
      break;
    }
    case Tag::kInt64:
      node.value_ = static_cast<std::int64_t>(reader.u64());
      break;
    case Tag::kFloat64:
      node.value_ = reader.f64();
      break;
    case Tag::kString:
      node.value_.emplace<Text>(reader.text());
      break;
    case Tag::kInt64Array:
      node.value_ = reader.words<std::int64_t>();
      break;
    case Tag::kFloat64Array:
      node.value_ = reader.words<double>();
      break;
    default:
      throw soma::LookupError("Node::unpack: unknown tag");
  }
}

void Node::merge_repeated_children() {
  Children& children = std::get<Children>(value_);
  const std::size_t n = children.size();
  if (n < 2) return;
  // Distinct name hashes prove distinct names. Sorting them costs
  // O(n log n) and needs no index kept on the node.
  std::vector<std::size_t> hashes(n);
  for (std::size_t i = 0; i < n; ++i) {
    hashes[i] = std::hash<std::string_view>{}(children[i].name.view());
  }
  std::ranges::sort(hashes);
  if (std::ranges::adjacent_find(hashes) == hashes.end()) return;

  // A hash tie: find the real repeats by sorting positions by name. The
  // sort is stable, so each run of equal names lists its positions in
  // order: the first keeps its place and takes the last one's value.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::ranges::stable_sort(order, std::less<>{},
                           [&children](std::size_t i) {
                             return children[i].name.view();
                           });
  std::vector<char> drop(n, 0);
  for (std::size_t run = 0; run < n;) {
    std::size_t end = run + 1;
    while (end < n &&
           children[order[end]].name == children[order[run]].name) {
      drop[order[end++]] = 1;
    }
    if (end - run > 1) {
      children[order[run]].node = std::move(children[order[end - 1]].node);
    }
    run = end;
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (drop[i] != 0) continue;
    if (kept != i) children[kept] = std::move(children[i]);
    ++kept;
  }
  children.erase(children.begin() + static_cast<std::ptrdiff_t>(kept),
                 children.end());
}

Node Node::unpack_at(std::span<const std::byte> buffer, std::size_t& offset,
                     std::size_t depth) {
  Node node;
  unpack_into(node, buffer, offset, depth);
  return node;
}

Node Node::unpack(std::span<const std::byte> buffer) {
  std::size_t offset = 0;
  Node node;
  unpack_into(node, buffer, offset, 0);
  if (offset != buffer.size()) {
    throw soma::LookupError("Node::unpack: trailing bytes");
  }
  return node;
}

}  // namespace soma::datamodel
