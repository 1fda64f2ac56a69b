#include "datamodel/node.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

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

void json_escape(const std::string& in, std::ostringstream& out) {
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
    std::snprintf(buffer, sizeof(buffer), "%.17g", v);
    out << buffer;
  } else {
    out << "null";
  }
}

// ---- binary wire helpers ----

enum class Tag : std::uint8_t {
  kEmpty = 0,
  kObject = 1,
  kInt64 = 2,
  kFloat64 = 3,
  kString = 4,
  kInt64Array = 5,
  kFloat64Array = 6,
};

// Raw little-endian stores into a pre-sized buffer (pack() resizes once to
// the exact packed_size, then writes through a bare pointer — no per-byte
// capacity checks).

std::byte* store_u32(std::byte* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
  return p + 4;
}

std::byte* store_u64(std::byte* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
  return p + 8;
}

std::byte* store_f64(std::byte* p, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return store_u64(p, bits);
}

std::byte* store_string(std::byte* p, const std::string& s) {
  p = store_u32(p, static_cast<std::uint32_t>(s.size()));
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

class Reader {
 public:
  Reader(std::span<const std::byte> buffer, std::size_t& offset)
      : buffer_(buffer), offset_(offset) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(buffer_[offset_++]);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(buffer_[offset_++]) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(buffer_[offset_++]) << (8 * i);
    }
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  /// A u32 element count, rejected if `min_bytes` per element cannot fit in
  /// the bytes left (so a reserve sized from it is bounded by the buffer).
  std::uint32_t count(std::size_t min_bytes) {
    const std::uint32_t n = u32();
    if (n > (buffer_.size() - offset_) / min_bytes) {
      throw soma::LookupError("Node::unpack: count exceeds buffer");
    }
    return n;
  }
  std::string string() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(n, '\0');
    std::memcpy(s.data(), buffer_.data() + offset_, n);
    offset_ += n;
    return s;
  }

 private:
  void need(std::size_t n) const {
    if (offset_ + n > buffer_.size()) {
      throw soma::LookupError("Node::unpack: truncated buffer");
    }
  }
  std::span<const std::byte> buffer_;
  std::size_t& offset_;
};

}  // namespace

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
  if (!children_.empty()) return Type::kObject;
  switch (value_.index()) {
    case 0: return Type::kEmpty;
    case 1: return Type::kInt64;
    case 2: return Type::kFloat64;
    case 3: return Type::kString;
    case 4: return Type::kInt64Array;
    case 5: return Type::kFloat64Array;
  }
  return Type::kEmpty;
}

void Node::reset() {
  value_ = std::monostate{};
  children_.clear();
}

void Node::set(std::int64_t value) {
  children_.clear();
  value_ = value;
}
void Node::set(double value) {
  children_.clear();
  value_ = value;
}
void Node::set(std::string value) {
  children_.clear();
  value_ = std::move(value);
}
void Node::set(std::vector<std::int64_t> values) {
  children_.clear();
  value_ = std::move(values);
}
void Node::set(std::vector<double> values) {
  children_.clear();
  value_ = std::move(values);
}

std::int64_t Node::as_int64() const {
  if (const auto* v = std::get_if<std::int64_t>(&value_)) return *v;
  type_error("int64", type());
}
double Node::as_float64() const {
  if (const auto* v = std::get_if<double>(&value_)) return *v;
  type_error("float64", type());
}
const std::string& Node::as_string() const {
  if (const auto* v = std::get_if<std::string>(&value_)) return *v;
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

Node& Node::child(std::string_view name) {
  if (Node* existing = find_child(name)) return *existing;
  // Becoming an object discards any leaf value this node held.
  value_ = std::monostate{};
  return children_.emplace_back(Child{std::string(name), Node{}}).node;
}

const Node* Node::find_child(std::string_view name) const {
  for (const Child& c : children_) {
    if (c.name == name) return &c.node;
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

bool Node::remove_child(std::string_view name) {
  const auto it = std::ranges::find(children_, name, &Child::name);
  if (it == children_.end()) return false;
  children_.erase(it);
  return true;
}

const Node& Node::child_at(std::size_t index) const {
  check(index < children_.size(), "child_at: index out of range");
  return children_[index].node;
}

Node& Node::child_at(std::size_t index) {
  check(index < children_.size(), "child_at: index out of range");
  return children_[index].node;
}

void Node::update(const Node& other) {
  if (other.is_object()) {
    for (const Child& c : other.children_) child(c.name).update(c.node);
  } else if (!other.is_empty()) {
    value_ = other.value_;
    children_.clear();
  }
}

bool Node::operator==(const Node& other) const {
  if (value_ != other.value_) return false;
  if (children_.size() != other.children_.size()) return false;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (children_[i].name != other.children_[i].name) return false;
    if (!(children_[i].node == other.children_[i].node)) return false;
  }
  return true;
}

std::size_t Node::leaf_count() const {
  if (is_leaf()) return 1;
  std::size_t total = 0;
  for (const Child& c : children_) total += c.node.leaf_count();
  return total;
}

std::size_t Node::packed_size() const {
  std::size_t total = 1;  // tag
  switch (type()) {
    case Type::kEmpty:
      break;
    case Type::kObject:
      total += 4;
      for (const Child& c : children_) {
        total += 4 + c.name.size() + c.node.packed_size();
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
  const std::string pad =
      indent > 0 ? "\n" + std::string(static_cast<std::size_t>(indent) *
                                          static_cast<std::size_t>(depth + 1),
                                      ' ')
                 : "";
  const std::string close_pad =
      indent > 0 ? "\n" + std::string(static_cast<std::size_t>(indent) *
                                          static_cast<std::size_t>(depth),
                                      ' ')
                 : "";
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

std::byte* Node::pack_into(std::byte* p) const {
  switch (type()) {
    case Type::kEmpty:
      *p++ = static_cast<std::byte>(Tag::kEmpty);
      break;
    case Type::kObject:
      *p++ = static_cast<std::byte>(Tag::kObject);
      p = store_u32(p, static_cast<std::uint32_t>(children_.size()));
      for (const Child& c : children_) {
        p = store_string(p, c.name);
        p = c.node.pack_into(p);
      }
      break;
    case Type::kInt64:
      *p++ = static_cast<std::byte>(Tag::kInt64);
      p = store_u64(p, static_cast<std::uint64_t>(as_int64()));
      break;
    case Type::kFloat64:
      *p++ = static_cast<std::byte>(Tag::kFloat64);
      p = store_f64(p, as_float64());
      break;
    case Type::kString:
      *p++ = static_cast<std::byte>(Tag::kString);
      p = store_string(p, as_string());
      break;
    case Type::kInt64Array: {
      *p++ = static_cast<std::byte>(Tag::kInt64Array);
      const auto& values = as_int64_array();
      p = store_u32(p, static_cast<std::uint32_t>(values.size()));
      for (std::int64_t v : values) {
        p = store_u64(p, static_cast<std::uint64_t>(v));
      }
      break;
    }
    case Type::kFloat64Array: {
      *p++ = static_cast<std::byte>(Tag::kFloat64Array);
      const auto& values = as_float64_array();
      p = store_u32(p, static_cast<std::uint32_t>(values.size()));
      for (double v : values) p = store_f64(p, v);
      break;
    }
  }
  return p;
}

void Node::pack(std::vector<std::byte>& out) const {
  const std::size_t size = packed_size();
  const std::size_t base = out.size();
  out.resize(base + size);
  std::byte* end = pack_into(out.data() + base);
  check(end == out.data() + base + size,
        "Node::pack: packed_size out of sync with encoder");
}

std::vector<std::byte> Node::pack() const {
  std::vector<std::byte> out;
  pack(out);
  return out;
}

Node Node::unpack_one(std::span<const std::byte> buffer,
                      std::size_t& offset, std::size_t depth) {
  if (depth > kMaxDepth) throw soma::LookupError("Node::unpack: too deep");
  Reader reader(buffer, offset);
  Node node;
  switch (static_cast<Tag>(reader.u8())) {
    case Tag::kEmpty:
      break;
    case Tag::kObject: {
      // Each child takes at least a name length and a tag (5 B).
      const std::uint32_t n = reader.count(5);
      node.children_.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        std::string name = reader.string();
        // A repeated name keeps its first position and takes the last value.
        node.child(name) = unpack_one(buffer, offset, depth + 1);
      }
      break;
    }
    case Tag::kInt64:
      node.set(static_cast<std::int64_t>(reader.u64()));
      break;
    case Tag::kFloat64:
      node.set(reader.f64());
      break;
    case Tag::kString:
      node.set(reader.string());
      break;
    case Tag::kInt64Array: {
      const std::uint32_t n = reader.count(8);
      std::vector<std::int64_t> values;
      values.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        values.push_back(static_cast<std::int64_t>(reader.u64()));
      }
      node.set(std::move(values));
      break;
    }
    case Tag::kFloat64Array: {
      const std::uint32_t n = reader.count(8);
      std::vector<double> values;
      values.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) values.push_back(reader.f64());
      node.set(std::move(values));
      break;
    }
    default:
      throw soma::LookupError("Node::unpack: unknown tag");
  }
  return node;
}

Node Node::unpack(std::span<const std::byte> buffer) {
  std::size_t offset = 0;
  Node node = unpack_one(buffer, offset, 0);
  if (offset != buffer.size()) {
    throw soma::LookupError("Node::unpack: trailing bytes");
  }
  return node;
}

}  // namespace soma::datamodel
