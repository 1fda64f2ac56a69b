// JSON parsing for the data model: the inverse of Node::to_json for the
// subset of JSON the data model can represent (null, integers, doubles,
// strings, homogeneous numeric arrays, objects). Used by the store
// import/export path.
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "datamodel/node.hpp"

namespace soma::datamodel {
namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Node parse() {
    Node node = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON value");
    }
    return node;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw soma::LookupError("Node::parse_json: " + why + " at offset " +
                            std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    skip_whitespace();
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("dangling escape");
        const char escape = text_[pos_++];
        switch (escape) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          default: fail("unsupported escape sequence");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  /// Parse a number; sets exactly one of the outputs.
  void parse_number(bool& is_integer, std::int64_t& as_int,
                    double& as_double) {
    skip_whitespace();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool has_fraction = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        has_fraction = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a number");
    const std::string token(text_.substr(start, pos_ - start));
    if (!has_fraction) {
      is_integer = true;
      as_int = std::strtoll(token.c_str(), nullptr, 10);
    } else {
      is_integer = false;
      as_double = std::strtod(token.c_str(), nullptr);
    }
  }

  Node parse_array() {
    expect('[');
    // The data model only represents homogeneous numeric arrays; promote to
    // float64[] as soon as any element is fractional.
    std::vector<std::int64_t> ints;
    std::vector<double> doubles;
    bool all_integers = true;
    if (peek() == ']') {
      ++pos_;
      Node node;
      node.set(std::vector<std::int64_t>{});
      return node;
    }
    while (true) {
      bool is_integer = false;
      std::int64_t as_int = 0;
      double as_double = 0.0;
      parse_number(is_integer, as_int, as_double);
      if (is_integer) {
        ints.push_back(as_int);
        doubles.push_back(static_cast<double>(as_int));
      } else {
        all_integers = false;
        doubles.push_back(as_double);
      }
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == ']') {
        ++pos_;
        break;
      }
      fail("expected ',' or ']' in array");
    }
    Node node;
    if (all_integers) {
      node.set(std::move(ints));
    } else {
      node.set(std::move(doubles));
    }
    return node;
  }

  Node parse_object(std::size_t depth) {
    expect('{');
    Node node;
    if (peek() == '}') {
      ++pos_;
      // An empty JSON object round-trips as an empty node.
      return node;
    }
    while (true) {
      const std::string key = parse_string();
      expect(':');
      node.child(key) = parse_value(depth + 1);
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == '}') {
        ++pos_;
        break;
      }
      fail("expected ',' or '}' in object");
    }
    return node;
  }

  Node parse_value(std::size_t depth) {
    if (depth > Node::kMaxDepth) fail("nesting too deep");
    const char c = peek();
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array();
    if (c == '"') {
      Node node;
      node.set(parse_string());
      return node;
    }
    if (consume_literal("null")) return Node{};
    bool is_integer = false;
    std::int64_t as_int = 0;
    double as_double = 0.0;
    parse_number(is_integer, as_int, as_double);
    Node node;
    if (is_integer) {
      node.set(as_int);
    } else {
      node.set(as_double);
    }
    return node;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Node Node::parse_json(std::string_view json) {
  return JsonParser(json).parse();
}

}  // namespace soma::datamodel
