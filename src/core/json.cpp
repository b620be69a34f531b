#include "core/json.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace gia::core::json {

const Value& Value::at(const std::string& key) const {
  for (const auto& [k, v] : obj) {
    if (k == key) return v;
  }
  throw std::runtime_error("JSON: missing key \"" + key + "\"");
}

const Value* Value::find(const std::string& key) const {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::uint64_t Value::as_u64() const { return std::strtoull(raw.c_str(), nullptr, 10); }
std::int64_t Value::as_i64() const { return std::strtoll(raw.c_str(), nullptr, 10); }
double Value::as_double() const { return std::strtod(raw.c_str(), nullptr); }

namespace {

class Parser {
 public:
  Parser(const std::string& s, const ParseLimits& limits) : s_(s), limits_(limits) {}

  Value parse() {
    if (limits_.max_bytes != 0 && s_.size() > limits_.max_bytes) fail("document too large");
    Value v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("JSON: ") + what + " at offset " +
                             std::to_string(pos_));
  }
  void enter() {
    if (++depth_ > limits_.max_depth) fail("nesting too deep");
  }
  void leave() { --depth_; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  Value value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      Value v;
      v.kind = Value::Kind::String;
      v.str = string();
      return v;
    }
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      if (s_.compare(pos_, 4, "null") != 0) fail("bad literal");
      pos_ += 4;
      return Value{};
    }
    return number();
  }

  Value object() {
    expect('{');
    enter();
    Value v;
    v.kind = Value::Kind::Object;
    if (peek() == '}') {
      ++pos_;
      leave();
      return v;
    }
    for (;;) {
      std::string key = string();
      expect(':');
      v.obj.emplace_back(std::move(key), value());
      const char c = peek();
      ++pos_;
      if (c == '}') {
        leave();
        return v;
      }
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Value array() {
    expect('[');
    enter();
    Value v;
    v.kind = Value::Kind::Array;
    if (peek() == ']') {
      ++pos_;
      leave();
      return v;
    }
    for (;;) {
      v.arr.push_back(value());
      const char c = peek();
      ++pos_;
      if (c == ']') {
        leave();
        return v;
      }
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            const std::string hex = s_.substr(pos_, 4);
            pos_ += 4;
            out.push_back(static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16)));
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out.push_back(c);
      }
    }
    fail("unterminated string");
  }

  Value boolean() {
    Value v;
    v.kind = Value::Kind::Bool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.b = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.b = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  bool digit_at(std::size_t p) const {
    return p < s_.size() && std::isdigit(static_cast<unsigned char>(s_[p]));
  }

  /// Strict JSON number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  /// Malformed literals (`1e`, `-`, `.5`, `01`) fail at the offending byte.
  Value number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    if (!digit_at(pos_)) fail("expected digit in number");
    if (s_[pos_] == '0') {
      ++pos_;
      if (digit_at(pos_)) fail("leading zero in number");
    } else {
      while (digit_at(pos_)) ++pos_;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (!digit_at(pos_)) fail("expected digit after '.'");
      while (digit_at(pos_)) ++pos_;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!digit_at(pos_)) fail("expected digit in exponent");
      while (digit_at(pos_)) ++pos_;
    }
    Value v;
    v.kind = Value::Kind::Number;
    v.raw = s_.substr(start, pos_ - start);
    return v;
  }

  const std::string& s_;
  const ParseLimits limits_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text, ParseLimits()).parse(); }

Value parse(const std::string& text, const ParseLimits& limits) {
  return Parser(text, limits).parse();
}

void escape(std::string_view s, std::string& out) {
  out.push_back('"');
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  out.push_back('"');
}

void append_u64(std::uint64_t v, std::string& out) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_i64(std::int64_t v, std::string& out) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out += buf;
}

void append_double(double v, std::string& out) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_bool(bool v, std::string& out) { out += v ? "true" : "false"; }

namespace {

/// The writer's only comma rule: nothing separates a value from the
/// bracket that opens its container or from the colon of its key.
void sep(std::string& out) {
  if (out.empty()) return;
  const char c = out.back();
  if (c != '{' && c != '[' && c != ':') out.push_back(',');
}

}  // namespace

void key(std::string& out, std::string_view k) {
  sep(out);
  escape(k, out);
  out.push_back(':');
}

void open(std::string& out) {
  sep(out);
  out.push_back('{');
}

void open(std::string& out, std::string_view k) {
  key(out, k);
  out.push_back('{');
}

void close(std::string& out) { out.push_back('}'); }

void open_array(std::string& out) {
  sep(out);
  out.push_back('[');
}

void open_array(std::string& out, std::string_view k) {
  key(out, k);
  out.push_back('[');
}

void close_array(std::string& out) { out.push_back(']'); }

void put_u(std::string& out, std::string_view k, std::uint64_t v) {
  key(out, k);
  append_u64(v, out);
}

void put_i(std::string& out, std::string_view k, std::int64_t v) {
  key(out, k);
  append_i64(v, out);
}

void put_d(std::string& out, std::string_view k, double v) {
  key(out, k);
  append_double(v, out);
}

void put_b(std::string& out, std::string_view k, bool v) {
  key(out, k);
  append_bool(v, out);
}

void put_s(std::string& out, std::string_view k, std::string_view v) {
  key(out, k);
  escape(v, out);
}

void put_null(std::string& out, std::string_view k) {
  key(out, k);
  out += "null";
}

void put_raw(std::string& out, std::string_view k, std::string_view json) {
  key(out, k);
  out += json;
}

void item_d(std::string& out, double v) {
  sep(out);
  append_double(v, out);
}

void item_s(std::string& out, std::string_view v) {
  sep(out);
  escape(v, out);
}

void write(const Value& v, std::string& out) {
  switch (v.kind) {
    case Value::Kind::Null:
      sep(out);
      out += "null";
      break;
    case Value::Kind::Bool:
      sep(out);
      append_bool(v.b, out);
      break;
    case Value::Kind::Number:
      sep(out);
      out += v.raw;
      break;
    case Value::Kind::String: item_s(out, v.str); break;
    case Value::Kind::Array:
      open_array(out);
      for (const Value& e : v.arr) write(e, out);
      close_array(out);
      break;
    case Value::Kind::Object:
      open(out);
      for (const auto& [k, e] : v.obj) {
        key(out, k);
        write(e, out);
      }
      close(out);
      break;
  }
}

}  // namespace gia::core::json
