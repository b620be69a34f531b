#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file json.hpp
/// Minimal dependency-free JSON reader/writer, and the one place in the
/// tree that knows JSON punctuation: every document the program emits --
/// flow results (core/serialize), run reports (core/instrument), stage-cache
/// and fault counters, request and search-spec wire forms, and every daemon
/// and fleet response line -- is built from the writer below, never from
/// hand-placed quote/brace/comma fragments.
///
/// The writer emits canonical single-line JSON: numbers via %.17g (doubles
/// round-trip exactly through strtod, so serialize -> parse -> re-serialize
/// is byte-identical), object keys in emission order, no whitespace. The
/// parser keeps number tokens verbatim so a parsed document can be
/// interrogated as integer or double without precision loss.

namespace gia::core::json {

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind = Kind::Null;
  bool b = false;
  std::string raw;  ///< number token, verbatim
  std::string str;
  std::vector<Value> arr;
  std::vector<std::pair<std::string, Value>> obj;

  /// Object member access; throws std::runtime_error when missing.
  const Value& at(const std::string& key) const;
  /// Object member lookup; nullptr when missing (optional fields).
  const Value* find(const std::string& key) const;

  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  double as_double() const;
  bool as_bool() const { return b; }
};

/// Bounds applied while parsing untrusted input. The defaults accept every
/// document this library emits; the serving layer tightens them per request.
struct ParseLimits {
  /// Maximum container nesting. Recursion is one frame per level, so this
  /// also bounds parser stack use (a `[[[[...` bomb fails at this depth
  /// with a parse error instead of overflowing the stack).
  std::size_t max_depth = 128;
  /// Maximum document size in bytes (0 = unlimited).
  std::size_t max_bytes = 64u << 20;
};

/// Parse a complete JSON document. Throws std::runtime_error (with byte
/// offset) on malformed input, trailing characters, or a violated limit.
/// Number tokens must match the strict JSON grammar: `1e`, `-`, `.5` and
/// `01` are rejected with the offset of the offending byte.
Value parse(const std::string& text);
Value parse(const std::string& text, const ParseLimits& limits);

/// Append `"s"` with standard JSON escaping.
void escape(std::string_view s, std::string& out);

void append_u64(std::uint64_t v, std::string& out);
void append_i64(std::int64_t v, std::string& out);
/// Shortest-exact double formatting (%.17g): strtod(output) == v.
void append_double(double v, std::string& out);
void append_bool(bool v, std::string& out);

// --- Writer. The helpers append to a caller-owned string and place their
// own separators: a key, a value or an opening bracket is preceded by a
// comma unless `out` is empty or ends in '{', '[' or ':'. Keyed helpers
// (`put_*`, `open(out, k)`) write an object member; the unkeyed ones write
// an array element or a top-level value.
//
//   std::string out;
//   json::open(out);                   // {
//   json::put_u(out, "hits", 3);       // "hits":3
//   json::open(out, "stage");          // ,"stage":{
//   json::put_b(out, "ok", true);      // "ok":true
//   json::close(out);                  // }
//   json::close(out);                  // }

/// `"k":` (with its separator); the next value completes the member.
void key(std::string& out, std::string_view k);
void open(std::string& out);                    ///< {
void open(std::string& out, std::string_view k);  ///< "k":{
void close(std::string& out);                   ///< }
void open_array(std::string& out);                    ///< [
void open_array(std::string& out, std::string_view k);  ///< "k":[
void close_array(std::string& out);                   ///< ]

void put_u(std::string& out, std::string_view k, std::uint64_t v);
void put_i(std::string& out, std::string_view k, std::int64_t v);
void put_d(std::string& out, std::string_view k, double v);
void put_b(std::string& out, std::string_view k, bool v);
void put_s(std::string& out, std::string_view k, std::string_view v);
void put_null(std::string& out, std::string_view k);
/// Member whose value is an already rendered JSON document.
void put_raw(std::string& out, std::string_view k, std::string_view json);

void item_d(std::string& out, double v);
void item_s(std::string& out, std::string_view v);

/// Re-serialize a parsed document in canonical single-line form (number
/// tokens verbatim, so nothing is lost), as a value at the current position.
void write(const Value& v, std::string& out);

}  // namespace gia::core::json
