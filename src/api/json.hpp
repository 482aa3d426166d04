// Minimal JSON value model for the key-delivery API layer.
//
// The API subsystem needs exactly one serialization format - the
// ETSI GS QKD 014 local delivery API is JSON-over-HTTP - and the repo
// bakes in no third-party JSON dependency, so this is a small, strict
// implementation: an immutable-ish tagged value (null / bool / int64 /
// double / string / array / object), a recursive-descent parser, and a
// deterministic serializer (object keys sorted, so dumps are stable for
// tests and logs). Integers are kept distinct from doubles: key/bit
// counters are 64-bit and must not round-trip through a double mantissa.
//
// Built for the per-request delivery path, where every enc_keys/dec_keys
// call parses one document and dumps another:
//   * An object is one key-sorted vector of (key, value) fields - one
//     allocation per object instead of one tree node per field. Lookups
//     are a binary search; set() appends in O(1) when keys arrive in
//     order, which they do from dump() output and from every DTO
//     to_json(). Duplicate keys keep the last value, as before.
//   * The parser and the serializer move runs of unescaped string bytes
//     with one append each, and dump() writes into one pre-reserved
//     buffer.
//   * The DTO envelopes (api/dtos.hpp) move the body between the document
//     and the envelope instead of deep-copying it:
//     Request/Response::from_json(Json) take the document by value and
//     to_json() && consumes the envelope; the dispatcher's serialized path
//     uses both.
//
// Parsing failures throw qkdpp::Error{kSerialization} - the same taxonomy
// the wire-protocol codecs use - and the dispatcher maps them to an
// HTTP-like 400.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace qkdpp::api {

class Json {
 public:
  using Array = std::vector<Json>;
  // Fields sorted by key, keys unique: dump() output is deterministic
  // regardless of insertion order, which the round-trip tests and bench
  // JSON tails rely on, and at()/find() binary-search by string_view
  // without materializing a key string per field access.
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(std::int64_t i) : value_(i) {}
  Json(std::uint64_t u) : value_(static_cast<std::int64_t>(u)) {}
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}
  Json(double d) : value_(d) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(std::string_view s) : value_(std::string(s)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  /// Sorts the fields by key; of repeated keys the last one wins.
  Json(Object o);

  static Json object() { return Json(Object{}); }
  static Json array() { return Json(Array{}); }

  /// Strict parse of a complete JSON document (trailing garbage is an
  /// error). Throws Error{kSerialization} on malformed input or nesting
  /// deeper than an internal limit.
  static Json parse(std::string_view text);

  bool is_null() const noexcept { return holds<std::nullptr_t>(); }
  bool is_bool() const noexcept { return holds<bool>(); }
  bool is_int() const noexcept { return holds<std::int64_t>(); }
  bool is_double() const noexcept { return holds<double>(); }
  bool is_number() const noexcept { return is_int() || is_double(); }
  bool is_string() const noexcept { return holds<std::string>(); }
  bool is_array() const noexcept { return holds<Array>(); }
  bool is_object() const noexcept { return holds<Object>(); }

  /// Checked accessors: throw Error{kSerialization} on a type mismatch
  /// (the caller is decoding untrusted input; a mismatch is a malformed
  /// request, not a programming error).
  bool as_bool() const;
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;  ///< as_int, rejecting negatives
  double as_double() const;       ///< any number, widened
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Mutable string access, so a consumed document can move its strings
  /// out instead of copying them.
  std::string& as_string();

  /// Object field lookup; throws on non-objects or a missing key.
  const Json& at(std::string_view key) const;
  Json& at(std::string_view key);
  /// Object field lookup returning nullptr when absent (optional fields).
  const Json* find(std::string_view key) const;
  Json* find(std::string_view key);
  /// Object field assignment (creates the object value if null). The
  /// returned reference is invalidated by the next set() on this object.
  Json& set(std::string_view key, Json value);
  /// Array append (creates the array value if null).
  void push_back(Json value);
  /// Room for `count` fields or elements of an object or array.
  void reserve(std::size_t count);

  std::size_t size() const;

  /// Compact serialization (no whitespace), deterministic key order.
  std::string dump() const;

  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  template <typename T>
  bool holds() const noexcept {
    return std::holds_alternative<T>(value_);
  }
  void dump_to(std::string& out) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               Array, Object>
      value_;
};

}  // namespace qkdpp::api
