#include "api/json.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <iterator>
#include <utility>

#include "common/error.hpp"

namespace qkdpp::api {

namespace {

[[noreturn]] void malformed(const std::string& what) {
  throw_error(ErrorCode::kSerialization, "json: " + what);
}

/// A string byte that stands for itself in JSON text: not the closing
/// quote, not an escape, not a control character.
bool is_plain_string_byte(char c) {
  return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Keys strictly ascending: sorted, no repeats.
bool is_canonical(const Json::Object& object) {
  return std::adjacent_find(object.begin(), object.end(),
                            [](const auto& a, const auto& b) {
                              return a.first >= b.first;
                            }) == object.end();
}

/// First field whose key is not less than `key`.
template <typename Fields>
auto lower_bound_key(Fields& object, std::string_view key) {
  return std::lower_bound(
      object.begin(), object.end(), key,
      [](const auto& field, std::string_view k) { return field.first < k; });
}

template <typename Fields>
auto* find_field(Fields& object, std::string_view key) {
  const auto it = lower_bound_key(object, key);
  return it != object.end() && it->first == key ? &it->second : nullptr;
}

/// Recursive-descent parser over a string_view cursor. Strict JSON
/// (RFC 8259): no comments, no trailing commas, UTF-16 escapes decoded
/// to UTF-8. Depth-limited so adversarial nesting cannot blow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) malformed("trailing characters after document");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;
  static constexpr std::size_t kObjectReserve = 4;

  /// Shadows the file-scope malformed(): every parse error names the byte
  /// offset the cursor died at, so a client staring at a 400 can find the
  /// broken spot in its own request instead of re-bisecting the payload.
  [[noreturn]] void malformed(const std::string& what) const {
    throw_error(ErrorCode::kSerialization,
                "json: " + what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) malformed("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      malformed(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) malformed("nesting too deep");
    skip_ws();
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        malformed("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        malformed("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        malformed("bad literal");
      default: return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json::Object object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    // Every API object has at most four fields but the status body: one
    // allocation instead of growing 1 -> 2 -> 4.
    object.reserve(kObjectReserve);
    while (true) {
      skip_ws();
      if (peek() != '"') malformed("object key must be a string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      Json value = parse_value(depth + 1);
      object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return Json(std::move(object));
      if (c != ',') malformed("expected ',' or '}' in object");
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json::Array array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    while (true) {
      array.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return Json(std::move(array));
      if (c != ',') malformed("expected ',' or ']' in array");
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) malformed("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        malformed("bad hex digit in \\u escape");
      }
    }
    return value;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // One append per run of bytes that need no decoding.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && is_plain_string_byte(text_[pos_])) {
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) malformed("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') malformed("unescaped control character in string");
      if (pos_ >= text_.size()) malformed("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              malformed("unpaired surrogate");
            }
            pos_ += 2;
            const std::uint32_t low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) malformed("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            malformed("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: malformed("bad escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t digits_start = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    if (pos_ == digits_start) malformed("bad number");
    // Leading zeros are invalid JSON ("01"), a single "0" is fine.
    if (pos_ - digits_start > 1 && text_[digits_start] == '0') {
      malformed("leading zero in number");
    }
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      const std::size_t frac_start = pos_;
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
      if (pos_ == frac_start) malformed("bad fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      const std::size_t exp_start = pos_;
      while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
      if (pos_ == exp_start) malformed("bad exponent");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (!is_double) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return Json(value);
      }
      // Integer overflow: fall through to double like other parsers do.
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      malformed("unparseable number");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dump_string(std::string_view s, std::string& out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (is_plain_string_byte(c)) continue;  // UTF-8 passes through verbatim
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        const char escape[] = {'\\', 'u', '0', '0', kHex[byte >> 4],
                               kHex[byte & 0xF]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

}  // namespace

Json::Json(Object o) {
  if (!is_canonical(o)) {
    // Stable, so repeated keys stay in arrival order; keep the last of each.
    std::stable_sort(o.begin(), o.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    auto kept = o.begin();
    for (auto it = o.begin(); it != o.end(); ++it) {
      const auto next = std::next(it);
      if (next != o.end() && next->first == it->first) continue;
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
    o.erase(kept, o.end());
  }
  value_ = std::move(o);
}

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

bool Json::as_bool() const {
  if (!is_bool()) malformed("expected bool");
  return std::get<bool>(value_);
}

std::int64_t Json::as_int() const {
  if (!is_int()) malformed("expected integer");
  return std::get<std::int64_t>(value_);
}

std::uint64_t Json::as_uint() const {
  const std::int64_t value = as_int();
  if (value < 0) malformed("expected non-negative integer");
  return static_cast<std::uint64_t>(value);
}

double Json::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(value_));
  if (!is_double()) malformed("expected number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  if (!is_string()) malformed("expected string");
  return std::get<std::string>(value_);
}

std::string& Json::as_string() {
  return const_cast<std::string&>(std::as_const(*this).as_string());
}

const Json::Array& Json::as_array() const {
  if (!is_array()) malformed("expected array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  if (!is_object()) malformed("expected object");
  return std::get<Object>(value_);
}

const Json& Json::at(std::string_view key) const {
  const Json* field = find_field(as_object(), key);
  if (!field) malformed("missing field '" + std::string(key) + "'");
  return *field;
}

Json& Json::at(std::string_view key) {
  return const_cast<Json&>(std::as_const(*this).at(key));
}

const Json* Json::find(std::string_view key) const {
  return is_object() ? find_field(std::get<Object>(value_), key) : nullptr;
}

Json* Json::find(std::string_view key) {
  return const_cast<Json*>(std::as_const(*this).find(key));
}

Json& Json::set(std::string_view key, Json value) {
  if (is_null()) value_ = Object{};
  if (!is_object()) malformed("set() on non-object");
  auto& object = std::get<Object>(value_);
  // Keys arriving in order (every to_json(), any dump() output) append.
  if (object.empty() || object.back().first < key) {
    return object.emplace_back(std::string(key), std::move(value)).second;
  }
  const auto it = lower_bound_key(object, key);
  if (it->first == key) return it->second = std::move(value);
  return object.emplace(it, std::string(key), std::move(value))->second;
}

void Json::push_back(Json value) {
  if (is_null()) value_ = Array{};
  if (!is_array()) malformed("push_back() on non-array");
  std::get<Array>(value_).push_back(std::move(value));
}

void Json::reserve(std::size_t count) {
  if (is_array()) {
    std::get<Array>(value_).reserve(count);
  } else if (is_object()) {
    std::get<Object>(value_).reserve(count);
  } else {
    malformed("reserve() on non-container");
  }
}

std::size_t Json::size() const {
  if (is_array()) return std::get<Array>(value_).size();
  if (is_object()) return std::get<Object>(value_).size();
  malformed("size() on non-container");
}

void Json::dump_to(std::string& out) const {
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += std::get<bool>(value_) ? "true" : "false";
  } else if (is_int()) {
    std::array<char, 24> buf;
    const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(),
                                         std::get<std::int64_t>(value_));
    out.append(buf.data(), ptr);
  } else if (is_double()) {
    const double value = std::get<double>(value_);
    if (!std::isfinite(value)) {
      malformed("cannot serialize non-finite number");
    }
    std::array<char, 32> buf;
    const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(),
                                         value);
    const std::string_view text(buf.data(),
                                static_cast<std::size_t>(ptr - buf.data()));
    out += text;
    // The shortest form of an integral double ("1", "-0", "60000") would
    // read back as an integer; a fraction keeps it a double.
    if (text.find_first_of(".e") == std::string_view::npos) out += ".0";
  } else if (is_string()) {
    dump_string(std::get<std::string>(value_), out);
  } else if (is_array()) {
    out.push_back('[');
    const auto& array = std::get<Array>(value_);
    for (std::size_t i = 0; i < array.size(); ++i) {
      if (i) out.push_back(',');
      array[i].dump_to(out);
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    const auto& object = std::get<Object>(value_);
    bool first = true;
    for (const auto& [key, value] : object) {
      if (!first) out.push_back(',');
      first = false;
      dump_string(key, out);
      out.push_back(':');
      value.dump_to(out);
    }
    out.push_back('}');
  }
}

// Covers a key-delivery response (about 150 bytes for one key) in one
// allocation; larger documents grow the buffer geometrically.
constexpr std::size_t kDumpReserve = 256;

std::string Json::dump() const {
  std::string out;
  out.reserve(kDumpReserve);
  dump_to(out);
  return out;
}

}  // namespace qkdpp::api
