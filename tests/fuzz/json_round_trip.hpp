// The dump -> parse round-trip rule shared by the JSON fuzz target and the
// unit-test corpus.
//
// dump() writes the shortest text for a double, so a double with an
// integral value loses its fraction ("1.0" -> "1", "6e4" -> "60000",
// "-0.0" -> "-0") and reads back as the integer of the same value; "-0"
// then reads back as 0. So the rule is: the value read back from dump()
// equals the original, with numbers compared by value, and its own dump
// is stable from then on.
#pragma once

#include <cstddef>
#include <string>

#include "api/json.hpp"

namespace qkdpp::api::json_check {

inline bool is_number(const Json& json) {
  return json.is_int() || json.is_double();
}

/// Equality with an int and a double equal when their values are.
inline bool same_value(const Json& a, const Json& b) {
  if (a.is_double() || b.is_double()) {
    return is_number(a) && is_number(b) && a.as_double() == b.as_double();
  }
  if (a.is_array() && b.is_array()) {
    const auto& left = a.as_array();
    const auto& right = b.as_array();
    if (left.size() != right.size()) return false;
    for (std::size_t i = 0; i < left.size(); ++i) {
      if (!same_value(left[i], right[i])) return false;
    }
    return true;
  }
  if (a.is_object() && b.is_object()) {
    const auto& left = a.as_object();
    const auto& right = b.as_object();
    if (left.size() != right.size()) return false;
    for (std::size_t i = 0; i < left.size(); ++i) {
      if (left[i].first != right[i].first ||
          !same_value(left[i].second, right[i].second)) {
        return false;
      }
    }
    return true;
  }
  return a == b;
}

/// True when `json` (finite numbers only) survives dump -> parse by value
/// and the dump of what was read back is a fixed point of dump -> parse.
inline bool dump_round_trips(const Json& json) {
  const Json again = Json::parse(json.dump());
  const std::string wire = again.dump();
  return same_value(again, json) && Json::parse(wire).dump() == wire;
}

}  // namespace qkdpp::api::json_check
