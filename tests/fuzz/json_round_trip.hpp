// The dump -> parse round-trip rule shared by the JSON fuzz target and the
// unit-test corpus: the document read back from dump() equals the original
// exactly (an int stays an int, a double stays a double, -0.0 keeps its
// sign), and its own dump is stable from then on.
#pragma once

#include <string>

#include "api/json.hpp"

namespace qkdpp::api::json_check {

/// True when `json` (finite numbers only) survives dump -> parse exactly
/// and the dump of what was read back is a fixed point of dump -> parse.
inline bool dump_round_trips(const Json& json) {
  const std::string wire = json.dump();
  const Json again = Json::parse(wire);
  return again == json && again.dump() == wire;
}

}  // namespace qkdpp::api::json_check
