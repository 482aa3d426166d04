// libFuzzer target for the key-delivery JSON parser, the first code every
// SAE request reaches. Each input is parsed; a document that parses must
// keep the dump -> parse round-trip rule of json_round_trip.hpp (same
// value back, numbers compared by value, and a stable dump from then on).
// A parse failure must be Error{kSerialization}: any other exception
// escapes and libFuzzer reports it as a crash.
//
// Built only by clang (CMake checks that -fsanitize=fuzzer links) into the
// build tree. Run it from the repository root with a writable corpus first
// (libFuzzer writes new inputs there) and the seed wires second:
//   json_parse_fuzz -max_total_time=60 build/fuzz-corpus tests/fuzz/corpus
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string_view>

#include "api/json.hpp"
#include "common/error.hpp"
#include "json_round_trip.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using qkdpp::api::Json;
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  Json json;
  try {
    json = Json::parse(text);
  } catch (const qkdpp::Error& error) {
    if (error.code() != qkdpp::ErrorCode::kSerialization) std::abort();
    return 0;
  }
  // The parser yields only finite numbers, so dump() must not throw here.
  if (!qkdpp::api::json_check::dump_round_trips(json)) std::abort();
  return 0;
}
