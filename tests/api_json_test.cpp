// JSON + DTO tests: strict parser behaviour (malformed input throws
// kSerialization), deterministic dumps, and the round-trip property
// DTO -> to_json -> dump -> parse -> from_json == DTO for *every* DTO the
// key-delivery API speaks, over seeded randomized instances.
#include "api/dtos.hpp"
#include "api/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "api/dispatcher.hpp"
#include "api/key_delivery.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "service/link_orchestrator.hpp"
#include "fuzz/json_round_trip.hpp"

namespace qkdpp::api {
namespace {

TEST(Json, ParsesScalarsAndContainers) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(Json::parse("2.5e3").as_double(), 2500.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(Json::parse("[1,2,3]").size(), 3u);
  EXPECT_EQ(Json::parse("{\"a\":{\"b\":[false]}}")
                .at("a")
                .at("b")
                .as_array()[0]
                .as_bool(),
            false);
}

TEST(Json, IntegersSurviveBeyondDoubleMantissa) {
  // 2^63 - 1 is not representable in a double; the parser must keep the
  // int64 path for key/bit counters.
  const std::int64_t big = 9223372036854775807LL;
  EXPECT_EQ(Json::parse("9223372036854775807").as_int(), big);
  EXPECT_EQ(Json(big).dump(), "9223372036854775807");
}

TEST(Json, StringEscapesRoundTrip) {
  const std::string raw = "line\nbreak \"quote\" back\\slash \t tab \x01";
  const Json json(raw);
  EXPECT_EQ(Json::parse(json.dump()).as_string(), raw);
  // UTF-16 escapes, including a surrogate pair, decode to UTF-8.
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
  EXPECT_EQ(Json::parse("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(Json, DumpIsDeterministicRegardlessOfInsertionOrder) {
  Json a = Json::object();
  a.set("zeta", 1);
  a.set("alpha", 2);
  Json b = Json::object();
  b.set("alpha", 2);
  b.set("zeta", 1);
  EXPECT_EQ(a.dump(), b.dump());
  EXPECT_EQ(a.dump(), "{\"alpha\":2,\"zeta\":1}");
}

TEST(Json, MalformedInputThrowsSerialization) {
  const char* broken[] = {
      "",           "{",        "[1,",     "{\"a\":}",   "{'a':1}",
      "[1 2]",      "01",       "1.",      "1e",         "tru",
      "\"unterminated", "\"bad \\q escape\"", "{\"a\":1}extra",
      "\"\\ud800\"",  // unpaired surrogate
      "nan",
  };
  for (const char* text : broken) {
    EXPECT_THROW((void)Json::parse(text), Error) << text;
    try {
      (void)Json::parse(text);
    } catch (const Error& error) {
      EXPECT_EQ(error.code(), ErrorCode::kSerialization) << text;
    }
  }
}

TEST(Json, DepthLimitRejectsAdversarialNesting) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_THROW((void)Json::parse(deep), Error);
}

TEST(Json, TypeMismatchesThrowOnUntrustedInput) {
  const Json json = Json::parse("{\"n\":-1}");
  EXPECT_THROW((void)json.at("n").as_string(), Error);
  EXPECT_THROW((void)json.at("n").as_uint(), Error);  // negative
  EXPECT_THROW((void)json.at("missing"), Error);
  EXPECT_THROW((void)json.as_array(), Error);
}

// --- randomized DTO round-trip property ----------------------------------

std::string random_name(Xoshiro256& rng) {
  static const char* const kNames[] = {"sae-vpn-a", "sae-voip-b", "kme-1",
                                       "", "with \"quotes\"", "utf8 \xc3\xa9",
                                       "a/b?c=d"};
  return kNames[rng.uniform(std::size(kNames))];
}

std::string random_hex(Xoshiro256& rng, std::size_t bytes) {
  std::string out;
  for (std::size_t i = 0; i < bytes * 2; ++i) {
    out.push_back("0123456789abcdef"[rng.uniform(16)]);
  }
  return out;
}

std::string random_uuid(Xoshiro256& rng) {
  std::string out = random_hex(rng, 16);
  out.insert(8, "-");
  out.insert(13, "-");
  out.insert(18, "-");
  out.insert(23, "-");
  return out;
}

StatusResponse random_status(Xoshiro256& rng) {
  StatusResponse status;
  status.source_kme_id = random_name(rng);
  status.target_kme_id = random_name(rng);
  status.master_sae_id = random_name(rng);
  status.slave_sae_id = random_name(rng);
  status.key_size = rng.uniform(1 << 16);
  status.stored_key_count = rng.next_u64() >> 1;  // any non-negative int64
  status.max_key_count = rng.uniform(1 << 20);
  status.max_key_per_request = rng.uniform(1 << 10);
  status.max_key_size = rng.uniform(1 << 16);
  status.min_key_size = rng.uniform(1 << 10);
  status.pending_key_count = rng.uniform(1 << 10);
  return status;
}

KeyContainer random_container(Xoshiro256& rng) {
  KeyContainer container;
  const std::size_t n = rng.uniform(5);
  for (std::size_t i = 0; i < n; ++i) {
    container.keys.push_back(
        DeliveredKey{random_uuid(rng), random_hex(rng, 32)});
  }
  return container;
}

ApiError random_error(Xoshiro256& rng) {
  static const int kStatuses[] = {kStatusBadRequest, kStatusUnauthorized,
                                  kStatusNotFound, kStatusUnavailable};
  ApiError error;
  error.status = kStatuses[rng.uniform(std::size(kStatuses))];
  error.message = random_name(rng);
  const std::size_t n = rng.uniform(4);
  for (std::size_t i = 0; i < n; ++i) {
    error.details.push_back(random_name(rng));
  }
  return error;
}

/// One generic round trip: serialize to text, reparse, decode, compare.
template <typename T>
void expect_round_trip(const T& dto) {
  const std::string wire = dto.to_json().dump();
  const T decoded = T::from_json(Json::parse(wire));
  EXPECT_EQ(decoded, dto) << wire;
  // Serialization is deterministic: a second pass is byte-identical.
  EXPECT_EQ(decoded.to_json().dump(), wire);
}

TEST(DtoRoundTrip, EveryDtoSurvivesSerializeParseDecode) {
  Xoshiro256 rng(20260726);
  for (int iteration = 0; iteration < 200; ++iteration) {
    expect_round_trip(random_status(rng));

    KeyRequest key_request;
    key_request.number = rng.uniform(1 << 10);
    key_request.size = rng.uniform(1 << 16);
    expect_round_trip(key_request);

    KeyIdsRequest ids;
    const std::size_t n = rng.uniform(5);
    for (std::size_t i = 0; i < n; ++i) {
      ids.key_ids.push_back(random_uuid(rng));
    }
    expect_round_trip(ids);

    expect_round_trip(DeliveredKey{random_uuid(rng), random_hex(rng, 32)});
    expect_round_trip(random_container(rng));
    expect_round_trip(random_error(rng));

    Request request;
    request.method = rng.bernoulli(0.5) ? "GET" : "POST";
    request.target = "/api/v1/keys/" + random_name(rng) + "/enc_keys";
    request.caller = random_name(rng);
    request.body = rng.bernoulli(0.5) ? Json() : random_container(rng).to_json();
    expect_round_trip(request);

    Response response;
    response.status = rng.bernoulli(0.5) ? kStatusOk : kStatusUnavailable;
    response.body = rng.bernoulli(0.5) ? random_error(rng).to_json()
                                       : random_status(rng).to_json();
    expect_round_trip(response);
  }
}

TEST(DtoRoundTrip, OptionalFieldsTakeDefaults) {
  // ETSI clients may omit fields at their defaults; decoding must fill
  // them in instead of rejecting the document.
  const KeyRequest request = KeyRequest::from_json(Json::parse("{}"));
  EXPECT_EQ(request.number, 1u);
  EXPECT_EQ(request.size, 0u);
  const ApiError error =
      ApiError::from_json(Json::parse("{\"status\":503,\"message\":\"m\"}"));
  EXPECT_TRUE(error.details.empty());
}

TEST(DispatcherMethods, WrongVerbOnKnownRouteIs405WithExpectedMethod) {
  // Wire-level contract: a known path with an unsupported verb must come
  // back 405 with the expected method(s) named in the details - distinct
  // from 404 (no such path), so a client can fix its verb instead of
  // chasing a typo. Driven through the fully serialized dispatch path so
  // the ApiError round-trips as a real transport would see it.
  service::OrchestratorConfig config;
  config.links.emplace_back();
  config.links.back().name = "metro";
  service::LinkOrchestrator orchestrator(std::move(config));
  KeyDeliveryService service(orchestrator);
  Dispatcher dispatcher(service);

  const struct {
    const char* method;
    const char* endpoint;
    const char* expected;
  } cases[] = {{"POST", "status", "expected: GET"},
               {"DELETE", "enc_keys", "expected: GET or POST"},
               {"GET", "dec_keys", "expected: POST"}};
  for (const auto& c : cases) {
    const Request request{c.method,
                          std::string("/api/v1/keys/sae-b/") + c.endpoint,
                          "sae-a",
                          {}};
    const auto response = Response::from_json(
        Json::parse(dispatcher.dispatch(request.to_json().dump())));
    EXPECT_EQ(response.status, kStatusMethodNotAllowed) << c.endpoint;
    const auto error = ApiError::from_json(response.body);
    EXPECT_EQ(error.status, kStatusMethodNotAllowed) << c.endpoint;
    ASSERT_EQ(error.details.size(), 1u) << c.endpoint;
    EXPECT_EQ(error.details[0], c.expected) << c.endpoint;
  }
  // The 404 boundary is unchanged: an unknown endpoint is still not found.
  const Request unknown{"GET", "/api/v1/keys/sae-b/teapot", "sae-a", {}};
  EXPECT_EQ(dispatcher.dispatch(unknown).status, kStatusNotFound);
}

// --- wire bytes pinned across commits -----------------------------------
//
// Every constant below was recorded by running this test against the
// std::map-backed Json that preceded the flat sorted object. A change to
// the value model, the parser or the serializer must leave every byte the
// API puts on the wire as it was.

TEST(WireBytes, DtoDumpsArePinned) {
  EXPECT_EQ((KeyRequest{3, 512}.to_json().dump()),
            R"({"number":3,"size":512})");
  KeyIdsRequest ids;
  ids.key_ids = {"00000000-0000-4000-8000-000000000001",
                 "ffffffff-ffff-4fff-bfff-fffffffffffe"};
  EXPECT_EQ(ids.to_json().dump(),
            R"({"key_IDs":[{"key_ID":)"
            R"("00000000-0000-4000-8000-000000000001"},{"key_ID":)"
            R"("ffffffff-ffff-4fff-bfff-fffffffffffe"}]})");

  KeyContainer container;
  EXPECT_EQ(container.to_json().dump(), R"({"keys":[]})");
  container.keys.push_back({"0a1b2c3d-4e5f-4061-8273-849506172839",
                            "00112233445566778899aabbccddeeff"});
  EXPECT_EQ(container.to_json().dump(),
            R"({"keys":[{"key":"00112233445566778899aabbccddeeff","key_ID":)"
            R"("0a1b2c3d-4e5f-4061-8273-849506172839"}]})");
  container.keys.push_back({"11111111-2222-4333-8444-555555555555", "ab"});
  container.keys.push_back({"k\"3", "line\nbreak\t\x01\x1f\xc3\xa9/"});
  EXPECT_EQ(container.to_json().dump(),
            R"({"keys":[{"key":"00112233445566778899aabbccddeeff","key_ID":)"
            R"("0a1b2c3d-4e5f-4061-8273-849506172839"},{"key":"ab","key_ID":)"
            R"("11111111-2222-4333-8444-555555555555"},{"key":)"
            "\"line\\nbreak\\t\\u0001\\u001f\xc3" "\xa9" "/\",\"key_ID\":"
            R"("k\"3"}]})");

  StatusResponse status;
  status.source_kme_id = "kme-local";
  status.target_kme_id = "kme \"peer\"";
  status.master_sae_id = "sae-a";
  status.slave_sae_id = "sae-b\\x";
  status.key_size = 256;
  status.stored_key_count = 9223372036854775807ULL;
  status.max_key_count = 256;
  status.max_key_per_request = 8;
  status.max_key_size = 1024;
  status.min_key_size = 64;
  status.pending_key_count = 3;
  EXPECT_EQ(status.to_json().dump(),
            R"({"key_size":256,"master_SAE_ID":"sae-a","max_key_count":256,)"
            R"("max_key_per_request":8,"max_key_size":1024,"min_key_size":)"
            R"(64,"pending_key_count":3,"slave_SAE_ID":"sae-b\\x",)"
            R"("source_KME_ID":"kme-local","stored_key_count":)"
            R"(9223372036854775807,"target_KME_ID":"kme \"peer\""})");

  EXPECT_EQ((ApiError{kStatusUnavailable, "exhausted", {}}.to_json().dump()),
            R"({"message":"exhausted","status":503})");
  const ApiError detailed{
      kStatusBadRequest, "bad \"x\"\r\n", {"first", "", "\b\f"}};
  EXPECT_EQ(detailed.to_json().dump(),
            R"({"details":["first","","\b\f"],"message":"bad \"x\"\r\n",)"
            R"("status":400})");

  const Request request{"POST", "/api/v1/keys/sae-b/enc_keys", "sae-a",
                        KeyRequest{2, 256}.to_json()};
  EXPECT_EQ(request.to_json().dump(),
            R"({"body":{"number":2,"size":256},"caller":"sae-a","method":)"
            R"("POST","target":"/api/v1/keys/sae-b/enc_keys"})");
  const Request get{"GET", "/api/v1/keys/sae-b/status", "sae-a", {}};
  EXPECT_EQ(get.to_json().dump(),
            R"({"body":null,"caller":"sae-a","method":"GET","target":)"
            R"("/api/v1/keys/sae-b/status"})");
  const Response ok{kStatusOk, container.to_json()};
  EXPECT_EQ(ok.to_json().dump(),
            R"({"body":{"keys":[{"key":"00112233445566778899aabbccddeeff",)"
            R"("key_ID":"0a1b2c3d-4e5f-4061-8273-849506172839"},{"key":"ab",)"
            R"("key_ID":"11111111-2222-4333-8444-555555555555"},{"key":)"
            "\"line\\nbreak\\t\\u0001\\u001f\xc3" "\xa9" "/\",\"key_ID\":"
            R"("k\"3"}]},"status":200})");
  const Response not_found{kStatusNotFound,
                           ApiError{kStatusNotFound, "no", {}}.to_json()};
  EXPECT_EQ(not_found.to_json().dump(),
            R"({"body":{"message":"no","status":404},"status":404})");
}

/// One link "metro" with a registered sae-a/sae-b pair and a seeded
/// deposit: the UUID stream and key material are deterministic, so every
/// response byte is checkable.
class WireDispatch : public ::testing::Test {
 protected:
  WireDispatch() : orchestrator_(make_config()), service_(orchestrator_) {
    SaePair pair;
    pair.master_sae_id = "sae-a";
    pair.slave_sae_id = "sae-b";
    pair.link_name = "metro";
    pair.default_key_size = 128;
    pair.max_key_per_request = 8;
    pair.max_key_size = 1024;
    pair.min_key_size = 64;
    service_.register_pair(pair);
    Xoshiro256 rng(7);
    EXPECT_TRUE(
        orchestrator_.key_store(0).deposit(rng.random_bits(512)).accepted());
  }

  static service::OrchestratorConfig make_config() {
    service::OrchestratorConfig config;
    config.store.capacity_bits = 1 << 16;
    service::LinkSpec spec;
    spec.name = "metro";
    spec.rng_seed = 1;
    config.links.push_back(std::move(spec));
    return config;
  }

  service::LinkOrchestrator orchestrator_;
  KeyDeliveryService service_;
  Dispatcher dispatcher_{service_};
};

TEST_F(WireDispatch, SuccessResponsesArePinned) {
  EXPECT_EQ(dispatcher_.dispatch(R"({"caller":"sae-a","method":"GET",)"
                                 R"("target":"/api/v1/keys/sae-b/status"})"),
            R"({"body":{"key_size":128,"master_SAE_ID":"sae-a",)"
            R"("max_key_count":512,"max_key_per_request":8,"max_key_size":)"
            R"(1024,"min_key_size":64,"pending_key_count":0,"slave_SAE_ID":)"
            R"("sae-b","source_KME_ID":"kme-local","stored_key_count":4,)"
            R"("target_KME_ID":"kme-peer"},"status":200})");
  const std::string enc = dispatcher_.dispatch(
      R"({"body":{"number":2,"size":64},"caller":"sae-a","method":"POST",)"
      R"("target":"/api/v1/keys/sae-b/enc_keys"})");
  EXPECT_EQ(enc,
            R"({"body":{"keys":[{"key":"5a76f94ef7fa58b3","key_ID":)"
            R"("a936bc4e-781d-49b4-8000-000000000000"},{"key":)"
            R"("d22c484f963d5c47","key_ID":)"
            R"("1cbd1d53-47d2-4825-8000-000000000001"}]},"status":200})");
  KeyIdsRequest ids;
  const Response enc_response = Response::from_json(Json::parse(enc));
  for (const auto& key : KeyContainer::from_json(enc_response.body).keys) {
    ids.key_ids.push_back(key.key_id);
  }
  const std::string dec_wire =
      Request{"POST", "/api/v1/keys/sae-a/dec_keys", "sae-b", ids.to_json()}
          .to_json()
          .dump();
  EXPECT_EQ(dec_wire,
            R"({"body":{"key_IDs":[{"key_ID":)"
            R"("a936bc4e-781d-49b4-8000-000000000000"},{"key_ID":)"
            R"("1cbd1d53-47d2-4825-8000-000000000001"}]},"caller":"sae-b",)"
            R"("method":"POST","target":"/api/v1/keys/sae-a/dec_keys"})");
  EXPECT_EQ(dispatcher_.dispatch(dec_wire),
            R"({"body":{"keys":[{"key":"5a76f94ef7fa58b3","key_ID":)"
            R"("a936bc4e-781d-49b4-8000-000000000000"},{"key":)"
            R"("d22c484f963d5c47","key_ID":)"
            R"("1cbd1d53-47d2-4825-8000-000000000001"}]},"status":200})");
  EXPECT_EQ(dispatcher_.dispatch(R"({"caller":"sae-b","method":"GET",)"
                                 R"("target":"/api/v1/keys/sae-a/status"})"),
            R"({"body":{"key_size":128,"master_SAE_ID":"sae-a",)"
            R"("max_key_count":512,"max_key_per_request":8,"max_key_size":)"
            R"(1024,"min_key_size":64,"pending_key_count":0,"slave_SAE_ID":)"
            R"("sae-b","source_KME_ID":"kme-local","stored_key_count":3,)"
            R"("target_KME_ID":"kme-peer"},"status":200})");
}

TEST_F(WireDispatch, ErrorResponsesArePinned) {
  // 400: malformed envelope, with the byte offset the parser died at.
  EXPECT_EQ(dispatcher_.dispatch(R"({"method":"GET","target":})"),
            R"({"body":{"message":"serialization error: json: bad number at )"
            R"(byte 25","status":400},"status":400})");
  EXPECT_EQ(dispatcher_.dispatch("{\"method\":\"GE\x01T\"}"),
            R"({"body":{"message":"serialization error: json: unescaped )"
            R"(control character in string at byte 14","status":400},)"
            R"("status":400})");
  // 400: well-formed envelope, body of the wrong shape.
  EXPECT_EQ(
      dispatcher_.dispatch(
          R"({"body":{"number":-1},"caller":"sae-a","method":"POST",)"
          R"("target":"/api/v1/keys/sae-b/enc_keys"})"),
      R"({"body":{"message":"serialization error: json: expected )"
      R"(non-negative integer","status":400},"status":400})");
  // 404: unknown route.
  EXPECT_EQ(dispatcher_.dispatch(
                R"({"caller":"sae-a","method":"GET","target":"/nope"})"),
            R"({"body":{"message":"no such route: /nope","status":404},)"
            R"("status":404})");
  // 405: known route, wrong verb.
  EXPECT_EQ(dispatcher_.dispatch(R"({"caller":"sae-a","method":"POST",)"
                                 R"("target":"/api/v1/keys/sae-b/status"})"),
            R"({"body":{"details":["expected: GET"],"message":"status does )"
            R"(not support POST","status":405},"status":405})");
}

TEST(Json, DuplicateKeysKeepTheLastValue) {
  const Json json = Json::parse(R"({"a":1,"a":2})");
  EXPECT_EQ(json.at("a").as_int(), 2);
  EXPECT_EQ(json.size(), 1u);
  EXPECT_EQ(json.dump(), R"({"a":2})");
  const Json nested = Json::parse(R"({"b":[],"a":{"x":1},"b":true,"a":3})");
  EXPECT_EQ(nested.dump(), R"({"a":3,"b":true})");
  Json built = Json::object();
  built.set("k", 1);
  built.set("k", "two");
  EXPECT_EQ(built.dump(), R"({"k":"two"})");
}

TEST(Json, ObjectEqualityIgnoresInsertionOrder) {
  Json a = Json::object();
  a.set("m", 1);
  a.set("a", Json::array());
  a.set("z", "last");
  a.set("b", nullptr);
  Json b = Json::object();
  b.set("z", "last");
  b.set("b", nullptr);
  b.set("a", Json::array());
  b.set("m", 1);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, Json::parse(b.dump()));
  EXPECT_EQ(Json::parse(R"({"y":1,"x":2})"), Json::parse(R"({"x":2,"y":1})"));
  b.set("m", 2);
  EXPECT_FALSE(a == b);
}

// --- seeded randomized corpus for the parser -----------------------------
//
// The parser takes untrusted bytes from every SAE. Random documents check
// that dump and parse are inverse to each other (also through escapes,
// surrogate pairs, whitespace and repeated keys the serializer never
// writes), and byte mutations of real request wires check that bad input
// only ever surfaces as Error{kSerialization}.

constexpr int kMaxCorpusDepth = 8;

/// Any Unicode scalar value class the parser treats differently: printable
/// ASCII, the characters JSON must escape, and 2-, 3- and 4-byte UTF-8
/// (the last become surrogate pairs when written as \u escapes).
std::uint32_t random_code_point(Xoshiro256& rng) {
  switch (rng.uniform(6)) {
    case 0: return static_cast<std::uint32_t>(rng.uniform(0x20));
    case 1: return static_cast<unsigned char>("\"\\/"[rng.uniform(3)]);
    case 2: return static_cast<std::uint32_t>(0x80 + rng.uniform(0x780));
    case 3: {
      const auto cp = static_cast<std::uint32_t>(0x800 + rng.uniform(0xF800));
      return cp >= 0xD800 && cp <= 0xDFFF ? cp - 0x800 : cp;
    }
    case 4: return static_cast<std::uint32_t>(0x10000 + rng.uniform(0x100000));
    default: return static_cast<std::uint32_t>(0x20 + rng.uniform(0x5F));
  }
}

void append_utf8(std::string& out, std::uint32_t cp) {
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

/// Inverse of append_utf8 for the well-formed strings the corpus builds.
std::vector<std::uint32_t> code_points(const std::string& utf8) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < utf8.size();) {
    const auto lead = static_cast<unsigned char>(utf8[i]);
    const std::size_t length = lead < 0x80 ? 1 : lead < 0xE0 ? 2
                               : lead < 0xF0 ? 3 : 4;
    std::uint32_t cp = length == 1 ? lead : lead & (0x7F >> length);
    for (std::size_t k = 1; k < length; ++k) {
      cp = (cp << 6) | (static_cast<unsigned char>(utf8[i + k]) & 0x3F);
    }
    out.push_back(cp);
    i += length;
  }
  return out;
}

std::string random_text(Xoshiro256& rng) {
  std::string out;
  const std::size_t n = rng.uniform(10);
  for (std::size_t i = 0; i < n; ++i) append_utf8(out, random_code_point(rng));
  return out;
}

/// A finite double that dumps with a fraction or an exponent (an integral
/// double would read back as an integer, a different Json value).
double random_double(Xoshiro256& rng) {
  while (true) {
    const std::uint64_t bits = rng.next_u64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    if (!std::isfinite(value)) continue;
    const std::string text = Json(value).dump();
    if (text.find_first_of(".e") != std::string::npos) return value;
  }
}

/// A random value nested at most kMaxCorpusDepth deep. Below `spine` the
/// first element is forced to be a container, so the corpus reaches the
/// full depth instead of dying out after a level or two.
Json random_json(Xoshiro256& rng, int depth, int spine = 0) {
  static constexpr std::int64_t kInts[] = {
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(), 0, -1, 1};
  static const char* const kKeys[] = {"a", "b", "key", "key_ID", "body", ""};
  const std::uint64_t kind =
      depth < spine ? 5 + rng.uniform(2)
                    : rng.uniform(depth < kMaxCorpusDepth ? 7 : 5);
  switch (kind) {
    case 0: return Json();
    case 1: return Json(rng.bernoulli(0.5));
    case 2:
      return rng.bernoulli(0.5)
                 ? Json(kInts[rng.uniform(std::size(kInts))])
                 : Json(static_cast<std::int64_t>(rng.next_u64()));
    case 3: return Json(random_double(rng));
    case 4: return Json(random_text(rng));
    case 5: {
      Json array = Json::array();
      array.push_back(random_json(rng, depth + 1, spine));
      for (std::uint64_t n = rng.uniform(4); n > 0; --n) {
        array.push_back(random_json(rng, depth + 1));
      }
      return array;
    }
    default: {
      Json object = Json::object();
      object.set(random_text(rng), random_json(rng, depth + 1, spine));
      for (std::uint64_t n = rng.uniform(5); n > 0; --n) {
        object.set(rng.bernoulli(0.5) ? std::string(kKeys[rng.uniform(6)])
                                      : random_text(rng),
                   random_json(rng, depth + 1));
      }
      return object;
    }
  }
}

void write_whitespace(Xoshiro256& rng, std::string& out) {
  for (std::uint64_t n = rng.uniform(3); n > 0; --n) {
    out.push_back(" \t\n\r"[rng.uniform(4)]);
  }
}

void write_hex4(Xoshiro256& rng, std::uint32_t unit, std::string& out) {
  out += "\\u";
  const char* digits = rng.bernoulli(0.5) ? "0123456789abcdef"
                                          : "0123456789ABCDEF";
  for (int shift = 12; shift >= 0; shift -= 4) {
    out.push_back(digits[(unit >> shift) & 0xF]);
  }
}

/// A spelling of `text` the serializer never produces: every code point
/// is written raw, as a short escape, or as \u escapes (surrogate pairs
/// above the BMP), chosen at random.
void write_loose_string(Xoshiro256& rng, const std::string& text,
                        std::string& out) {
  static constexpr std::string_view kShort = "\"\\/\b\f\n\r\t";
  static constexpr std::string_view kShortName = "\"\\/bfnrt";
  out.push_back('"');
  for (const std::uint32_t cp : code_points(text)) {
    const std::size_t short_form =
        cp < 0x80 ? kShort.find(static_cast<char>(cp)) : std::string::npos;
    const bool raw_ok = cp >= 0x20 && cp != '"' && cp != '\\';
    const std::uint64_t pick = rng.uniform(3);
    if (raw_ok && pick == 0) {
      append_utf8(out, cp);
    } else if (short_form != std::string::npos && pick == 1) {
      out.push_back('\\');
      out.push_back(kShortName[short_form]);
    } else if (cp >= 0x10000) {
      write_hex4(rng, 0xD800 + ((cp - 0x10000) >> 10), out);
      write_hex4(rng, 0xDC00 + ((cp - 0x10000) & 0x3FF), out);
    } else {
      write_hex4(rng, cp, out);
    }
  }
  out.push_back('"');
}

/// Same value as `json`, spelled with random whitespace, escapes and
/// (overridden) repeated keys.
void write_loose(Xoshiro256& rng, const Json& json, std::string& out) {
  write_whitespace(rng, out);
  if (json.is_string()) {
    write_loose_string(rng, json.as_string(), out);
  } else if (json.is_array()) {
    out.push_back('[');
    const auto& array = json.as_array();
    for (std::size_t i = 0; i < array.size(); ++i) {
      if (i) out.push_back(',');
      write_loose(rng, array[i], out);
    }
    write_whitespace(rng, out);
    out.push_back(']');
  } else if (json.is_object()) {
    out.push_back('{');
    bool first = true;
    for (const auto& [key, value] : json.as_object()) {
      // A stale value under the same key first: the later one must win.
      for (int copy = rng.bernoulli(0.2) ? 0 : 1; copy < 2; ++copy) {
        if (!first) out.push_back(',');
        first = false;
        write_whitespace(rng, out);
        write_loose_string(rng, key, out);
        write_whitespace(rng, out);
        out.push_back(':');
        write_loose(rng, copy == 0 ? Json(rng.bernoulli(0.5)) : value, out);
      }
    }
    write_whitespace(rng, out);
    out.push_back('}');
  } else {
    out += json.dump();
  }
  write_whitespace(rng, out);
}

TEST(JsonCorpus, RandomDocumentsRoundTrip) {
  Xoshiro256 rng(0x15);
  for (int i = 0; i < 1500; ++i) {
    const Json json =
        random_json(rng, 0, static_cast<int>(rng.uniform(kMaxCorpusDepth + 1)));
    const std::string wire = json.dump();
    const Json parsed = Json::parse(wire);
    ASSERT_EQ(parsed, json) << wire;
    ASSERT_EQ(parsed.dump(), wire);
    std::string loose;
    write_loose(rng, json, loose);
    ASSERT_EQ(Json::parse(loose), json) << loose;
  }
}

TEST(JsonCorpus, IntegralDoublesRoundTripTypeExact) {
  // dump() keeps a fraction on an integral double, so it reads back as a
  // double of the same value, -0.0 included.
  EXPECT_EQ(Json(1.0).dump(), "1.0");
  EXPECT_TRUE(Json::parse(Json(1.0).dump()).is_double());
  EXPECT_EQ(Json(-0.0).dump(), "-0.0");
  const Json negative_zero = Json::parse(Json(-0.0).dump());
  ASSERT_TRUE(negative_zero.is_double());
  EXPECT_TRUE(std::signbit(negative_zero.as_double()));
  EXPECT_EQ(Json::parse("6e4").dump(), "60000.0");
  EXPECT_EQ(Json::parse("-0").dump(), "0");
  for (const char* text :
       {"1.0", "-0.0", "6e4", "-0", R"([1.0,{"a":-0.0,"b":6e4}])",
        "-9223372036854775809", "9223372036854775808", "1e300"}) {
    EXPECT_TRUE(json_check::dump_round_trips(Json::parse(text))) << text;
  }
}

/// Parses `text` as a request envelope: either it decodes, or the only
/// failure is Error{kSerialization}.
void expect_parses_or_rejects(const std::string& text) {
  try {
    const Json json = Json::parse(text);
    EXPECT_TRUE(json_check::dump_round_trips(json)) << text;
    (void)Request::from_json(json);
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kSerialization) << text;
  } catch (const std::exception& error) {
    ADD_FAILURE() << "unexpected exception '" << error.what()
                  << "' for: " << text;
  }
}

TEST_F(WireDispatch, MutatedRequestWiresParseOrRejectCleanly) {
  KeyIdsRequest ids;
  ids.key_ids = {"a936bc4e-781d-49b4-8000-000000000000",
                 "1cbd1d53-47d2-4825-8000-000000000001",
                 "00000000-0000-4000-8000-000000000002"};
  const std::string wires[] = {
      Request{"POST", "/api/v1/keys/sae-b/enc_keys", "sae-a",
              KeyRequest{1, 64}.to_json()}
          .to_json()
          .dump(),
      Request{"POST", "/api/v1/keys/sae-a/dec_keys", "sae-b", ids.to_json()}
          .to_json()
          .dump(),
      Request{"GET", "/api/v1/keys/sae-b/status", "sae-a", {}}
          .to_json()
          .dump(),
  };
  static constexpr std::string_view kInteresting = "{}[]\":,\\-0e.u ";
  Xoshiro256 rng(0x14);
  for (const std::string& wire : wires) {
    const Json original = Json::parse(wire);
    for (int i = 0; i < 400; ++i) {
      std::string text = wire;
      switch (i % 4) {
        case 0:  // truncate
          text.resize(rng.uniform(text.size()));
          break;
        case 1:  // flip one bit
          text[rng.uniform(text.size())] ^=
              static_cast<char>(1u << rng.uniform(8));
          break;
        case 2: {  // insert a structural or arbitrary byte
          const char byte =
              rng.bernoulli(0.5)
                  ? kInteresting[rng.uniform(kInteresting.size())]
                  : static_cast<char>(rng.uniform(256));
          text.insert(text.begin() + rng.uniform(text.size() + 1), byte);
          break;
        }
        default: {  // repeat a key ahead of the original: the original wins
          const auto& fields = original.as_object();
          const std::string& key = fields[rng.uniform(fields.size())].first;
          text.insert(1, "\"" + key + "\":" +
                             random_json(rng, kMaxCorpusDepth).dump() + ",");
          EXPECT_EQ(Json::parse(text), original) << text;
          break;
        }
      }
      expect_parses_or_rejects(text);
      // The serialized dispatch path never throws: every mutant is answered.
      std::string response;
      ASSERT_NO_THROW(response = dispatcher_.dispatch(text)) << text;
      const int status = Response::from_json(Json::parse(response)).status;
      EXPECT_TRUE(status == kStatusOk || status == kStatusBadRequest ||
                  status == kStatusUnauthorized || status == kStatusNotFound ||
                  status == kStatusMethodNotAllowed ||
                  status == kStatusUnavailable)
          << status << " for: " << text;
    }
  }
}

}  // namespace
}  // namespace qkdpp::api
