// An SAE client of the ETSI GS QKD 014 delivery API, driving the library's
// api::Dispatcher with serialized JSON exactly as a transport would. Each
// delivery is a closed-loop pair of requests: enc_keys by the master SAE,
// then dec_keys by the slave SAE for the same key ids, with the two copies
// compared bit for bit.
//
// Untraced, every request goes through Dispatcher::dispatch(string_view), and
// the dispatch times of a delivery's enc_keys and dec_keys together are one
// api latency sample: what an SAE pair waits for its keys. (Per request, the
// two routes form two clusters and a median between them would jump with
// the mix.) Traced, every other delivery and status call is served instead
// through the same public steps the dispatcher takes - Json::parse +
// Request::from_json, the KeyDeliveryService call, to_json + Json::dump -
// each under its own span, which splits dispatch time into parse, service
// and serialize.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/dispatcher.hpp"
#include "api/key_delivery.hpp"
#include "checks.hpp"
#include "trace.hpp"

namespace perfbench {

struct SaePairRef {
  std::string master;
  std::string slave;
  bool relayed = false;
};

class SaeClient {
 public:
  SaeClient(qkdpp::api::Dispatcher& dispatcher,
            qkdpp::api::KeyDeliveryService& service)
      : dispatcher_(dispatcher), service_(service) {}

  /// enc_keys for `number` keys of `size` bits, then dec_keys for their ids.
  /// Returns false when either request is not answered 200 or the keys
  /// differ.
  bool deliver(const SaePairRef& pair, std::uint64_t number,
               std::uint64_t size, Tracer* tracer, std::uint64_t trace_id);
  /// GET status by the master SAE. Returns false unless answered 200.
  bool status(const SaePairRef& pair, Tracer* tracer, std::uint64_t trace_id);

  /// Drops latency samples and counters (keeps the correctness ledger).
  void reset_samples();

  std::uint64_t requests() const noexcept { return requests_; }
  std::uint64_t failed_requests() const noexcept { return failed_; }
  /// Key bits confirmed by dec_keys since the last reset_samples().
  std::uint64_t collected_bits() const noexcept { return collected_bits_; }
  /// enc_keys + dec_keys dispatch time of every delivery served through the
  /// dispatcher, microseconds.
  const std::vector<float>& latency_us() const noexcept { return latency_us_; }

  /// Client-side ledger per master SAE: bits received from enc_keys and
  /// bits collected through dec_keys.
  struct PairLedger {
    std::uint64_t delivered_bits = 0;
    std::uint64_t collected_bits = 0;
  };
  const std::map<std::string, PairLedger>& ledger() const noexcept {
    return ledger_;
  }
  /// Fingerprints of every key UUID handed out by enc_keys.
  std::vector<std::uint64_t>& uuids() noexcept { return uuids_; }
  Checker& checker() noexcept { return checker_; }

 private:
  enum class Route { kEnc, kDec, kStatus };

  /// Serves one serialized request and returns the serialized response,
  /// through the dispatcher or, traced, through the decomposed steps.
  /// Adds the dispatch time to `dispatch_us`.
  std::string call(Route route, const SaePairRef& pair,
                   const std::string& wire, bool decomposed, Tracer* tracer,
                   std::uint64_t trace_id, double& dispatch_us);
  std::string serve_decomposed(Route route, const std::string& peer,
                               const std::string& wire, Tracer* tracer);

  qkdpp::api::Dispatcher& dispatcher_;
  qkdpp::api::KeyDeliveryService& service_;
  std::uint64_t requests_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t collected_bits_ = 0;
  std::uint64_t traced_deliveries_ = 0;
  std::uint64_t traced_status_ = 0;
  std::vector<float> latency_us_;
  std::map<std::string, PairLedger> ledger_;
  std::vector<std::uint64_t> uuids_;
  Checker checker_;
};

/// Per-route api metrics from client spans: api.<route>_us_p50/_p99 and
/// parse/service/serialize medians, in microseconds.
void add_api_layers(const std::map<std::string, LayerTimes>& layers,
                    Result& result);

}  // namespace perfbench
