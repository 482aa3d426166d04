#include "client.hpp"

#include <utility>

#include "api/json.hpp"

namespace perfbench {

namespace api = qkdpp::api;

namespace {

std::string keys_target(const std::string& peer, const char* endpoint) {
  return "/api/v1/keys/" + peer + "/" + endpoint;
}

const char* span_name(bool enc, bool dec, bool relayed) {
  if (enc) return relayed ? "api.enc_keys_relayed" : "api.enc_keys";
  if (dec) return "api.dec_keys";
  return "api.status";
}

template <typename T>
api::Response to_response(const api::Result<T>& result) {
  api::Response response;
  if (result.ok()) {
    response.body = result->to_json();
  } else {
    response.status = result.error.status;
    response.body = result.error.to_json();
  }
  return response;
}

}  // namespace

std::string SaeClient::call(Route route, const SaePairRef& pair,
                            const std::string& wire, bool decomposed,
                            Tracer* tracer, std::uint64_t trace_id,
                            double& dispatch_us) {
  ++requests_;
  const std::string& peer = route == Route::kDec ? pair.master : pair.slave;
  if (decomposed) {
    ScopedSpan span(tracer, "api.decomposed", trace_id);
    return serve_decomposed(route, peer, wire, tracer);
  }
  ScopedSpan span(tracer,
                  span_name(route == Route::kEnc, route == Route::kDec,
                            pair.relayed),
                  trace_id);
  const auto start = Clock::now();
  std::string response = dispatcher_.dispatch(wire);
  dispatch_us += seconds_since(start) * 1e6;
  return response;
}


std::string SaeClient::serve_decomposed(Route route, const std::string& peer,
                                        const std::string& wire,
                                        Tracer* tracer) {
  api::Request request;
  api::KeyRequest key_request;
  api::KeyIdsRequest ids_request;
  {
    ScopedSpan span(tracer, "api.parse");
    request = api::Request::from_json(api::Json::parse(wire));
    if (route == Route::kEnc) {
      key_request = api::KeyRequest::from_json(request.body);
    } else if (route == Route::kDec) {
      ids_request = api::KeyIdsRequest::from_json(request.body);
    }
  }
  api::Result<api::KeyContainer> keys;
  api::Result<api::StatusResponse> status;
  {
    ScopedSpan span(tracer, "api.service");
    if (route == Route::kEnc) {
      keys = service_.get_key(request.caller, peer, key_request);
    } else if (route == Route::kDec) {
      keys = service_.get_key_with_ids(request.caller, peer, ids_request);
    } else {
      status = service_.get_status(request.caller, peer);
    }
  }
  ScopedSpan span(tracer, "api.serialize");
  const api::Response response =
      route == Route::kStatus ? to_response(status) : to_response(keys);
  return response.to_json().dump();
}

bool SaeClient::deliver(const SaePairRef& pair, std::uint64_t number,
                        std::uint64_t size, Tracer* tracer,
                        std::uint64_t trace_id) {
  api::KeyRequest key_request;
  key_request.number = number;
  key_request.size = size;
  const std::string enc_wire =
      api::Request{"POST", keys_target(pair.slave, "enc_keys"), pair.master,
                   key_request.to_json()}
          .to_json()
          .dump();
  const bool decomposed = tracer && (traced_deliveries_++ & 1) == 1;
  double dispatch_us = 0.0;
  const auto enc_response = api::Response::from_json(api::Json::parse(
      call(Route::kEnc, pair, enc_wire, decomposed, tracer, trace_id,
           dispatch_us)));
  if (!enc_response.ok()) {
    ++failed_;
    return false;
  }
  const auto enc = api::KeyContainer::from_json(enc_response.body);
  checker_.require(enc.keys.size() == number,
                   "enc_keys returned a wrong number of keys");
  PairLedger& ledger = ledger_[pair.master];
  api::KeyIdsRequest ids_request;
  for (const auto& key : enc.keys) {
    ids_request.key_ids.push_back(key.key_id);
    Uuid128 id;
    checker_.require(parse_uuid(key.key_id, id), "malformed key UUID");
    uuids_.push_back(fingerprint(id));
    const std::uint64_t bits = key.key.size() * 4;
    ledger.delivered_bits += bits;
  }

  const std::string dec_wire =
      api::Request{"POST", keys_target(pair.master, "dec_keys"), pair.slave,
                   ids_request.to_json()}
          .to_json()
          .dump();
  const auto dec_response = api::Response::from_json(api::Json::parse(
      call(Route::kDec, pair, dec_wire, decomposed, tracer, trace_id,
           dispatch_us)));
  if (!dec_response.ok()) {
    ++failed_;
    return false;
  }
  if (!decomposed) latency_us_.push_back(static_cast<float>(dispatch_us));
  const auto dec = api::KeyContainer::from_json(dec_response.body);
  bool same = dec.keys.size() == enc.keys.size();
  checker_.require(same, "dec_keys returned a wrong number of keys");
  for (std::size_t i = 0; same && i < dec.keys.size(); ++i) {
    const std::uint64_t before = checker_.key_mismatches();
    checker_.keys_match(enc.keys[i], dec.keys[i]);
    same = checker_.key_mismatches() == before;
    ledger.collected_bits += dec.keys[i].key.size() * 4;
    collected_bits_ += dec.keys[i].key.size() * 4;
  }
  return same;
}

bool SaeClient::status(const SaePairRef& pair, Tracer* tracer,
                       std::uint64_t trace_id) {
  const std::string wire = api::Request{"GET",
                                        keys_target(pair.slave, "status"),
                                        pair.master, api::Json()}
                               .to_json()
                               .dump();
  const bool decomposed = tracer && (traced_status_++ & 1) == 1;
  double dispatch_us = 0.0;
  const auto response = api::Response::from_json(api::Json::parse(
      call(Route::kStatus, pair, wire, decomposed, tracer, trace_id,
           dispatch_us)));
  if (!response.ok()) ++failed_;
  return response.ok();
}

void SaeClient::reset_samples() {
  requests_ = 0;
  failed_ = 0;
  collected_bits_ = 0;
  latency_us_.clear();
}

void add_api_layers(const std::map<std::string, LayerTimes>& layers,
                    Result& result) {
  const auto add = [&](const std::string& name, double value) {
    result.per_layer[name] = {value, "us"};
  };
  for (const char* route : {"api.enc_keys", "api.enc_keys_relayed",
                            "api.dec_keys", "api.status"}) {
    const auto it = layers.find(route);
    if (it == layers.end()) continue;
    add(std::string(route) + "_us_p50",
        quantile(it->second.duration_s, 0.5) * 1e6);
    add(std::string(route) + "_us_p99",
        quantile(it->second.duration_s, 0.99) * 1e6);
  }
  for (const char* step : {"api.parse", "api.service", "api.serialize"}) {
    const auto it = layers.find(step);
    if (it == layers.end()) continue;
    add(std::string(step) + "_us", quantile(it->second.duration_s, 0.5) * 1e6);
  }
}

}  // namespace perfbench
