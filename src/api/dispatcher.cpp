#include "api/dispatcher.hpp"

#include <utility>

#include "common/error.hpp"

namespace qkdpp::api {

namespace {

constexpr std::string_view kKeysPrefix = "/api/v1/keys/";

Response error_response(int status, std::string message,
                        std::vector<std::string> details = {}) {
  Response response;
  response.status = status;
  response.body =
      ApiError{status, std::move(message), std::move(details)}.to_json();
  return response;
}

template <typename T>
Response from_result(Result<T> result) {
  Response response;
  if (result.ok()) {
    response.status = kStatusOk;
    response.body = std::move(*result.value).to_json();
  } else {
    response.status = result.error.status;
    response.body = result.error.to_json();
  }
  return response;
}

/// Known path, wrong verb: 405 with the expected method(s) in the detail
/// string, so a client fixing its verb is not chasing a 404.
Response method_not_allowed(std::string_view endpoint,
                            std::string_view method,
                            std::string_view expected) {
  std::string message(endpoint);
  message += " does not support ";
  message += method.empty() ? std::string_view("(empty method)") : method;
  return error_response(kStatusMethodNotAllowed, std::move(message),
                        {"expected: " + std::string(expected)});
}

}  // namespace

Response Dispatcher::dispatch(const Request& request) {
  // The no-throw guarantee lives here, not in every route: a typed Error
  // escaping the service or DTO serialization must degrade to a response,
  // because the transport loop behind this call has nothing to catch with.
  try {
    return route(request);
  } catch (const Error& error) {
    const int status = error.code() == ErrorCode::kSerialization
                           ? kStatusBadRequest
                           : kStatusInternal;
    return error_response(status, error.what());
  }
}

Response Dispatcher::route(const Request& request) {
  // Target shape: /api/v1/keys/{peer_SAE_ID}/{endpoint}
  if (request.target.compare(0, kKeysPrefix.size(), kKeysPrefix) != 0) {
    return error_response(kStatusNotFound,
                          "no such route: " + request.target);
  }
  const std::string_view rest =
      std::string_view(request.target).substr(kKeysPrefix.size());
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos || slash == 0 ||
      slash + 1 >= rest.size()) {
    return error_response(kStatusNotFound,
                          "no such route: " + request.target);
  }
  const std::string_view peer = rest.substr(0, slash);
  const std::string_view endpoint = rest.substr(slash + 1);

  if (endpoint == "status") {
    if (request.method != "GET") {
      return method_not_allowed("status", request.method, "GET");
    }
    return from_result(service_.get_status(request.caller, peer));
  }
  if (endpoint == "enc_keys") {
    KeyRequest key_request;  // GET = the ETSI default request (1 key)
    if (request.method == "POST") {
      try {
        key_request = KeyRequest::from_json(request.body);
      } catch (const Error& error) {
        return error_response(kStatusBadRequest, error.what());
      }
    } else if (request.method != "GET") {
      return method_not_allowed("enc_keys", request.method, "GET or POST");
    }
    return from_result(service_.get_key(request.caller, peer, key_request));
  }
  if (endpoint == "dec_keys") {
    if (request.method != "POST") {
      return method_not_allowed("dec_keys", request.method, "POST");
    }
    KeyIdsRequest ids_request;
    try {
      ids_request = KeyIdsRequest::from_json(request.body);
    } catch (const Error& error) {
      return error_response(kStatusBadRequest, error.what());
    }
    return from_result(
        service_.get_key_with_ids(request.caller, peer, ids_request));
  }
  return error_response(kStatusNotFound, "no such route: " + request.target);
}

std::string Dispatcher::dispatch(std::string_view request_json) {
  // Both envelopes are temporaries, so their rvalue overloads move the body
  // from the parsed document into the request and from the response into
  // the serialized document, instead of deep-copying either.
  Request request;
  try {
    request = Request::from_json(Json::parse(request_json));
  } catch (const Error& error) {
    return error_response(kStatusBadRequest, error.what()).to_json().dump();
  }
  return dispatch(request).to_json().dump();
}

}  // namespace qkdpp::api
