// Correctness checks every workload runs on its own outputs. A workload
// records what it did (bits it deposited, keys it was handed); the checks
// compare that ledger with what the library's stores and delivery service
// account for. checker_self_test() feeds the checks a flipped key bit, a
// duplicated UUID and a dropped deposit and confirms each one is caught.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/dtos.hpp"
#include "api/key_delivery.hpp"
#include "pipeline/kms.hpp"

namespace perfbench {

struct Uuid128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  auto operator<=>(const Uuid128&) const = default;
};

/// Parses 8-4-4-4-12 hex; false on any other shape.
bool parse_uuid(std::string_view text, Uuid128& out);

/// 64-bit fingerprint of a UUID: equal UUIDs give equal fingerprints, and
/// two distinct ones collide with probability 2^-64 per pair, so a run's
/// duplicate check holds 8 bytes per key instead of 16.
inline std::uint64_t fingerprint(const Uuid128& id) {
  return id.hi ^ (id.lo * 0x9e3779b97f4a7c15ULL);
}

/// What one KeyStore should hold, from the depositors' and consumers' side.
struct StoreAccount {
  std::string name;
  const qkdpp::pipeline::KeyStore* store = nullptr;
  std::uint64_t accepted_bits = 0;  ///< deposits the store accepted
  std::uint64_t rejected_bits = 0;  ///< deposits the store refused
  /// (consumer name, bits it must have drawn): delivered + buffered for an
  /// SAE master, consumed + tap-buffered for a relay hop.
  std::vector<std::pair<std::string, std::uint64_t>> consumers;
};

class Checker {
 public:
  void require(bool ok, const std::string& what);
  void balance(const std::string& what, std::uint64_t lhs, std::uint64_t rhs);
  /// The slave's copy of a key must be the master's, bit for bit.
  void keys_match(const qkdpp::api::DeliveredKey& enc,
                  const qkdpp::api::DeliveredKey& dec);
  /// No UUID may be delivered twice (sorts the fingerprints).
  void unique_ids(std::vector<std::uint64_t>& fingerprints);
  /// deposited = drawn + in store, per consumer, with rejections accounted.
  void store(const StoreAccount& account);
  /// Every delivered key was collected and the pair's ledger matches the
  /// client's.
  void pair(const std::string& name, const qkdpp::api::PairStats& stats,
            std::uint64_t client_delivered_bits,
            std::uint64_t client_collected_bits);

  const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  std::uint64_t key_mismatches() const noexcept { return key_mismatches_; }

 private:
  std::vector<std::string> violations_;
  std::uint64_t key_mismatches_ = 0;
};

/// Runs the checks on deliberately broken inputs; returns a description of
/// every check that failed to fire (empty = the checks work).
std::vector<std::string> checker_self_test();

}  // namespace perfbench
