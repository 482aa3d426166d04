#include "checks.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace perfbench {

namespace {

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

bool parse_uuid(std::string_view text, Uuid128& out) {
  if (text.size() != 36) return false;
  Uuid128 id;
  int digits = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (i == 8 || i == 13 || i == 18 || i == 23) {
      if (text[i] != '-') return false;
      continue;
    }
    const int v = hex_value(text[i]);
    if (v < 0) return false;
    std::uint64_t& word = digits < 16 ? id.hi : id.lo;
    word = (word << 4) | static_cast<std::uint64_t>(v);
    ++digits;
  }
  out = id;
  return true;
}

void Checker::require(bool ok, const std::string& what) {
  if (!ok) violations_.push_back(what);
}

void Checker::balance(const std::string& what, std::uint64_t lhs,
                      std::uint64_t rhs) {
  if (lhs != rhs) {
    violations_.push_back(what + ": " + std::to_string(lhs) +
                          " != " + std::to_string(rhs));
  }
}

void Checker::keys_match(const qkdpp::api::DeliveredKey& enc,
                         const qkdpp::api::DeliveredKey& dec) {
  if (enc == dec) return;
  ++key_mismatches_;
  if (key_mismatches_ <= 3) {
    violations_.push_back("dec_keys key differs from enc_keys key " +
                          enc.key_id);
  }
}

void Checker::unique_ids(std::vector<std::uint64_t>& ids) {
  std::sort(ids.begin(), ids.end());
  const auto dup = std::adjacent_find(ids.begin(), ids.end());
  if (dup != ids.end()) {
    violations_.push_back("a key UUID was delivered twice");
  }
}

void Checker::store(const StoreAccount& account) {
  const auto& s = *account.store;
  const std::string& n = account.name;
  balance(n + ": accepted deposits vs store deposited bits",
          account.accepted_bits, s.total_deposited_bits());
  balance(n + ": refused deposits vs store rejected bits",
          account.rejected_bits, s.rejected_bits());
  balance(n + ": deposited vs consumed + available", s.total_deposited_bits(),
          s.total_consumed_bits() + s.bits_available());
  std::uint64_t drawn = 0;
  for (const auto& [consumer, bits] : account.consumers) {
    balance(n + ": bits drawn by " + consumer, s.consumed_by(consumer), bits);
    drawn += bits;
  }
  balance(n + ": consumed vs drawn by known consumers", s.total_consumed_bits(),
          drawn);
}

void Checker::pair(const std::string& name,
                   const qkdpp::api::PairStats& stats,
                   std::uint64_t client_delivered_bits,
                   std::uint64_t client_collected_bits) {
  balance(name + ": service delivered vs client received",
          stats.delivered_bits, client_delivered_bits);
  balance(name + ": delivered vs collected", stats.delivered_bits,
          client_collected_bits);
  balance(name + ": collected bits", stats.collected_bits,
          client_collected_bits);
  balance(name + ": keys still pending", stats.pending_keys, 0);
}

std::vector<std::string> checker_self_test() {
  std::vector<std::string> misses;

  {  // flipped key bit
    const qkdpp::api::DeliveredKey enc{
        "00000000-0000-0000-0000-000000000001", "00ff00ff00ff00ff"};
    qkdpp::api::DeliveredKey dec = enc;
    Checker clean;
    clean.keys_match(enc, dec);
    dec.key[5] = '7';  // 'f' -> '7': one bit flipped
    Checker flipped;
    flipped.keys_match(enc, dec);
    if (!clean.violations().empty() || flipped.key_mismatches() != 1) {
      misses.push_back("flipped key bit not detected");
    }
  }

  {  // duplicated UUID
    Uuid128 a, b;
    parse_uuid("6f1d2c3b-0000-4000-8000-00000000000a", a);
    parse_uuid("6f1d2c3b-0000-4000-8000-00000000000b", b);
    std::vector<std::uint64_t> distinct{fingerprint(a), fingerprint(b)};
    std::vector<std::uint64_t> duplicated{fingerprint(a), fingerprint(b),
                                          fingerprint(a)};
    Checker clean, dup;
    clean.unique_ids(distinct);
    dup.unique_ids(duplicated);
    if (!clean.violations().empty() || dup.violations().empty()) {
      misses.push_back("duplicated UUID not detected");
    }
  }

  {  // dropped deposit: the depositor counted a key the store never got
    qkdpp::pipeline::KeyStore store;
    qkdpp::Xoshiro256 rng(7);
    std::uint64_t accepted = 0;
    for (int i = 0; i < 3; ++i) {
      accepted += 1024;
      store.deposit(rng.random_bits(1024));
    }
    const auto drawn = store.get_key("sae-a");
    const std::uint64_t drawn_bits = drawn ? drawn->bits.size() : 0;
    StoreAccount account{"self-test", &store, accepted, 0,
                         {{"sae-a", drawn_bits}}};
    Checker clean;
    clean.store(account);
    account.accepted_bits += 1024;  // the dropped fourth deposit
    Checker dropped;
    dropped.store(account);
    if (!clean.violations().empty() || dropped.violations().empty()) {
      misses.push_back("dropped deposit not detected");
    }
  }
  return misses;
}

}  // namespace perfbench
