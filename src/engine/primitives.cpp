#include "engine/primitives.hpp"

#include <algorithm>
#include <bit>

#include "common/entropy.hpp"
#include "common/error.hpp"
#include "privacy/toeplitz.hpp"

namespace qkdpp::engine {

SignalSplit split_sifted(const BitVec& sifted, const BitVec& signal_mask) {
  QKDPP_REQUIRE(sifted.size() == signal_mask.size(),
                "signal mask does not match sifted length");
  SignalSplit split;
  const std::size_t n_signal = signal_mask.popcount();
  split.signal_positions.reserve(n_signal);
  split.revealed_positions.reserve(sifted.size() - n_signal);
  // Walk mask words with count-trailing-zeros instead of testing every bit;
  // zero runs (and their complements) cost one word op each.
  const auto words = signal_mask.words();
  for (std::size_t wi = 0; wi < words.size(); ++wi) {
    const auto base = static_cast<std::uint32_t>(wi << 6);
    std::uint64_t sig = words[wi];
    while (sig != 0) {
      split.signal_positions.push_back(
          base + static_cast<std::uint32_t>(std::countr_zero(sig)));
      sig &= sig - 1;
    }
    std::uint64_t rev = ~words[wi];
    if (wi == words.size() - 1) {
      const std::size_t tail = sifted.size() & 63;
      if (tail != 0) rev &= (std::uint64_t{1} << tail) - 1;
    }
    while (rev != 0) {
      split.revealed_positions.push_back(
          base + static_cast<std::uint32_t>(std::countr_zero(rev)));
      rev &= rev - 1;
    }
  }
  return split;
}

std::vector<std::uint32_t> choose_pe_positions(const SignalSplit& split,
                                               double fraction,
                                               Xoshiro256& rng) {
  const auto sample_size = static_cast<std::size_t>(
      fraction * static_cast<double>(split.signal_positions.size()));
  // The sample indices come back ascending and signal_positions is
  // ascending, so the mapped sample is too; it is disjoint from the
  // (ascending) non-signal positions, and one merge orders the union.
  std::vector<std::uint32_t> sampled = rng.sample_without_replacement(
      split.signal_positions.size(), sample_size);
  for (auto& s : sampled) s = split.signal_positions[s];
  std::vector<std::uint32_t> positions(split.revealed_positions.size() +
                                       sampled.size());
  std::merge(split.revealed_positions.begin(), split.revealed_positions.end(),
             sampled.begin(), sampled.end(), positions.begin());
  return positions;
}

BitVec remaining_key(const BitVec& sifted, const BitVec& signal_mask,
                     const std::vector<std::uint32_t>& revealed) {
  QKDPP_REQUIRE(sifted.size() == signal_mask.size(),
                "signal mask does not match sifted length");
  // keep = signal & ~revealed, then one word-level compress.
  BitVec keep = signal_mask;
  auto keep_words = keep.mutable_words();
  for (const auto p : revealed) {
    if (p < sifted.size()) keep_words[p >> 6] &= ~(std::uint64_t{1} << (p & 63));
  }
  return sifted.select(keep);
}

BitVec apply_toeplitz(std::uint64_t seed, const BitVec& key,
                      std::size_t out_len) {
  const BitVec seed_bits =
      privacy::toeplitz_seed(seed, key.size() + out_len - 1);
  return privacy::toeplitz_hash(key, seed_bits, out_len);
}

double reconciliation_efficiency(std::uint64_t leaked_bits,
                                 std::size_t reconciled_bits,
                                 double qber) noexcept {
  if (reconciled_bits == 0) return 0.0;
  return static_cast<double>(leaked_bits) /
         (static_cast<double>(reconciled_bits) *
          binary_entropy(qber_floor(qber)));
}

}  // namespace qkdpp::engine
