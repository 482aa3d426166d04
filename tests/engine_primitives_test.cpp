// Word-parallel engine primitives vs bit-at-a-time references:
// split_sifted's ctz walk and remaining_key's mask-and-compress must agree
// with the scalar definitions at word-boundary sizes, and
// choose_pe_positions' merge with copy plus sort.
#include "engine/primitives.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace qkdpp::engine {
namespace {

SignalSplit split_sifted_reference(const BitVec& sifted,
                                   const BitVec& signal_mask) {
  SignalSplit split;
  for (std::size_t i = 0; i < sifted.size(); ++i) {
    if (signal_mask.get(i)) {
      split.signal_positions.push_back(static_cast<std::uint32_t>(i));
    } else {
      split.revealed_positions.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return split;
}

BitVec remaining_key_reference(const BitVec& sifted, const BitVec& signal_mask,
                               const std::vector<std::uint32_t>& revealed) {
  std::vector<std::uint8_t> is_revealed(sifted.size(), 0);
  for (const auto p : revealed) {
    if (p < is_revealed.size()) is_revealed[p] = 1;
  }
  BitVec key;
  for (std::size_t i = 0; i < sifted.size(); ++i) {
    if (signal_mask.get(i) && !is_revealed[i]) {
      key.push_back(sifted.get(i));
    }
  }
  return key;
}

TEST(Primitives, SplitSiftedMatchesReference) {
  Xoshiro256 rng(1);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 127u, 128u, 129u, 5000u}) {
    const BitVec sifted = rng.random_bits(n);
    const BitVec mask = rng.random_bits(n);
    const SignalSplit got = split_sifted(sifted, mask);
    const SignalSplit expected = split_sifted_reference(sifted, mask);
    EXPECT_EQ(got.signal_positions, expected.signal_positions) << n;
    EXPECT_EQ(got.revealed_positions, expected.revealed_positions) << n;
  }
}

TEST(Primitives, SplitSiftedExtremeMasks) {
  Xoshiro256 rng(2);
  const std::size_t n = 192;
  const BitVec sifted = rng.random_bits(n);
  const auto all = split_sifted(sifted, BitVec(n, true));
  EXPECT_EQ(all.signal_positions.size(), n);
  EXPECT_TRUE(all.revealed_positions.empty());
  const auto none = split_sifted(sifted, BitVec(n));
  EXPECT_TRUE(none.signal_positions.empty());
  EXPECT_EQ(none.revealed_positions.size(), n);
}

TEST(Primitives, RemainingKeyMatchesReference) {
  Xoshiro256 rng(3);
  for (const std::size_t n : {63u, 64u, 65u, 128u, 129u, 4000u}) {
    const BitVec sifted = rng.random_bits(n);
    const BitVec mask = rng.random_bits(n);
    // Reveal a random third of all positions (some not in the signal set,
    // some duplicated - both must be tolerated).
    std::vector<std::uint32_t> revealed;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(0.33)) {
        revealed.push_back(static_cast<std::uint32_t>(i));
        if (rng.bernoulli(0.1)) {
          revealed.push_back(static_cast<std::uint32_t>(i));  // duplicate
        }
      }
    }
    EXPECT_EQ(remaining_key(sifted, mask, revealed),
              remaining_key_reference(sifted, mask, revealed))
        << n;
  }
}

TEST(Primitives, RemainingKeyRevealAllAndNone) {
  Xoshiro256 rng(4);
  const std::size_t n = 300;
  const BitVec sifted = rng.random_bits(n);
  const BitVec mask = rng.random_bits(n);
  std::vector<std::uint32_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = static_cast<std::uint32_t>(i);
  EXPECT_TRUE(remaining_key(sifted, mask, all).empty());
  EXPECT_EQ(remaining_key(sifted, mask, {}).size(), mask.popcount());
}

// Copy-plus-sort reference for choose_pe_positions, on the same draw.
std::vector<std::uint32_t> choose_pe_positions_reference(
    const SignalSplit& split, double fraction, Xoshiro256& rng) {
  const auto sample_size = static_cast<std::size_t>(
      fraction * static_cast<double>(split.signal_positions.size()));
  std::vector<std::uint32_t> positions = split.revealed_positions;
  for (const auto s : rng.sample_without_replacement(
           split.signal_positions.size(), sample_size)) {
    positions.push_back(split.signal_positions[s]);
  }
  std::sort(positions.begin(), positions.end());
  return positions;
}

TEST(Primitives, ChoosePePositionsMatchesCopyPlusSort) {
  Xoshiro256 gen(5);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 130u, 5000u, 40000u}) {
    for (const double signal_share : {0.0, 0.3, 0.7, 1.0}) {
      BitVec mask(n);
      for (std::size_t i = 0; i < n; ++i) {
        mask.set(i, gen.bernoulli(signal_share));
      }
      const SignalSplit split = split_sifted(gen.random_bits(n), mask);
      for (const double fraction : {0.0, 0.01, 0.1, 0.5, 1.0}) {
        Xoshiro256 rng(n * 31 + static_cast<std::uint64_t>(fraction * 100));
        Xoshiro256 ref_rng(n * 31 + static_cast<std::uint64_t>(fraction * 100));
        EXPECT_EQ(choose_pe_positions(split, fraction, rng),
                  choose_pe_positions_reference(split, fraction, ref_rng))
            << n << " bits, signal share " << signal_share << ", fraction "
            << fraction;
        EXPECT_EQ(rng.next_u64(), ref_rng.next_u64());
      }
    }
  }
}

}  // namespace
}  // namespace qkdpp::engine
