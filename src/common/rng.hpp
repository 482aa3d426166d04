// Deterministic, fast randomness for simulation and protocol seeds.
//
// xoshiro256** (Blackman & Vigna) seeded through SplitMix64. Deterministic
// given a seed, which the whole test/bench suite relies on for
// reproducibility. NOT a CSPRNG: the library treats it as a source of
// *simulated* physical randomness and of bench workloads; security-relevant
// seeds in a deployment would come from a QRNG/OS entropy.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

#include "common/bitvec.hpp"

namespace qkdpp {

class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  bool bernoulli(double p) noexcept { return next_double() < p; }

  /// Uniform integer in [0, bound) (Lemire's method).
  std::uint64_t uniform(std::uint64_t bound) noexcept;

  /// Poisson sample; inversion for small mean (QKD pulse intensities are
  /// mu <= ~1), normal approximation above 30 where exactness stops mattering.
  std::uint32_t poisson(double mean) noexcept;

  /// Standard normal (Box-Muller, cached second value).
  double normal() noexcept;

  /// `nbits` i.i.d. uniform bits.
  BitVec random_bits(std::size_t nbits) noexcept;

  /// Fisher-Yates shuffle of a permutation target.
  template <typename T>
  void shuffle(std::span<T> data) noexcept {
    for (std::size_t i = data.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform(i));
      std::swap(data[i - 1], data[j]);
    }
  }

  /// The identity permutation on n elements, shuffled.
  std::vector<std::uint32_t> permutation(std::size_t n) noexcept;

  /// k distinct indices from [0, n), ascending. Draws by rejection when
  /// k * 20 < n, else by partial Fisher-Yates; either way the chosen
  /// indices mark a bitmap over [0, n) whose word walk (count-trailing-
  /// zeros) emits them in ascending order, so no sort runs.
  std::vector<std::uint32_t> sample_without_replacement(std::size_t n,
                                                        std::size_t k);

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace qkdpp
