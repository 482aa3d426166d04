// Xoshiro256 statistical sanity + determinism tests.
#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <unordered_set>
#include <utility>

namespace qkdpp {
namespace {

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliMean) {
  Xoshiro256 rng(6);
  const double p = 0.11;
  const int n = 200000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(p);
  const double observed = static_cast<double>(hits) / n;
  // ~6 sigma tolerance
  EXPECT_NEAR(observed, p, 6 * std::sqrt(p * (1 - p) / n));
}

TEST(Rng, UniformBoundRespected) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
  EXPECT_EQ(rng.uniform(1), 0u);
  EXPECT_EQ(rng.uniform(0), 0u);
}

TEST(Rng, UniformCoversAllResidues) {
  Xoshiro256 rng(8);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, PoissonMeanAndVariance) {
  Xoshiro256 rng(9);
  const double mu = 0.48;  // typical signal-state intensity
  const int n = 200000;
  double sum = 0, sumsq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.poisson(mu);
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, mu, 0.02);
  EXPECT_NEAR(var, mu, 0.03);
}

TEST(Rng, PoissonLargeMeanNormalApprox) {
  Xoshiro256 rng(10);
  const double mu = 50.0;
  const int n = 50000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.poisson(mu);
  EXPECT_NEAR(sum / n, mu, 0.5);
}

TEST(Rng, NormalMoments) {
  Xoshiro256 rng(11);
  const int n = 200000;
  double sum = 0, sumsq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(Rng, RandomBitsBalanced) {
  Xoshiro256 rng(12);
  const std::size_t n = 1 << 18;
  const BitVec bits = rng.random_bits(n);
  const double frac = static_cast<double>(bits.popcount()) / n;
  EXPECT_NEAR(frac, 0.5, 0.01);
}

TEST(Rng, RandomBitsTailInvariant) {
  Xoshiro256 rng(13);
  const BitVec bits = rng.random_bits(70);
  EXPECT_EQ(bits.words().back() >> 6, 0u);  // bits 70..127 zero
}

TEST(Rng, PermutationIsPermutation) {
  Xoshiro256 rng(14);
  const auto p = rng.permutation(1000);
  std::vector<bool> seen(1000, false);
  for (const auto x : p) {
    ASSERT_LT(x, 1000u);
    ASSERT_FALSE(seen[x]);
    seen[x] = true;
  }
}

TEST(Rng, PermutationNotIdentity) {
  Xoshiro256 rng(15);
  const auto p = rng.permutation(1000);
  std::size_t fixed = 0;
  for (std::size_t i = 0; i < p.size(); ++i) fixed += p[i] == i;
  EXPECT_LT(fixed, 20u);  // expected ~1 fixed point
}

TEST(Rng, SampleWithoutReplacementDistinctSorted) {
  Xoshiro256 rng(16);
  for (const std::size_t k : {0u, 1u, 10u, 500u, 999u, 1000u}) {
    const auto s = rng.sample_without_replacement(1000, k);
    ASSERT_EQ(s.size(), k);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    EXPECT_TRUE(std::adjacent_find(s.begin(), s.end()) == s.end());
    for (const auto x : s) EXPECT_LT(x, 1000u);
  }
}

// Sort-based reference: the same draws (rejection against a hash set for
// k * 20 < n, partial Fisher-Yates otherwise), then std::sort.
std::vector<std::uint32_t> sample_reference(Xoshiro256& rng, std::size_t n,
                                            std::size_t k) {
  std::vector<std::uint32_t> out;
  if (k == 0) return out;
  if (k * 20 < n) {
    std::unordered_set<std::uint32_t> seen;
    while (out.size() < k) {
      const auto candidate = static_cast<std::uint32_t>(rng.uniform(n));
      if (seen.insert(candidate).second) out.push_back(candidate);
    }
  } else {
    std::vector<std::uint32_t> pool(n);
    std::iota(pool.begin(), pool.end(), 0u);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(rng.uniform(n - i));
      std::swap(pool[i], pool[j]);
      out.push_back(pool[i]);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Same seed, same output, and the generator left in the same state (the
// next draw agrees), on both branches and at k = 0 and k = n.
TEST(Rng, SampleWithoutReplacementMatchesSortedReference) {
  struct Case {
    std::size_t n;
    std::size_t k;
  };
  const Case cases[] = {{0, 0},       {1, 0},       {1, 1},     {64, 64},
                        {1000, 0},    {1000, 1},    {1000, 49}, {1000, 50},
                        {1000, 999},  {1000, 1000}, {65, 3},    {70'000, 2'000},
                        {70'000, 3'500}, {35'000, 3'500}};
  std::uint64_t seed = 100;
  for (const Case& c : cases) {
    Xoshiro256 rng(seed);
    Xoshiro256 ref_rng(seed);
    ++seed;
    EXPECT_EQ(rng.sample_without_replacement(c.n, c.k),
              sample_reference(ref_rng, c.n, c.k))
        << c.n << " choose " << c.k;
    EXPECT_EQ(rng.next_u64(), ref_rng.next_u64()) << c.n << " choose " << c.k;
  }
}

TEST(Rng, SampleMoreThanPopulationThrows) {
  Xoshiro256 rng(17);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, SampleSparsePathUniform) {
  // k*20 < n triggers the rejection path; check rough uniformity.
  Xoshiro256 rng(18);
  std::vector<int> counts(100, 0);
  for (int trial = 0; trial < 2000; ++trial) {
    for (const auto x : rng.sample_without_replacement(100, 2)) ++counts[x];
  }
  const auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_GT(*mn, 10);
  EXPECT_LT(*mx, 100);
}

}  // namespace
}  // namespace qkdpp
