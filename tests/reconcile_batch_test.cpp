// Batched quantized reconciliation: the decode-equivalence property (a
// frame decodes bit-identically alone or inside any batch, and under the
// AVX2 or the portable kernel), the bitmap-built rate adaptation against
// the sort-based reference, batch key reconciliation vs the sequential
// single-frame reference (corrected payloads AND leak accounting), the
// blind-vs-fixed-rate disclosure ordering on a quiet channel, and the
// batched planner's shape.
#include "reconcile/batch_decoder.hpp"
#include "reconcile/reconciler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace qkdpp::reconcile {
namespace {

BitVec corrupt(const BitVec& key, double q, Xoshiro256& rng) {
  BitVec noisy = key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    if (rng.bernoulli(q)) noisy.flip(i);
  }
  return noisy;
}

/// The decoder's int8 priors for float LLRs (the batch reconciler builds
/// them the same way: quantize_llr per value).
std::vector<std::int8_t> quantize_all(const std::vector<float>& llr) {
  std::vector<std::int8_t> prior(llr.size());
  std::transform(llr.begin(), llr.end(), prior.begin(), quantize_llr);
  return prior;
}

// --- kernel-level equivalence -------------------------------------------

// Decoding a frame inside a batch must be bit-identical to decoding it as
// a one-job batch: every lane's arithmetic is independent, so batching is
// purely a layout transform. 11 jobs force a partial lane word. The batch
// takes int8 priors; the single-frame facade quantizes the float LLRs
// itself, so this also pins that both routes feed the kernel the same
// integers.
TEST(BatchDecoder, BatchEqualsSingleFrameBitExact) {
  const LdpcCode code = LdpcCode::peg(1024, 512, DegreeProfile::regular(3), 1);
  constexpr std::size_t kJobs = 11;
  Xoshiro256 rng(42);

  std::vector<BitVec> syndromes;
  std::vector<std::vector<float>> llrs;
  for (std::size_t j = 0; j < kJobs; ++j) {
    const BitVec x = rng.random_bits(code.n());
    syndromes.push_back(code.syndrome(x));
    // Vary the noise per job so the batch mixes instant converges with
    // stragglers and (at 9%) likely failures.
    const double q = 0.01 + 0.01 * static_cast<double>(j % 9);
    const BitVec noisy = corrupt(x, q, rng);
    std::vector<float> llr(code.n());
    const float mag = bsc_llr(q);
    for (std::size_t v = 0; v < code.n(); ++v) {
      llr[v] = noisy.get(v) ? -mag : mag;
    }
    // Sprinkle punctured (erasure) and pinned (known) positions, the two
    // rate-adaptation LLR classes.
    for (std::size_t v = j; v < code.n(); v += 37) llr[v] = 0.0f;
    for (std::size_t v = j + 5; v < code.n(); v += 53) {
      llr[v] = x.get(v) ? -kKnownLlr : kKnownLlr;
    }
    llrs.push_back(std::move(llr));
  }

  DecoderConfig config;
  config.max_iterations = 30;
  std::vector<std::vector<std::int8_t>> priors;
  for (const auto& llr : llrs) priors.push_back(quantize_all(llr));
  std::vector<QuantDecodeJob> jobs(kJobs);
  for (std::size_t j = 0; j < kJobs; ++j) {
    jobs[j].syndrome = &syndromes[j];
    jobs[j].prior = &priors[j];
  }
  std::vector<DecodeResult> batch;
  decode_syndrome_batch(code, jobs, config, batch);
  ASSERT_EQ(batch.size(), kJobs);

  std::size_t converged = 0;
  for (std::size_t j = 0; j < kJobs; ++j) {
    const DecodeResult single =
        decode_syndrome_quant(code, syndromes[j], llrs[j], config);
    EXPECT_EQ(batch[j].converged, single.converged) << "job " << j;
    EXPECT_EQ(batch[j].iterations, single.iterations) << "job " << j;
    if (batch[j].converged && single.converged) {
      EXPECT_EQ(batch[j].word, single.word) << "job " << j;
      EXPECT_TRUE(code.syndrome_matches(batch[j].word, syndromes[j]));
      ++converged;
    }
  }
  EXPECT_GE(converged, 5u);  // the quiet jobs must actually decode
}

// --- kernel-level equivalence: AVX2 vs portable --------------------------

// The AVX2 kernel must compute the portable kernel's integers in every
// lane: same convergence, same iteration, same word for every job, at
// every batch size (partial 16-lane rows, 17 and 33 spilling into another
// row, the full 64) on a PEG n = 4096 code and the quasi-cyclic n = 16380
// code. Per-job noise spreads convergence over many iterations, and the
// pinned +-kKnownLlr positions sit on the int8 rails.
class MinSumKernelEquivalence
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MinSumKernelEquivalence, Avx2MatchesPortableBitExact) {
  using detail::MinSumKernel;
  if (!detail::min_sum_kernel_supported(MinSumKernel::kAvx2)) {
    GTEST_SKIP() << "CPU lacks AVX2";
  }
  const LdpcCode& code = code_by_id(GetParam());
  Xoshiro256 rng(1000 + GetParam());

  std::vector<BitVec> syndromes;
  std::vector<std::vector<float>> llrs;
  for (std::size_t j = 0; j < kMaxBatchFrames; ++j) {
    const BitVec x = rng.random_bits(code.n());
    syndromes.push_back(code.syndrome(x));
    const double q = 0.004 + 0.003 * static_cast<double>(j % 9);
    const BitVec noisy = corrupt(x, q, rng);
    std::vector<float> llr(code.n());
    const float mag = bsc_llr(q);
    for (std::size_t v = 0; v < code.n(); ++v) {
      llr[v] = noisy.get(v) ? -mag : mag;
    }
    for (std::size_t v = j; v < code.n(); v += 41) llr[v] = 0.0f;
    for (std::size_t v = j + 3; v < code.n(); v += 29) {
      llr[v] = x.get(v) ? -kKnownLlr : kKnownLlr;
    }
    // A quarter of the jobs also carry a few confidently wrong positions:
    // their checks pull posteriors far past the rails in both directions,
    // the only place a mis-clamped q shows up in the output.
    for (std::size_t v = j + 7; j % 4 == 3 && v < code.n(); v += 331) {
      llr[v] = x.get(v) ? 12.0f : -12.0f;
    }
    llrs.push_back(std::move(llr));
  }
  std::vector<std::vector<std::int8_t>> priors;
  for (const auto& llr : llrs) priors.push_back(quantize_all(llr));
  std::vector<QuantDecodeJob> all(kMaxBatchFrames);
  for (std::size_t j = 0; j < kMaxBatchFrames; ++j) {
    all[j] = {&syndromes[j], &priors[j]};
  }

  DecoderConfig config;
  config.max_iterations = 20;
  std::size_t converged = 0;
  std::size_t failed = 0;
  std::vector<unsigned> iterations_seen;
  for (const std::size_t batch : {1, 2, 4, 9, 16, 17, 33, 64}) {
    const std::span<const QuantDecodeJob> jobs(all.data(), batch);
    std::vector<DecodeResult> portable;
    std::vector<DecodeResult> avx2;
    detail::decode_syndrome_batch_with(MinSumKernel::kPortable, code, jobs,
                                       config, portable);
    detail::decode_syndrome_batch_with(MinSumKernel::kAvx2, code, jobs,
                                       config, avx2);
    ASSERT_EQ(portable.size(), batch);
    ASSERT_EQ(avx2.size(), batch);
    for (std::size_t j = 0; j < batch; ++j) {
      EXPECT_EQ(avx2[j].converged, portable[j].converged)
          << "batch " << batch << " job " << j;
      EXPECT_EQ(avx2[j].iterations, portable[j].iterations)
          << "batch " << batch << " job " << j;
      EXPECT_EQ(avx2[j].word, portable[j].word)
          << "batch " << batch << " job " << j;
      if (batch == kMaxBatchFrames) {
        (portable[j].converged ? converged : failed) += 1;
        iterations_seen.push_back(portable[j].iterations);
      }
    }
  }
  // The batch must really mix outcomes, or lanes never diverge.
  std::sort(iterations_seen.begin(), iterations_seen.end());
  const auto distinct = static_cast<std::size_t>(
      std::unique(iterations_seen.begin(), iterations_seen.end()) -
      iterations_seen.begin());
  EXPECT_GE(converged, 8u);
  EXPECT_GE(failed, 1u);
  EXPECT_GE(distinct, 4u);
}

// Code ids from the built-in table: 7 is the PEG (n = 4096, rate 0.8)
// code, 13 the quasi-cyclic n = 16380 rate-0.8 code.
INSTANTIATE_TEST_SUITE_P(Codes, MinSumKernelEquivalence,
                         ::testing::Values(std::uint32_t{7},
                                           std::uint32_t{13}));

// --- rate adaptation: bitmap classes vs the sort-based construction -----

// Sort-based reference construction: sort the permutation's
// first d and next s entries, then collect the unmarked rest through a
// byte vector.
RateAdaptation sorted_adaptation(std::size_t n, std::uint32_t d,
                                 std::uint32_t s, std::uint64_t seed) {
  Xoshiro256 rng(seed ^ 0xada97ca7104eULL);
  const auto perm = rng.permutation(n);
  RateAdaptation adaptation;
  adaptation.punctured.assign(perm.begin(), perm.begin() + d);
  adaptation.shortened.assign(perm.begin() + d, perm.begin() + d + s);
  std::sort(adaptation.punctured.begin(), adaptation.punctured.end());
  std::sort(adaptation.shortened.begin(), adaptation.shortened.end());
  std::vector<std::uint8_t> special(n, 0);
  for (const auto p : adaptation.punctured) special[p] = 1;
  for (const auto x : adaptation.shortened) special[x] = 1;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (!special[v]) adaptation.payload.push_back(v);
  }
  return adaptation;
}

TEST(RateAdapt, DeriveAdaptationMatchesSortedConstruction) {
  struct Shape {
    std::size_t n;
    std::uint32_t d;
    std::uint32_t s;
  };
  // Word-aligned and ragged n, empty classes, and classes covering the
  // whole frame.
  const Shape shapes[] = {{4096, 300, 109}, {1000, 100, 50}, {1, 0, 0},
                          {63, 0, 63},      {65, 65, 0},     {130, 7, 0},
                          {16380, 0, 1638}, {200, 120, 80}};
  for (const Shape& shape : shapes) {
    for (const std::uint64_t seed : {1ULL, 42ULL, 0xfeedULL}) {
      const RateAdaptation got =
          derive_adaptation(shape.n, shape.d, shape.s, seed);
      const RateAdaptation want =
          sorted_adaptation(shape.n, shape.d, shape.s, seed);
      EXPECT_EQ(got.punctured, want.punctured) << shape.n << "/" << seed;
      EXPECT_EQ(got.shortened, want.shortened) << shape.n << "/" << seed;
      EXPECT_EQ(got.payload, want.payload) << shape.n << "/" << seed;
      BitVec mask(shape.n);
      for (const auto v : want.payload) mask.set(v, true);
      EXPECT_EQ(got.payload_mask, mask) << shape.n << "/" << seed;
    }
  }
}

TEST(RateAdapt, SenderExposesTheDerivedAdaptation) {
  LdpcReconcilerConfig config;
  const FramePlan plan = plan_frame_batched(4 * 4096, 0.02, config.f_target,
                                            config.adapt_fraction, 4);
  Xoshiro256 rng(5);
  const BitVec payload = rng.random_bits(plan.payload_bits);
  const LdpcFrameSender sender(plan, payload, 0xabc, rng);
  const RateAdaptation want =
      sorted_adaptation(code_by_id(plan.code_id).n(), plan.n_punctured,
                        plan.n_shortened, 0xabc);
  EXPECT_EQ(sender.adaptation().punctured, want.punctured);
  EXPECT_EQ(sender.adaptation().shortened, want.shortened);
  EXPECT_EQ(sender.adaptation().payload, want.payload);
}

// --- key-level equivalence over a (seed, QBER) grid ---------------------

// ldpc_reconcile_key_batch must reproduce the sequential single-frame
// protocol exactly: same corrected payloads, same leak, same rounds, for
// every frame - including the shared private-RNG stream that fills the
// punctured positions in frame order. Returns the batched arm's per-frame
// outcomes.
std::vector<ReconcileOutcome> expect_batch_matches_sequential(
    std::uint64_t seed, double qber, const LdpcReconcilerConfig& config) {
  Xoshiro256 rng(seed);
  const FramePlan plan =
      plan_frame_batched(4 * 4096, qber, config.f_target,
                         config.adapt_fraction, /*target_frames=*/4);
  EXPECT_GT(plan.payload_bits, 0u);
  if (plan.payload_bits == 0) return {};
  const std::size_t frames = 4;
  const BitVec alice = rng.random_bits(frames * plan.payload_bits);
  const BitVec bob = corrupt(alice, qber, rng);
  std::vector<std::uint64_t> frame_seeds;
  for (std::size_t f = 0; f < frames; ++f) {
    frame_seeds.push_back((seed << 20) ^ (f * 0x9e3779b97f4a7c15ULL));
  }

  // Batched arm.
  Xoshiro256 batch_private(seed * 7 + 1);
  BitVec alice_out;
  BitVec bob_out;
  std::vector<ReconcileOutcome> per_frame;
  const BatchReconcileStats stats = ldpc_reconcile_key_batch(
      alice, bob, qber, plan, frame_seeds, config, batch_private,
      /*arena=*/nullptr, alice_out, bob_out, &per_frame);
  EXPECT_EQ(per_frame.size(), frames);
  if (per_frame.size() != frames) return per_frame;

  // Sequential reference: same plan, same seeds, same private RNG stream.
  Xoshiro256 seq_private(seed * 7 + 1);
  BitVec expected_out;
  std::uint64_t expected_leak = 0;
  for (std::size_t f = 0; f < frames; ++f) {
    BitVec alice_slice(plan.payload_bits);
    BitVec bob_slice(plan.payload_bits);
    for (std::size_t i = 0; i < plan.payload_bits; ++i) {
      alice_slice.set(i, alice.get(f * plan.payload_bits + i));
      bob_slice.set(i, bob.get(f * plan.payload_bits + i));
    }
    const ReconcileOutcome single = ldpc_reconcile_local(
        alice_slice, bob_slice, qber, plan, frame_seeds[f], config,
        seq_private);

    EXPECT_EQ(per_frame[f].success, single.success) << "frame " << f;
    EXPECT_EQ(per_frame[f].leaked_bits, single.leaked_bits) << "frame " << f;
    EXPECT_EQ(per_frame[f].rounds, single.rounds) << "frame " << f;
    EXPECT_EQ(per_frame[f].decoder_iterations, single.decoder_iterations)
        << "frame " << f;
    EXPECT_EQ(per_frame[f].blind_rounds, single.blind_rounds) << "frame " << f;
    if (per_frame[f].success && single.success) {
      EXPECT_EQ(per_frame[f].corrected, single.corrected) << "frame " << f;
      EXPECT_EQ(single.corrected, alice_slice) << "frame " << f;
      expected_out.append(single.corrected);
    }
    expected_leak += single.leaked_bits;
  }
  EXPECT_EQ(alice_out, expected_out);
  EXPECT_EQ(bob_out, expected_out);
  EXPECT_EQ(stats.leaked_bits, expected_leak);
  EXPECT_EQ(stats.frames, frames);
  return per_frame;
}

class BatchKeyEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(BatchKeyEquivalence, MatchesSequentialSingleFrameProtocol) {
  const auto [seed, qber] = GetParam();
  expect_batch_matches_sequential(seed, qber, LdpcReconcilerConfig{});
}

INSTANTIATE_TEST_SUITE_P(
    SeedQberGrid, BatchKeyEquivalence,
    ::testing::Combine(::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3}),
                       ::testing::Values(0.005, 0.02, 0.04)));

// The engine caps the batched decoder at 20 iterations. There, on the
// punctured plans of a quiet channel, some frames fail their first decode
// and converge only after a blind reveal; at the default budget the grid
// above has no frame whose outcome a reveal decides. Equivalence must hold
// for those frames too, and the grid must contain at least one: otherwise
// a reveal applied with the wrong sign would pass unnoticed.
TEST(BatchKeyEquivalenceAtEngineCap, BlindRescuesMatchSequentialProtocol) {
  LdpcReconcilerConfig config;
  config.decoder.max_iterations = 20;
  std::size_t rescued = 0;
  for (const std::uint64_t seed : {1, 2}) {
    for (const double qber : {0.008, 0.012}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " qber " << qber);
      for (const ReconcileOutcome& frame :
           expect_batch_matches_sequential(seed, qber, config)) {
        if (frame.blind_rounds >= 1 && frame.success) ++rescued;
      }
    }
  }
  EXPECT_GE(rescued, 1u) << "no frame of the grid was decided by a reveal";
}

// --- blind reconciliation beats fixed-rate on a quiet channel -----------

// On a quiet channel (QBER <= 1%) the blind plan punctures aggressively
// and reveals nothing: total disclosure must be strictly below the
// fixed-rate baseline of the same mother code, which discloses the full
// syndrome (m bits) per frame.
TEST(BatchReconcile, QuietChannelBlindLeaksLessThanFixedRate) {
  const double qber = 0.008;
  Xoshiro256 rng(77);
  LdpcReconcilerConfig config;
  const FramePlan plan = plan_frame_batched(4 * 4096, qber, config.f_target,
                                            config.adapt_fraction, 4);
  ASSERT_GT(plan.n_punctured, 0u) << "quiet channel should puncture";
  const LdpcCode& code = code_by_id(plan.code_id);

  const std::size_t frames = 4;
  const BitVec alice = rng.random_bits(frames * plan.payload_bits);
  const BitVec bob = corrupt(alice, qber, rng);
  std::vector<std::uint64_t> frame_seeds{11, 22, 33, 44};

  Xoshiro256 alice_private(78);
  BitVec alice_out;
  BitVec bob_out;
  const BatchReconcileStats blind = ldpc_reconcile_key_batch(
      alice, bob, qber, plan, frame_seeds, config, alice_private,
      /*arena=*/nullptr, alice_out, bob_out);
  ASSERT_EQ(blind.frames_ok, frames) << "quiet channel must converge";

  // Fixed-rate on the same mother code: no puncturing, no shortening, the
  // whole n-bit frame is payload and the whole m-bit syndrome is leaked.
  FramePlan fixed = plan;
  fixed.n_punctured = 0;
  fixed.n_shortened = 0;
  fixed.payload_bits = code.n();
  Xoshiro256 rng2(79);
  const BitVec alice_fixed = rng2.random_bits(frames * fixed.payload_bits);
  const BitVec bob_fixed = corrupt(alice_fixed, qber, rng2);
  Xoshiro256 alice_private2(80);
  BitVec afo;
  BitVec bfo;
  const BatchReconcileStats fixed_stats = ldpc_reconcile_key_batch(
      alice_fixed, bob_fixed, qber, fixed, frame_seeds, config,
      alice_private2, /*arena=*/nullptr, afo, bfo);
  ASSERT_EQ(fixed_stats.frames_ok, frames);
  EXPECT_EQ(fixed_stats.leaked_bits, frames * code.m());

  // Per-frame disclosure ordering, and strictly so.
  EXPECT_LT(blind.leaked_bits / frames, code.m());
  EXPECT_LT(blind.leaked_bits, fixed_stats.leaked_bits);
}

// --- batched planner shape ----------------------------------------------

TEST(RateAdaptBatched, CutsLargeKeysIntoTargetLanes) {
  const FramePlan plan = plan_frame_batched(16 * 4096, 0.02, 1.45);
  const LdpcCode& code = code_by_id(plan.code_id);
  EXPECT_GE(code.n(), 4096u);
  ASSERT_GT(plan.payload_bits, 0u);
  // Default target is 8 lanes: the chosen payload must cut the key into
  // at least that many frames.
  EXPECT_GE((16 * 4096) / plan.payload_bits, 8u);
  EXPECT_GE(plan.predicted_efficiency, 1.0);
}

TEST(RateAdaptBatched, SmallKeysFallBackToFittingPlans) {
  const FramePlan plan = plan_frame_batched(1500, 0.02, 1.45);
  EXPECT_LE(plan.payload_bits, 1500u);
  EXPECT_GT(plan.payload_bits, 0u);
}

TEST(RateAdaptBatched, TinyKeysThrow) {
  EXPECT_THROW(plan_frame_batched(100, 0.02, 1.45), Error);
}

}  // namespace
}  // namespace qkdpp::reconcile
