// Batched int8-quantized LDPC syndrome decoding.
//
// The throughput decoder behind the reconcile stage: layered normalized
// min-sum over 8-bit fixed-point LLRs, decoding up to 64 frames of the
// same mother code in lockstep. State is lane-major - posterior[v] and
// message r[e] are short arrays with one element per frame - so one pass
// over the (shared, 16-bit-compressed) adjacency updates every frame at
// once, the same trick the clmul Toeplitz kernel plays across words.
//
// Two kernels compute each iteration, chosen once per process:
//   * AVX2 (x86-64 CPUs that report it, via __builtin_cpu_supports): one
//     256-bit row holds 16 int16 lanes, batches round up to 16/32/48/64
//     lanes, min1/min2/parity stay in registers across a check, and hard
//     decisions come from packs + movemask. Built with a function-level
//     target attribute, so the rest of the library stays baseline x86-64.
//   * Portable (every other host): templated int16 lane loops at
//     4/8/16/32/64 lanes, left to the compiler's baseline codegen (which
//     stages min1/min2/parity through memory and packs hard decisions one
//     lane at a time - 3-5x slower than AVX2 on the same host).
// Both produce the same integers in every lane, so iterations, words and
// leakage do not depend on which one ran.
//
// Fixed-point format: LLRs carry 3 fractional bits (scale 8) and saturate
// at +-127, so the "known" magnitude kKnownLlr (64.0) pins to the rail.
// Messages are int8; posteriors live in int16 and cannot overflow: a
// posterior is a clamped +-127 prior plus one +-127 message per layer
// step, bounded well inside int16. The normalization alpha is 26/32 =
// 0.8125, one multiply and shift per message.
//
// Every lane's arithmetic is independent of every other lane's, so a
// frame decodes bit-identically whether it rides alone or shares a batch
// - the decode-equivalence property the reconcile_batch tests pin down,
// and what lets the blind reconciliation layer account leakage the same
// way on both paths. Convergence is checked per frame each iteration:
// hard decisions are lane-packed into one word per variable, syndromes
// XOR-fold per check, and lanes leave the `unresolved` mask (and stop
// costing anything but a skipped store) as soon as their syndrome
// matches.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.hpp"
#include "reconcile/ldpc_code.hpp"
#include "reconcile/ldpc_decoder.hpp"

namespace qkdpp::reconcile {

/// Fixed-point LLR scale: 3 fractional bits, saturating at +-127.
constexpr int kLlrQuantScale = 8;

/// Quantize one float LLR to the decoder's int8 format (round to nearest,
/// ties away from zero, saturate at +-127).
std::int8_t quantize_llr(float llr) noexcept;

/// Lanes per batch: one frame per bit of a lane word.
constexpr std::size_t kMaxBatchFrames = 64;

/// One frame of a lockstep batch. All jobs in a batch share the code;
/// each brings its own syndrome and its priors already in the decoder's
/// int8 fixed-point format (quantize_llr of the float LLR: 3 fractional
/// bits, saturating at +-127). Callers that reuse priors across blind
/// attempts quantize once and patch revealed positions in place; the
/// driver only copies the int8 rows into its lanes.
struct QuantDecodeJob {
  const BitVec* syndrome = nullptr;             ///< length code.m()
  const std::vector<std::int8_t>* prior = nullptr;  ///< length code.n()
};

/// Decode up to kMaxBatchFrames frames in lockstep. `results` is resized
/// to jobs.size(); result f reports frame f's convergence, the iteration
/// it converged on (or the cap), and its hard decision (snapshotted the
/// iteration its syndrome matched; the final hard decision when it never
/// did). Scratch comes from config.arena when set, thread-local buffers
/// otherwise. Requires code.n() <= 65536 (the shared adjacency is
/// compressed to 16-bit indices) and check degrees <= 64.
void decode_syndrome_batch(const LdpcCode& code,
                           std::span<const QuantDecodeJob> jobs,
                           const DecoderConfig& config,
                           std::vector<DecodeResult>& results);

namespace detail {

/// The lockstep iteration kernels behind decode_syndrome_batch, exposed so
/// tests and benches can run both on the same jobs.
enum class MinSumKernel { kPortable, kAvx2 };

/// kPortable always; kAvx2 on x86-64 CPUs reporting AVX2.
bool min_sum_kernel_supported(MinSumKernel kernel) noexcept;

/// decode_syndrome_batch with the kernel forced instead of chosen by the
/// CPU. Throws when `kernel` is not supported on this host.
void decode_syndrome_batch_with(MinSumKernel kernel, const LdpcCode& code,
                                std::span<const QuantDecodeJob> jobs,
                                const DecoderConfig& config,
                                std::vector<DecodeResult>& results);

}  // namespace detail

/// Single-frame facade over the same quantized kernel: quantizes `llr`
/// once and decodes it as a one-job batch (bit-identical to the frame's
/// result inside any batch).
DecodeResult decode_syndrome_quant(const LdpcCode& code, const BitVec& syndrome,
                                   const std::vector<float>& llr,
                                   const DecoderConfig& config);

}  // namespace qkdpp::reconcile
