// Reconciliation engine A/B bench: legacy float belief propagation vs the
// batched int8 lockstep decoder, on byte-identical blocks; then the two
// min-sum kernels behind the batched decoder (AVX2 vs portable) on
// byte-identical frames.
//
// Each distance simulates ONE detection record, then post-processes it with
// both decoder arms from the same seed - the sifted material, the sampled
// QBER and the frame payloads are identical, so any reconcile-stage delta is
// the decoder, not the physics. The bench self-gates: the batched arm must
// clear kMinItemsPerS10km through the reconcile stage at 10 km (5x the
// pre-batching recorded throughput), and must not lose reconcile or
// end-to-end time to the legacy arm at any distance where both complete.
// The kernel A/B decodes frames shaped like the 10 km block's reconcile
// call (the planner's code, frame count, puncturing and shortening at the
// block's QBER, the engine's 20-iteration cap) with both kernels in the
// same run, and gates that their results are bit-identical and, where the
// CPU has AVX2, that the AVX2 kernel is at least kMinKernelSpeedup faster.
// A violated gate exits non-zero, which fails scripts/run_benches.sh.
//
// The final stdout line is a machine-readable JSON summary.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/sim_adapter.hpp"
#include "pipeline/offline.hpp"
#include "reconcile/batch_decoder.hpp"
#include "reconcile/ldpc_code.hpp"
#include "reconcile/rate_adapt.hpp"
#include "reconcile/reconciler.hpp"
#include "sim/bb84.hpp"

namespace {

using namespace qkdpp;

// Headline gate: the pre-batching pipeline reconciled 6.44 blocks/s at
// 10 km (bench/baseline.json history); the batched engine must clear 5x
// that. An absolute floor rather than the in-run A/B ratio because the
// legacy arm's convergence is seed-luck (a lucky block decodes in 10
// iterations, an unlucky one in 300) - the floor pins the claim to the
// recorded trajectory instead of the luck of one draw.
constexpr double kMinItemsPerS10km = 5.0 * 6.44;

// Kernel gate: where the CPU has AVX2, the AVX2 min-sum kernel must decode
// the 10 km batch at least this much faster than the portable kernel.
constexpr double kMinKernelSpeedup = 1.5;

// The engine caps each batched decode attempt at 20 iterations
// (kBatchIterationCap in engine/stages.cpp).
constexpr unsigned kEngineIterationCap = 20;

struct Arm {
  bool ok = false;
  std::string abort_reason;
  double reconcile_s = 0.0;  ///< best rep
  double e2e_s = 0.0;        ///< best rep, post-processing total
  std::uint64_t frames = 0;
  std::uint64_t iterations = 0;
  std::uint64_t early_exit_frames = 0;
  std::uint64_t leaked_bits = 0;
  std::size_t secret_bits = 0;
  std::size_t key_bits = 0;  ///< key candidates left after the PE sample
  double qber_estimate = 0.0;

  double items_per_s() const {
    return reconcile_s > 0.0 ? 1.0 / reconcile_s : 0.0;
  }
  double blocks_per_s() const { return e2e_s > 0.0 ? 1.0 / e2e_s : 0.0; }
  double iterations_mean() const {
    return frames ? static_cast<double>(iterations) /
                        static_cast<double>(frames)
                  : 0.0;
  }
  double early_exit_rate() const {
    return frames ? static_cast<double>(early_exit_frames) /
                        static_cast<double>(frames)
                  : 0.0;
  }
};

struct Row {
  double km = 0.0;
  double qber = 0.0;
  Arm legacy;
  Arm batched;
};

// Run one decoder arm over a pre-simulated record: warm-up once (pays lazy
// PEG construction for the code this arm's planner picks), then keep the
// best of kReps - outcomes are deterministic per seed, only wall-clock
// varies.
Arm run_arm(const engine::PostprocessParams& params,
            const engine::BlockInput& input, std::uint64_t rng_seed) {
  engine::PostprocessEngine engine(params, engine::EngineOptions::cpu_only());
  {
    Xoshiro256 warm(rng_seed);
    (void)engine.process_block(input, 1, warm);
  }
  constexpr int kReps = 3;
  Arm arm;
  for (int rep = 0; rep < kReps; ++rep) {
    Xoshiro256 rng(rng_seed);
    const auto outcome = engine.process_block(input, 1, rng);
    if (rep == 0) {
      arm.ok = outcome.success;
      arm.abort_reason = outcome.abort_reason;
      arm.reconcile_s = outcome.timings.reconcile;
      arm.e2e_s = outcome.timings.post_processing_total();
      arm.frames = outcome.reconcile_frames;
      arm.iterations = outcome.decoder_iterations;
      arm.early_exit_frames = outcome.reconcile_early_exit_frames;
      arm.leaked_bits = outcome.leak_ec_bits;
      arm.secret_bits = outcome.final_key_bits;
      arm.key_bits = outcome.key_candidate_bits - outcome.pe_sample_bits;
      arm.qber_estimate = outcome.qber_estimate;
      continue;
    }
    arm.reconcile_s = std::min(arm.reconcile_s, outcome.timings.reconcile);
    arm.e2e_s = std::min(arm.e2e_s, outcome.timings.post_processing_total());
  }
  return arm;
}

void print_arm_json(const char* name, const Arm& arm) {
  std::printf(",\"%s\":{\"ok\":%s", name, arm.ok ? "true" : "false");
  if (!arm.ok) {
    std::printf(",\"abort\":\"%s\"", arm.abort_reason.c_str());
  }
  std::printf(",\"reconcile_items_per_s\":%.2f,\"e2e_blocks_per_s\":%.4f"
              ",\"frames\":%llu,\"iterations_mean\":%.2f"
              ",\"early_exit_rate\":%.3f,\"leaked_bits\":%llu"
              ",\"secret_bits\":%zu}",
              arm.items_per_s(), arm.blocks_per_s(),
              static_cast<unsigned long long>(arm.frames),
              arm.iterations_mean(), arm.early_exit_rate(),
              static_cast<unsigned long long>(arm.leaked_bits),
              arm.secret_bits);
}


// --- min-sum kernel A/B ---------------------------------------------------

struct KernelCase {
  std::size_t batch = 0;
  double portable_s = 0.0;  ///< best rep
  double avx2_s = 0.0;      ///< best rep
  bool bit_exact = true;
  unsigned iterations = 0;  ///< summed over the batch (portable kernel)
  std::size_t converged = 0;

  double speedup() const { return avx2_s > 0.0 ? portable_s / avx2_s : 0.0; }
};

struct KernelAb {
  bool avx2 = false;
  std::uint32_t code_id = 0;
  std::size_t n = 0;
  KernelCase batch;   ///< the engine's batch for the 10 km block
  KernelCase single;  ///< one frame, as the session path decodes
};

double time_decode(reconcile::detail::MinSumKernel kernel,
                   const reconcile::LdpcCode& code,
                   std::span<const reconcile::QuantDecodeJob> jobs,
                   const reconcile::DecoderConfig& config,
                   std::vector<reconcile::DecodeResult>& results) {
  const auto start = std::chrono::steady_clock::now();
  reconcile::detail::decode_syndrome_batch_with(kernel, code, jobs, config,
                                                results);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Decode `jobs` with both kernels, interleaved, keeping each kernel's best
// of kReps. Outcomes are deterministic, so every rep must agree.
KernelCase run_kernel_case(const reconcile::LdpcCode& code,
                           std::span<const reconcile::QuantDecodeJob> jobs,
                           bool avx2) {
  using reconcile::detail::MinSumKernel;
  constexpr int kReps = 5;
  reconcile::DecoderConfig config;
  config.max_iterations = kEngineIterationCap;
  KernelCase kc;
  kc.batch = jobs.size();
  std::vector<reconcile::DecodeResult> portable;
  std::vector<reconcile::DecodeResult> fast;
  for (int rep = 0; rep < kReps; ++rep) {
    const double tp =
        time_decode(MinSumKernel::kPortable, code, jobs, config, portable);
    kc.portable_s = rep == 0 ? tp : std::min(kc.portable_s, tp);
    if (!avx2) continue;
    const double ta =
        time_decode(MinSumKernel::kAvx2, code, jobs, config, fast);
    kc.avx2_s = rep == 0 ? ta : std::min(kc.avx2_s, ta);
    for (std::size_t f = 0; f < jobs.size(); ++f) {
      kc.bit_exact = kc.bit_exact &&
                     fast[f].converged == portable[f].converged &&
                     fast[f].iterations == portable[f].iterations &&
                     fast[f].word == portable[f].word;
    }
  }
  for (const reconcile::DecodeResult& r : portable) {
    kc.iterations += r.iterations;
    kc.converged += r.converged ? 1 : 0;
  }
  return kc;
}

// Frames shaped like the block's reconcile call: the batched planner's code
// and frame count for the block's key and QBER, each frame a random word
// with its rate-adaptation positions (punctured: erasure LLR 0; shortened:
// pinned at +-kKnownLlr) and BSC noise at that QBER elsewhere.
KernelAb run_kernel_ab(const Arm& arm, std::uint64_t seed) {
  const reconcile::LdpcReconcilerConfig ldpc;
  const double qber = std::max(arm.qber_estimate, 1e-4);
  const reconcile::FramePlan plan = reconcile::plan_frame_batched(
      arm.key_bits, qber, ldpc.f_target, ldpc.adapt_fraction,
      ldpc.batch_target_frames);
  const reconcile::LdpcCode& code = reconcile::code_by_id(plan.code_id);
  const std::size_t frames =
      std::clamp<std::size_t>(arm.key_bits / plan.payload_bits, 1,
                              reconcile::kMaxBatchFrames);

  Xoshiro256 rng(seed);
  const float mag = reconcile::bsc_llr(qber);
  std::vector<BitVec> syndromes;
  std::vector<std::vector<float>> llrs;
  std::vector<std::size_t> order(code.n());
  for (std::size_t f = 0; f < frames; ++f) {
    const BitVec x = rng.random_bits(code.n());
    syndromes.push_back(code.syndrome(x));
    std::vector<float> llr(code.n());
    for (std::size_t v = 0; v < code.n(); ++v) {
      const bool bit = x.get(v) != rng.bernoulli(qber);
      llr[v] = bit ? -mag : mag;
    }
    std::iota(order.begin(), order.end(), std::size_t{0});
    rng.shuffle(std::span<std::size_t>(order));
    for (std::size_t i = 0; i < plan.n_punctured; ++i) llr[order[i]] = 0.0f;
    for (std::size_t i = plan.n_punctured;
         i < plan.n_punctured + plan.n_shortened; ++i) {
      llr[order[i]] = x.get(order[i]) ? -reconcile::kKnownLlr
                                       : reconcile::kKnownLlr;
    }
    llrs.push_back(std::move(llr));
  }
  std::vector<std::vector<std::int8_t>> priors(frames);
  std::vector<reconcile::QuantDecodeJob> jobs(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    priors[f].resize(code.n());
    std::transform(llrs[f].begin(), llrs[f].end(), priors[f].begin(),
                   reconcile::quantize_llr);
    jobs[f] = {&syndromes[f], &priors[f]};
  }

  KernelAb ab;
  ab.avx2 = reconcile::detail::min_sum_kernel_supported(
      reconcile::detail::MinSumKernel::kAvx2);
  ab.code_id = plan.code_id;
  ab.n = code.n();
  ab.batch = run_kernel_case(code, jobs, ab.avx2);
  ab.single = run_kernel_case(code, {jobs.data(), 1}, ab.avx2);
  return ab;
}

void print_kernel_case(const char* name, const KernelCase& kc) {
  std::printf("%-8s %5zu | %11.3f %11.3f %7.2fx | %10u %9zu | %s\n", name,
              kc.batch, kc.portable_s * 1e3, kc.avx2_s * 1e3, kc.speedup(),
              kc.iterations, kc.converged,
              kc.bit_exact ? "bit-exact" : "MISMATCH");
}

}  // namespace

int main() {
  std::printf("Reconcile A/B: legacy float BP vs batched int8 lockstep "
              "decoder (identical blocks per distance)\n\n");
  std::printf("%6s | %8s | %12s %12s %8s | %12s %12s | %s\n", "km", "QBER",
              "legacy it/s", "batch it/s", "speedup", "legacy blk/s",
              "batch blk/s", "verdict");

  std::vector<Row> rows;
  for (const double km : {10.0, 25.0, 50.0, 75.0, 100.0, 125.0, 150.0}) {
    pipeline::OfflineConfig config;
    config.link.channel.length_km = km;
    config.pulses_per_block = sim::pulses_for_sifted_target(
        config.link, 40000.0, std::size_t{1} << 20, std::size_t{1} << 26);

    // One simulated record per distance, shared by both arms: the decoder
    // comparison sees byte-identical sifted material.
    const sim::Bb84Simulator simulator(config.link);
    const std::uint64_t seed = static_cast<std::uint64_t>(km) * 31 + 3;
    Xoshiro256 sim_rng(seed);
    const sim::DetectionRecord record =
        simulator.run(config.pulses_per_block, sim_rng);
    const engine::BlockInput input = engine::make_block_input(record, 1);

    engine::PostprocessParams legacy_params = config;
    legacy_params.ldpc.decoder.quantized = false;
    engine::PostprocessParams batched_params = config;
    batched_params.ldpc.decoder.quantized = true;

    Row row;
    row.km = km;
    row.legacy = run_arm(legacy_params, input, seed * 131 + 7);
    row.batched = run_arm(batched_params, input, seed * 131 + 7);

    const bool both_ok = row.legacy.ok && row.batched.ok;
    if (both_ok) {
      row.qber = sim::Bb84Simulator::stats(record).total.qber();
      const double speedup =
          row.legacy.reconcile_s > 0.0
              ? row.legacy.reconcile_s / row.batched.reconcile_s
              : 0.0;
      std::printf("%6.0f | %7.2f%% | %12.2f %12.2f %7.2fx | %12.2f %12.2f "
                  "| %s\n",
                  km, row.qber * 100, row.legacy.items_per_s(),
                  row.batched.items_per_s(), speedup,
                  row.legacy.blocks_per_s(), row.batched.blocks_per_s(),
                  row.batched.e2e_s <= row.legacy.e2e_s ? "e2e faster"
                                                        : "e2e SLOWER");
    } else {
      std::printf("%6.0f | %8s | %12s %12s %8s | %12s %12s | legacy: %s, "
                  "batched: %s\n",
                  km, "-", "-", "-", "-", "-", "-",
                  row.legacy.ok ? "ok" : row.legacy.abort_reason.c_str(),
                  row.batched.ok ? "ok" : row.batched.abort_reason.c_str());
    }
    rows.push_back(std::move(row));
  }

  // --- gates -------------------------------------------------------------
  bool gate_ok = true;
  double items_10km = 0.0;
  for (const Row& row : rows) {
    if (row.km == 10.0 && row.batched.ok) {
      items_10km = row.batched.items_per_s();
      if (items_10km < kMinItemsPerS10km) {
        gate_ok = false;
        std::printf("\nGATE VIOLATION: 10 km batched reconcile %.2f items/s "
                    "< required %.2f\n",
                    items_10km, kMinItemsPerS10km);
      }
    }
    // Aborted rows don't gate.
    if (!(row.legacy.ok && row.batched.ok)) continue;
    if (row.batched.reconcile_s > row.legacy.reconcile_s) {
      gate_ok = false;
      std::printf("\nGATE VIOLATION: %g km batched reconcile %.4fs slower "
                  "than legacy %.4fs\n",
                  row.km, row.batched.reconcile_s, row.legacy.reconcile_s);
    }
    if (row.batched.e2e_s > row.legacy.e2e_s) {
      gate_ok = false;
      std::printf("\nGATE VIOLATION: %g km batched e2e %.4fs slower than "
                  "legacy %.4fs\n",
                  row.km, row.batched.e2e_s, row.legacy.e2e_s);
    }
  }
  if (items_10km == 0.0) {
    gate_ok = false;
    std::printf("\nGATE VIOLATION: 10 km batched row missing or aborted - "
                "the headline throughput gate could not run\n");
  }

  // --- min-sum kernel A/B on the 10 km block's frames ---------------------
  KernelAb kernel;
  bool kernel_ran = false;
  for (const Row& row : rows) {
    if (row.km != 10.0 || !row.batched.ok) continue;
    kernel = run_kernel_ab(row.batched, 10 * 31 + 3);
    kernel_ran = true;
  }
  const bool kernel_bit_exact =
      kernel_ran && kernel.batch.bit_exact && kernel.single.bit_exact;
  if (kernel_ran) {
    std::printf("\nMin-sum kernel A/B, 10 km frames (code %u, n = %zu, "
                "AVX2 %s)\n\n",
                kernel.code_id, kernel.n,
                kernel.avx2 ? "present" : "absent: portable only");
    std::printf("%-8s %5s | %11s %11s %8s | %10s %9s | %s\n", "case",
                "jobs", "portable ms", "avx2 ms", "speedup", "iterations",
                "converged", "verdict");
    print_kernel_case("batch", kernel.batch);
    print_kernel_case("single", kernel.single);
  }
  if (!kernel_bit_exact) {
    gate_ok = false;
    std::printf("\nGATE VIOLATION: min-sum kernels %s\n",
                kernel_ran ? "disagree on the same frames"
                           : "not compared (10 km row missing)");
  }
  if (kernel.avx2 && kernel.batch.speedup() < kMinKernelSpeedup) {
    gate_ok = false;
    std::printf("\nGATE VIOLATION: AVX2 kernel %.2fx the portable kernel "
                "< required %.2fx\n",
                kernel.batch.speedup(), kMinKernelSpeedup);
  }

  std::printf("\ngate: 10 km batched reconcile %.2f items/s (need >= %.2f), "
              "batched >= legacy reconcile and e2e at every completed "
              "distance, kernels bit-exact, AVX2 kernel >= %.1fx portable "
              "where present: %s\n\n",
              items_10km, kMinItemsPerS10km, kMinKernelSpeedup,
              gate_ok ? "PASS" : "FAIL");

  std::printf("{\"bench\":\"reconcile\",\"unit\":\"items_per_s\",\"rows\":[");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::printf("%s{\"km\":%.0f", i ? "," : "", row.km);
    print_arm_json("legacy", row.legacy);
    print_arm_json("batched", row.batched);
    if (row.legacy.ok && row.batched.ok) {
      std::printf(",\"reconcile_speedup\":%.2f,\"e2e_speedup\":%.3f",
                  row.legacy.reconcile_s / row.batched.reconcile_s,
                  row.batched.e2e_s > 0.0 ? row.legacy.e2e_s / row.batched.e2e_s
                                          : 0.0);
    }
    std::printf("}");
  }
  std::printf("],\"kernel\":{\"avx2\":%s,\"code_id\":%u,\"n\":%zu"
              ",\"batch_jobs\":%zu,\"portable_ms\":%.3f,\"avx2_ms\":%.3f"
              ",\"single_portable_ms\":%.3f,\"single_avx2_ms\":%.3f"
              ",\"single_speedup\":%.2f}",
              kernel.avx2 ? "true" : "false", kernel.code_id, kernel.n,
              kernel.batch.batch, kernel.batch.portable_s * 1e3,
              kernel.batch.avx2_s * 1e3, kernel.single.portable_s * 1e3,
              kernel.single.avx2_s * 1e3, kernel.single.speedup());
  // No AVX2 on this CPU: one kernel, nothing to time it against.
  if (kernel.avx2) {
    std::printf(",\"kernel_speedup\":%.2f", kernel.batch.speedup());
  } else {
    std::printf(",\"kernel_speedup\":null");
  }
  std::printf(",\"kernel_bit_exact\":%s",
              kernel_bit_exact ? "true" : "false");
  std::printf(",\"gate\":{\"reconcile_items_per_s_10km\":%.2f,"
              "\"min_items_per_s_10km\":%.2f,\"min_kernel_speedup\":%.2f,"
              "\"ok\":%s}}\n",
              items_10km, kMinItemsPerS10km, kMinKernelSpeedup,
              gate_ok ? "true" : "false");
  return gate_ok ? 0 : 1;
}
