// PostprocessEngine tests: bit-exact final keys across all four DeviceKind
// placements (device selection changes the clock, never the key), mapper
// edge cases surfaced through the engine, batch submission determinism, and
// the merged parameter plumbing.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <future>
#include <type_traits>

#include "common/error.hpp"
#include "engine/sim_adapter.hpp"
#include "pipeline/offline.hpp"
#include "pipeline/session.hpp"
#include "protocol/channel.hpp"
#include "sim/bb84.hpp"

namespace qkdpp::engine {
namespace {

BlockInput metro_input(std::uint64_t block_id, std::uint64_t seed,
                       std::size_t pulses = std::size_t{1} << 19) {
  sim::LinkConfig link;
  link.channel.length_km = 10.0;
  Xoshiro256 rng(seed);
  const auto record = sim::Bb84Simulator(link).run(pulses, rng);
  return make_block_input(record, block_id);
}

PostprocessParams metro_params() {
  PostprocessParams params;
  params.ldpc.min_frame = 4096;
  return params;
}

TEST(PostprocessEngine, GoldenKeyBitExactAcrossAllDevicePlacements) {
  const BlockInput input = metro_input(1, 42);
  const hetero::DeviceKind kinds[] = {
      hetero::DeviceKind::kCpuScalar, hetero::DeviceKind::kCpuParallel,
      hetero::DeviceKind::kGpuSim, hetero::DeviceKind::kFpgaSim};

  PostprocessEngine reference(metro_params(),
                              EngineOptions::pinned(kinds[0]));
  Xoshiro256 reference_rng(7);
  const BlockOutcome golden = reference.process_block(input, 1, reference_rng);
  ASSERT_TRUE(golden.success) << golden.abort_reason;
  ASSERT_GT(golden.final_key_bits, 0u);

  for (std::size_t k = 1; k < 4; ++k) {
    PostprocessEngine engine(metro_params(), EngineOptions::pinned(kinds[k]));
    EXPECT_EQ(engine.placement().device_of_stage,
              std::vector<std::uint32_t>(5, static_cast<std::uint32_t>(k)));
    Xoshiro256 rng(7);
    const BlockOutcome outcome = engine.process_block(input, 1, rng);
    ASSERT_TRUE(outcome.success) << outcome.abort_reason;
    EXPECT_EQ(outcome.final_key, golden.final_key)
        << "placement " << hetero::to_string(kinds[k]);
    EXPECT_EQ(outcome.leak_ec_bits, golden.leak_ec_bits);
    EXPECT_EQ(outcome.reconciled_bits, golden.reconciled_bits);
  }
}

// Cross-commit golden pin. The placement test above compares keys within
// one run; this one pins fixed-seed final keys, leakage and decoder work
// to constants recorded from an earlier tree, so any change to the host
// path (sifting, PE sampling, frame set-up, priors) or the decoder that
// moves a single key bit fails tier-1.
std::uint64_t fold_key(std::uint64_t digest, const BitVec& key) {
  constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
  digest = (digest ^ key.size()) * kFnvPrime;
  for (const std::uint64_t w : key.words()) digest = (digest ^ w) * kFnvPrime;
  return digest;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::size_t kGoldenPulses = 1'750'000;

sim::DetectionRecord simulate(double km, std::uint64_t seed,
                              std::size_t pulses) {
  sim::LinkConfig link;
  link.channel.length_km = km;
  Xoshiro256 rng(seed);
  return sim::Bb84Simulator(link).run(pulses, rng);
}

TEST(PostprocessEngine, GoldenKeysPinnedAcrossCommits) {
  std::uint64_t digest = kFnvOffset;
  std::uint64_t leak = 0;
  std::uint64_t iterations = 0;
  std::uint64_t key_bits = 0;
  PostprocessEngine engine(metro_params(), EngineOptions::cpu_only());
  const double distances_km[] = {5.0, 10.0, 25.0, 50.0};
  for (std::uint64_t b = 0; b < 4; ++b) {
    const BlockInput input = make_block_input(
        simulate(distances_km[b], 2024 + b, kGoldenPulses), b + 1);
    Xoshiro256 rng(31 + b);
    const BlockOutcome outcome = engine.process_block(input, b + 1, rng);
    ASSERT_TRUE(outcome.success)
        << distances_km[b] << " km: " << outcome.abort_reason;
    digest = fold_key(digest, outcome.final_key);
    leak += outcome.leak_ec_bits;
    iterations += outcome.decoder_iterations;
    key_bits += outcome.final_key_bits;
  }
  EXPECT_EQ(digest, 0xd442ebdfa4aff680ULL);
  EXPECT_EQ(leak, 19224u);
  EXPECT_EQ(iterations, 239u);
  EXPECT_EQ(key_bits, 36401u);
}

TEST(PostprocessEngine, GoldenSessionKeyPinnedAcrossCommits) {
  const sim::DetectionRecord record = simulate(25.0, 2030, kGoldenPulses);
  const protocol::AliceTransmitLog log{record.alice_bits, record.alice_bases,
                                       record.alice_class};
  pipeline::BobDetections bob_input;
  bob_input.block_id = 1;
  bob_input.n_pulses = record.n_pulses;
  bob_input.detected_idx = record.detected_idx;
  bob_input.bits = record.bob_bits;
  bob_input.bases = record.bob_bases;
  const pipeline::SessionConfig config = metro_params();

  auto [alice_channel, bob_channel] = protocol::make_channel_pair();
  auto alice_future = std::async(std::launch::async, [&] {
    Xoshiro256 rng(41);
    return pipeline::run_alice_session(*alice_channel, log, 1, config, rng);
  });
  const pipeline::SessionResult bob =
      pipeline::run_bob_session(*bob_channel, bob_input, config);
  const pipeline::SessionResult alice = alice_future.get();
  ASSERT_TRUE(alice.success) << alice.abort_reason;
  ASSERT_TRUE(bob.success) << bob.abort_reason;
  ASSERT_EQ(alice.final_key, bob.final_key);
  EXPECT_EQ(fold_key(kFnvOffset, alice.final_key), 0x9aec1d6c92b690d6ULL);
  EXPECT_EQ(alice.leak_ec_bits, 2779u);
  EXPECT_EQ(alice.reconciled_bits, 14742u);
  EXPECT_EQ(alice.final_key.size(), 5099u);
}

TEST(PostprocessEngine, OptimizedPlacementSameKeyAsPinned) {
  const BlockInput input = metro_input(2, 43);
  PostprocessEngine pinned(metro_params(),
                           EngineOptions::pinned(hetero::DeviceKind::kCpuScalar));
  PostprocessEngine optimized(metro_params(), EngineOptions::standard());
  Xoshiro256 rng_a(9), rng_b(9);
  const auto a = pinned.process_block(input, 2, rng_a);
  const auto b = optimized.process_block(input, 2, rng_b);
  ASSERT_TRUE(a.success) << a.abort_reason;
  ASSERT_TRUE(b.success) << b.abort_reason;
  EXPECT_EQ(a.final_key, b.final_key);
}

TEST(PostprocessEngine, OptimizedPlacementKeepsHostStagesOnCpu) {
  PostprocessEngine engine(metro_params(), EngineOptions::standard());
  const Placement& placement = engine.placement();
  ASSERT_EQ(placement.stage_names.size(), 5u);
  ASSERT_EQ(placement.device_of_stage.size(), 5u);
  EXPECT_GT(placement.predicted_items_per_s, 0.0);
  // sift and estimate are host-only; the mapper must respect the mask.
  for (std::size_t s = 0; s < 2; ++s) {
    const auto d = placement.device_of_stage[s];
    EXPECT_LE(d, 1u) << placement.stage_names[s] << " placed on "
                     << placement.device_of(s);
  }
}

TEST(PostprocessEngine, AcceleratorOnlyRosterThrowsAllInfeasible) {
  // Sifting cannot run on accelerators; with no CPU in the roster the
  // optimizer has an all-infeasible stage row and must reject the config.
  EngineOptions options;
  options.devices = {hetero::gpu_sim_props(), hetero::fpga_sim_props()};
  EXPECT_THROW(PostprocessEngine(metro_params(), options), Error);
}

TEST(PostprocessEngine, SingleDeviceTieIsDeterministic) {
  // Two identical devices: every assignment ties; the exhaustive search
  // must still return a valid placement and the same one every time.
  EngineOptions options;
  options.devices = {hetero::cpu_scalar_props(), hetero::cpu_scalar_props()};
  PostprocessEngine a(metro_params(), options);
  PostprocessEngine b(metro_params(), options);
  for (const auto d : a.placement().device_of_stage) EXPECT_LT(d, 2u);
  EXPECT_EQ(a.placement().device_of_stage, b.placement().device_of_stage);
}

TEST(PostprocessEngine, FixedDeviceOutOfRangeRejected) {
  EngineOptions options = EngineOptions::cpu_only();
  options.fixed_device = 7;
  EXPECT_THROW(PostprocessEngine(metro_params(), options), Error);
}

TEST(PostprocessEngine, InvalidParamsRejected) {
  PostprocessParams params = metro_params();
  params.pe_fraction = 0.0;
  EXPECT_THROW(PostprocessEngine{params}, std::invalid_argument);
  params = metro_params();
  params.qber_abort = 0.0;
  EXPECT_THROW(PostprocessEngine{params}, std::invalid_argument);
}

TEST(PostprocessEngine, SubmitBlockMatchesSynchronousResult) {
  PostprocessEngine engine(metro_params(), EngineOptions::standard());
  std::vector<std::future<BlockOutcome>> futures;
  for (std::uint64_t b = 0; b < 3; ++b) {
    futures.push_back(engine.submit_block(metro_input(b, 100 + b), b, 500 + b));
  }
  for (std::uint64_t b = 0; b < 3; ++b) {
    const BlockOutcome async_outcome = futures[b].get();
    Xoshiro256 rng(500 + b);
    const BlockOutcome sync_outcome =
        engine.process_block(metro_input(b, 100 + b), b, rng);
    ASSERT_EQ(async_outcome.success, sync_outcome.success);
    EXPECT_EQ(async_outcome.final_key, sync_outcome.final_key);
    EXPECT_EQ(async_outcome.leak_ec_bits, sync_outcome.leak_ec_bits);
  }
}

TEST(PostprocessEngine, DestructionWithOutstandingFuturesIsSafe) {
  // Destroying the engine while submitted blocks are still queued must
  // drain them against live devices/executors (regression: the batch pool
  // must be joined before the rest of the engine is torn down).
  std::future<BlockOutcome> orphan;
  {
    PostprocessEngine engine(metro_params(), EngineOptions::standard());
    orphan = engine.submit_block(metro_input(9, 46), 9, 900);
  }
  const BlockOutcome outcome = orphan.get();  // completed before teardown
  EXPECT_FALSE(outcome.abort_reason.empty() && !outcome.success);
}

TEST(PostprocessEngine, DeviceReportAccountsLaunches) {
  PostprocessEngine engine(metro_params(),
                           EngineOptions::pinned(hetero::DeviceKind::kGpuSim));
  const BlockInput input = metro_input(3, 44);
  Xoshiro256 rng(11);
  const auto outcome = engine.process_block(input, 3, rng);
  ASSERT_TRUE(outcome.success) << outcome.abort_reason;
  const auto reports = engine.device_report();
  ASSERT_EQ(reports.size(), 4u);
  const auto& gpu = reports[2];
  EXPECT_EQ(gpu.kind, hetero::DeviceKind::kGpuSim);
  EXPECT_EQ(gpu.kernels_launched, 5u);  // one per stage
  EXPECT_GT(gpu.busy_seconds, 0.0);
  EXPECT_EQ(reports[0].kernels_launched, 0u);
}

TEST(PostprocessEngine, AbortedBlockReportsStageReason) {
  PostprocessEngine engine(metro_params(), EngineOptions::cpu_only());
  const BlockInput input = metro_input(4, 45, /*pulses=*/2000);
  Xoshiro256 rng(12);
  const auto outcome = engine.process_block(input, 4, rng);
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.abort_reason, "insufficient sifted key");
  EXPECT_EQ(outcome.final_key_bits, 0u);
}

TEST(PostprocessEngine, CascadeRoundExhaustionAbortsBlock) {
  // Regression: with the Cascade round budget exhausted the keys provably
  // still differ; the reconcile stage must fail the block (and say why)
  // instead of passing a corrupt key to verification.
  PostprocessParams params = metro_params();
  params.method = protocol::ReconcileMethod::kCascade;
  params.cascade.max_rounds = 4;  // a metro block needs thousands
  PostprocessEngine engine(params, EngineOptions::cpu_only());
  const BlockInput input = metro_input(5, 47);
  Xoshiro256 rng(13);
  const auto outcome = engine.process_block(input, 5, rng);
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.abort_reason, "cascade did not converge");

  // The identical block with the default budget distills a key.
  params.cascade.max_rounds = 100000;
  PostprocessEngine healthy(params, EngineOptions::cpu_only());
  Xoshiro256 rng_ok(13);
  const auto ok = healthy.process_block(input, 5, rng_ok);
  ASSERT_TRUE(ok.success) << ok.abort_reason;
  EXPECT_GT(ok.final_key_bits, 0u);
}

TEST(PostprocessParams, SharedByOfflineAndSessionConfigs) {
  static_assert(
      std::is_base_of_v<PostprocessParams, pipeline::OfflineConfig>,
      "OfflineConfig must extend the shared parameter set");
  static_assert(std::is_same_v<pipeline::SessionConfig, PostprocessParams>,
                "SessionConfig must alias the shared parameter set");
  pipeline::OfflineConfig config;
  config.pe_fraction = 0.2;
  const PostprocessParams& params = config;
  EXPECT_DOUBLE_EQ(params.pe_fraction, 0.2);
}

}  // namespace
}  // namespace qkdpp::engine
