// metro-replay: one 10 km link, the whole distillation path, one caller.
//
// Setup simulates a fixed set of blocks from the seed (the simulator is the
// load generator and never runs inside a timed region) and keeps each
// block's per-pulse class log packed four to a byte, unpacking one block at a
// time before its process_block call, outside every timed figure. Packing is
// what lets 128 blocks fit in about 160 MB: LDPC decoder work varies so much
// from block to block that 64 blocks left the seed-to-seed spread of a
// pass's decoder iterations near 15%. Setup then builds the engine
// with the standard roster and optimized placement, and replays every block
// once untimed so the process-wide LDPC code cache is filled. The timed
// phase replays the blocks in a closed loop: process_block with a per-block
// RNG seeded from (seed, block index), KeyStore deposit, then the block's key
// read back by an SAE reader thread as 256-bit keys through serialized
// enc_keys + dec_keys, one key per request, while the caller waits. A block's
// latency runs from the process_block call to its last key confirmed by
// dec_keys.
//
// Traced, each block is additionally replayed through the stage functions in
// engine order (sift, estimate, reconcile plan + decode, verify, amplify)
// outside its latency, which splits the engine's block time into stages the
// way the paper's stage-share figure does; the replayed key must equal the
// engine's.
#include <algorithm>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "client.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "engine/engine.hpp"
#include "engine/primitives.hpp"
#include "engine/sim_adapter.hpp"
#include "privacy/pa_planner.hpp"
#include "privacy/verification.hpp"
#include "protocol/param_estimation.hpp"
#include "protocol/sifting.hpp"
#include "reconcile/rate_adapt.hpp"
#include "reconcile/reconciler.hpp"
#include "service/link_orchestrator.hpp"
#include "sim/bb84.hpp"

namespace perfbench {

namespace {

using namespace qkdpp;

constexpr double kLinkKm = 10.0;
/// About 40k sifted bits per block at 10 km.
constexpr std::size_t kPulses = 1'750'000;
/// Distinct blocks per seed: enough that the block-time figures do not
/// hinge on a handful of slow blocks.
constexpr std::size_t kBlocks = 128;
constexpr std::size_t kQuickBlocks = 2;
constexpr std::uint64_t kKeyBits = 256;
/// One key per enc_keys, the ETSI default request.
constexpr std::uint64_t kKeysPerRequest = 1;
/// The engine's per-attempt iteration cap for the batched decoder
/// (engine/stages.cpp); the stage replay must decode exactly as it does.
constexpr unsigned kEngineBatchIterationCap = 20;

const SaePairRef kPair{"sae-metro-a", "sae-metro-b", false};

/// The SAE side of the closed loop. The caller hands over each deposited
/// block and waits while this thread reads its keys back: the SAE is a
/// separate party, and on its own thread its api calls do not start from
/// caches the engine has just swept.
class SaeReader {
 public:
  SaeReader(SaeClient& client, Tracer& tracer)
      : client_(client), tracer_(tracer), thread_([this] { loop(); }) {}
  ~SaeReader() {
    {
      std::scoped_lock lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  SaeReader(const SaeReader&) = delete;
  SaeReader& operator=(const SaeReader&) = delete;

  /// Reads `keys` keys of block `id` back (status, then one delivery per
  /// key) and returns whether every request succeeded.
  bool read_back(std::uint64_t keys, std::uint64_t id, bool traced) {
    std::unique_lock lock(mutex_);
    keys_ = keys;
    id_ = id;
    traced_ = traced;
    ready_ = true;
    done_ = false;
    cv_.notify_all();
    cv_.wait(lock, [this] { return done_; });
    return ok_;
  }

  /// What went wrong on the reader thread, if anything threw there.
  std::string error() {
    std::scoped_lock lock(mutex_);
    return error_;
  }

 private:
  void loop() {
    std::unique_lock lock(mutex_);
    for (;;) {
      cv_.wait(lock, [this] { return ready_ || stop_; });
      if (stop_) return;
      ready_ = false;
      const std::uint64_t keys = keys_;
      const std::uint64_t id = id_;
      Tracer* tracer = traced_ ? &tracer_ : nullptr;
      lock.unlock();
      bool ok = false;
      std::string error;
      try {
        ok = client_.status(kPair, tracer, id);
        for (std::uint64_t left = keys; left > 0;) {
          const std::uint64_t n = std::min(left, kKeysPerRequest);
          ok = client_.deliver(kPair, n, kKeyBits, tracer, id) && ok;
          left -= n;
        }
      } catch (const std::exception& e) {
        ok = false;
        error = e.what();
      }
      lock.lock();
      ok_ = ok;
      if (!error.empty()) error_ = error;
      done_ = true;
      cv_.notify_all();
    }
  }

  SaeClient& client_;
  Tracer& tracer_;  ///< used only on the reader thread
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t keys_ = 0;
  std::uint64_t id_ = 0;
  bool traced_ = false;
  bool ready_ = false;
  bool done_ = false;
  bool ok_ = false;
  bool stop_ = false;
  std::string error_;
  std::thread thread_;  ///< last: starts once the members above exist
};

struct ReplayTotals {
  std::uint64_t blocks = 0;
  std::uint64_t frames = 0;
  std::uint64_t frames_ok = 0;
  std::uint64_t iterations = 0;
  std::uint64_t early_exit = 0;
  std::uint64_t leak_bits = 0;
  double efficiency = 0.0;
};

class Metro {
 public:
  explicit Metro(const Options& options)
      : options_(options),
        blocks_(options.quick ? kQuickBlocks : kBlocks),
        epoch_(Clock::now()) {}

  void setup(Result& result);
  Phase run_phase(double seconds, Tracer* tracer, Result& result);
  void finish(Result& result);
  void layer_report(const std::map<std::string, LayerTimes>& layers,
                    Result& result) const;

  Clock::time_point epoch() const { return epoch_; }
  /// Every tracer but the caller's: the simulation threads' and the SAE
  /// reader's.
  std::vector<const Tracer*> tracers() const {
    std::vector<const Tracer*> out{&reader_tracer_};
    for (const auto& t : sim_tracers_) out.push_back(t.get());
    return out;
  }

 private:
  struct PassTotals {
    std::uint64_t secret_bits = 0;
    std::uint64_t digest = kDigestInit;
  };

  /// Block `b` with its pulse classes unpacked (one block at a time).
  const engine::BlockInput& input(std::size_t b);
  /// One block end to end; returns its latency, or nullopt when it failed.
  std::optional<double> run_block(std::size_t b, Tracer* tracer,
                                  PassTotals& pass);
  /// The engine's stage chain, replayed from public stage functions.
  void replay_block(std::size_t b, std::uint64_t id,
                    const engine::BlockOutcome& outcome, Tracer* tracer);

  const Options& options_;
  const std::size_t blocks_;
  Clock::time_point epoch_;
  /// Blocks without their pulse classes, which sit packed in classes_.
  std::vector<engine::BlockInput> inputs_;
  std::vector<std::vector<std::uint8_t>> classes_;
  std::size_t unpacked_ = 0;  ///< the block holding the unpacked classes
  std::vector<std::unique_ptr<Tracer>> sim_tracers_;
  std::unique_ptr<engine::PostprocessEngine> engine_;
  std::unique_ptr<service::LinkOrchestrator> orchestrator_;
  std::unique_ptr<api::KeyDeliveryService> service_;
  std::unique_ptr<api::Dispatcher> dispatcher_;
  std::unique_ptr<SaeClient> client_;
  Tracer reader_tracer_{3, epoch_};
  std::unique_ptr<SaeReader> reader_;
  std::unique_ptr<ThreadPool> decode_pool_;
  std::optional<PassTotals> reference_;
  std::uint64_t residual_bits_ = 0;
  std::uint64_t deposited_bits_ = 0;
  std::uint64_t rejected_bits_ = 0;
  std::uint64_t block_seq_ = 0;
  std::uint64_t depth_samples_ = 0;
  double depth_sum_ = 0.0;
  double slowest_warm_ms_ = 0.0;
  /// Benchmark-side time inside a pass (unpacking pulse classes, the traced
  /// stage replay), kept out of throughput windows.
  double excluded_seconds_ = 0.0;
  bool replay_mismatch_ = false;
  ReplayTotals replay_;
};

void Metro::setup(Result& result) {
  sim::LinkConfig link;
  link.channel.length_km = kLinkKm;

  // Generation phase: the simulator is the load generator. Blocks are
  // independent (per-block RNG), so they are simulated in parallel.
  inputs_.resize(blocks_);
  classes_.resize(blocks_);
  const std::size_t threads = std::min<std::size_t>(
      blocks_, std::max(1u, std::thread::hardware_concurrency()));
  for (std::size_t t = 0; t < threads; ++t) {
    sim_tracers_.push_back(std::make_unique<Tracer>(100 + t, epoch_));
  }
  std::vector<std::future<void>> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.push_back(std::async(std::launch::async, [&, t] {
      Tracer* tracer = options_.trace ? sim_tracers_[t].get() : nullptr;
      const sim::Bb84Simulator simulator(link);
      for (std::size_t b = t; b < blocks_; b += threads) {
        Xoshiro256 rng(mix_seed(options_.seed, b));
        sim::DetectionRecord record;
        {
          ScopedSpan span(tracer, "sim.block", b + 1);
          record = simulator.run(kPulses, rng);
        }
        inputs_[b] = engine::make_block_input(record, b + 1);
        std::vector<std::uint8_t>& log = inputs_[b].log.pulse_class;
        std::vector<std::uint8_t>& packed = classes_[b];
        packed.assign((log.size() + 3) / 4, 0);
        for (std::size_t i = 0; i < log.size(); ++i) {
          packed[i / 4] |= static_cast<std::uint8_t>(log[i] << (2 * (i % 4)));
        }
        std::vector<std::uint8_t>().swap(log);
      }
    }));
  }
  for (auto& w : workers) w.get();

  engine::PostprocessParams params;
  engine_ = std::make_unique<engine::PostprocessEngine>(
      params, engine::EngineOptions::standard());
  const engine::Placement placement = engine_->placement();
  const auto devices = engine_->device_report();
  const auto reconcile_device =
      placement.device_of_stage[static_cast<std::size_t>(
          engine::StageKind::kReconcile)];
  if (devices[reconcile_device].kind != hetero::DeviceKind::kCpuScalar) {
    decode_pool_ = std::make_unique<ThreadPool>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  result.table.push_back("placement: reconcile on " +
                         placement.device_of(static_cast<std::size_t>(
                             engine::StageKind::kReconcile)));

  service::OrchestratorConfig config;
  service::LinkSpec spec;
  spec.name = "metro-10km";
  spec.link = link;
  spec.pulses_per_block = kPulses;
  spec.blocks = 0;
  config.links.push_back(spec);
  orchestrator_ = std::make_unique<service::LinkOrchestrator>(config);
  api::KeyDeliveryConfig delivery;
  delivery.uuid_seed = mix_seed(options_.seed, 0x0e751);
  service_ = std::make_unique<api::KeyDeliveryService>(*orchestrator_,
                                                       delivery);
  api::SaePair pair;
  pair.master_sae_id = kPair.master;
  pair.slave_sae_id = kPair.slave;
  pair.link_name = spec.name;
  service_->register_pair(pair);
  dispatcher_ = std::make_unique<api::Dispatcher>(*service_);
  client_ = std::make_unique<SaeClient>(*dispatcher_, *service_);
  reader_ = std::make_unique<SaeReader>(*client_, reader_tracer_);

  // Warm pass over the workload's own inputs: fills the LDPC code cache.
  PassTotals warm;
  for (std::size_t b = 0; b < blocks_; ++b) {
    const auto latency = run_block(b, nullptr, warm);
    if (!latency) {
      result.violations.push_back("warm pass: block " + std::to_string(b) +
                                  " failed");
    } else {
      slowest_warm_ms_ = std::max(slowest_warm_ms_, *latency * 1e3);
    }
  }
  reference_ = warm;
  client_->reset_samples();
}

const engine::BlockInput& Metro::input(std::size_t b) {
  std::vector<std::uint8_t>& log = inputs_[b].log.pulse_class;
  if (unpacked_ != b) log.swap(inputs_[unpacked_].log.pulse_class);
  unpacked_ = b;
  const std::size_t pulses = inputs_[b].log.bits.size();
  log.resize(pulses);
  const std::vector<std::uint8_t>& packed = classes_[b];
  for (std::size_t i = 0; i < pulses; ++i) {
    log[i] = (packed[i / 4] >> (2 * (i % 4))) & 3;
  }
  return inputs_[b];
}

std::optional<double> Metro::run_block(std::size_t b, Tracer* tracer,
                                       PassTotals& pass) {
  const std::uint64_t id = ++block_seq_;
  const auto unpack_start = Clock::now();
  const engine::BlockInput& block = input(b);
  excluded_seconds_ += seconds_since(unpack_start);
  engine::BlockOutcome outcome;
  const auto latency = [&]() -> std::optional<double> {
    ScopedSpan block_span(tracer, "block", id);
    const auto start = Clock::now();
    Xoshiro256 rng(mix_seed(options_.seed, 1000 + b));
    {
      ScopedSpan span(tracer, "engine.block");
      outcome = engine_->process_block(block, b + 1, rng);
    }
    if (!outcome.success) return std::nullopt;

    pipeline::KeyStore& store = orchestrator_->key_store(0);
    pipeline::DepositResult deposit;
    {
      ScopedSpan span(tracer, "kms.deposit");
      deposit = store.deposit(outcome.final_key);
    }
    if (!deposit.accepted()) {
      rejected_bits_ += outcome.final_key_bits;
      return std::nullopt;
    }
    deposited_bits_ += outcome.final_key_bits;
    depth_sum_ += static_cast<double>(store.bits_available());
    ++depth_samples_;
    pass.secret_bits += outcome.final_key_bits;
    for (const auto word : outcome.final_key.words()) {
      pass.digest = fold_digest(pass.digest, word);
    }

    const std::uint64_t keys =
        (residual_bits_ + outcome.final_key_bits) / kKeyBits;
    residual_bits_ = (residual_bits_ + outcome.final_key_bits) % kKeyBits;
    if (!reader_->read_back(keys, id, tracer != nullptr)) return std::nullopt;
    return seconds_since(start);
  }();
  if (tracer && outcome.success) {
    const auto replay_start = Clock::now();
    replay_block(b, id, outcome, tracer);
    excluded_seconds_ += seconds_since(replay_start);
  }
  return latency;
}

void Metro::replay_block(std::size_t b, std::uint64_t id,
                         const engine::BlockOutcome& outcome, Tracer* tracer) {
  ScopedSpan replay_span(tracer, "replay", id);
  const engine::BlockInput& input = inputs_[b];
  const engine::PostprocessParams params = engine_->params();
  if (params.method != protocol::ReconcileMethod::kLdpc ||
      !params.ldpc.decoder.quantized) {
    replay_mismatch_ = true;  // the replay only mirrors the batched LDPC path
    return;
  }
  Xoshiro256 rng(mix_seed(options_.seed, 1000 + b));
  BlockArena& arena = thread_arena();
  arena.reset();

  protocol::AliceSiftOutcome sift;
  BitVec bob_sifted;
  {
    ScopedSpan span(tracer, "protocol.sift");
    sift = protocol::sift_alice(input.log, input.report);
    bob_sifted = protocol::sift_bob(input.bob_bits, sift.result);
  }
  protocol::QberEstimate estimate;
  BitVec alice_key, bob_key;
  {
    ScopedSpan span(tracer, "protocol.estimate");
    const BitVec& sifted = sift.sifted_key;
    const BitVec& mask = sift.result.signal_mask;
    const engine::SignalSplit split = engine::split_sifted(sifted, mask);
    const auto revealed =
        engine::choose_pe_positions(split, params.pe_fraction, rng);
    std::size_t mismatches = 0;
    for (const auto p : revealed) mismatches += sifted.get(p) != bob_sifted.get(p);
    estimate = protocol::estimate_qber(revealed.size(), mismatches,
                                       params.security.eps_pe);
    alice_key = engine::remaining_key(sifted, mask, revealed);
    bob_key = engine::remaining_key(bob_sifted, mask, revealed);
  }
  const double qber = engine::qber_floor(estimate.qber);
  reconcile::FramePlan plan;
  {
    ScopedSpan span(tracer, "reconcile.plan");
    plan = reconcile::plan_frame_batched(
        alice_key.size(), qber, params.ldpc.f_target,
        params.ldpc.adapt_fraction, params.ldpc.batch_target_frames);
  }
  BitVec alice_rec, bob_rec;
  reconcile::BatchReconcileStats stats;
  {
    ScopedSpan span(tracer, "reconcile.decode");
    reconcile::LdpcReconcilerConfig config = params.ldpc;
    config.decoder.pool = decode_pool_.get();
    config.decoder.arena = &arena;
    config.decoder.max_iterations =
        std::min(config.decoder.max_iterations, kEngineBatchIterationCap);
    const std::size_t frames = alice_key.size() / plan.payload_bits;
    std::vector<std::uint64_t> seeds(frames);
    for (std::size_t f = 0; f < frames; ++f) {
      seeds[f] = ((b + 1) << 20) ^ (f * 0x9e3779b97f4a7c15ULL);
    }
    stats = reconcile::ldpc_reconcile_key_batch(alice_key, bob_key, qber, plan,
                                                seeds, config, rng, &arena,
                                                alice_rec, bob_rec);
  }
  bool tags_match = false;
  {
    ScopedSpan span(tracer, "privacy.verify");
    const std::uint64_t verify_seed = rng.next_u64();
    tags_match = privacy::verification_tag(alice_rec, verify_seed) ==
                 privacy::verification_tag(bob_rec, verify_seed);
  }
  BitVec key;
  {
    ScopedSpan span(tracer, "privacy.amplify");
    const auto pa = privacy::plan_privacy_amplification(
        bob_rec.size(), estimate.sample_size, estimate.qber,
        stats.leaked_bits + engine::kVerifyTagBits, params.security);
    if (pa.viable) key = engine::apply_toeplitz(rng.next_u64(), bob_rec,
                                                pa.output_bits);
  }
  if (!tags_match || alice_rec != bob_rec || key != outcome.final_key ||
      stats.leaked_bits != outcome.leak_ec_bits) {
    replay_mismatch_ = true;
  }
  ++replay_.blocks;
  replay_.frames += stats.frames;
  replay_.frames_ok += stats.frames_ok;
  replay_.iterations += stats.iterations;
  replay_.early_exit += stats.early_exit_frames;
  replay_.leak_bits += stats.leaked_bits;
  replay_.efficiency += outcome.efficiency;
}

Phase Metro::run_phase(double seconds, Tracer* tracer, Result& result) {
  Phase phase;
  client_->reset_samples();
  const auto start = Clock::now();
  // Whole passes only: every pass must reproduce the warm pass's key total
  // and digest.
  do {
    const auto pass_start = Clock::now();
    const std::uint64_t bits_before = client_->collected_bits();
    const std::uint64_t requests_before = client_->requests();
    const double excluded_before = excluded_seconds_;
    const std::size_t blocks_before = phase.block_ms.size();
    const std::size_t api_before = client_->latency_us().size();
    PassTotals pass;
    for (std::size_t b = 0; b < blocks_; ++b) {
      ++phase.attempted;
      const auto latency = run_block(b, tracer, pass);
      if (latency) {
        phase.block_ms.push_back(*latency * 1e3);
      } else {
        ++phase.failed;
      }
    }
    const auto& api_us = client_->latency_us();
    phase.add_window(
        pass_start, client_->collected_bits() - bits_before,
        client_->requests() - requests_before,
        excluded_seconds_ - excluded_before,
        {phase.block_ms.begin() + static_cast<std::ptrdiff_t>(blocks_before),
         phase.block_ms.end()},
        {api_us.begin() + static_cast<std::ptrdiff_t>(api_before),
         api_us.end()});
    if (pass.secret_bits != reference_->secret_bits ||
        pass.digest != reference_->digest) {
      result.violations.push_back(
          "a replay pass produced different keys than the warm pass");
    }
  } while (seconds_since(start) < seconds);
  phase.seconds = seconds_since(start);
  phase.requests = client_->requests();
  phase.failed_requests = client_->failed_requests();
  phase.api_us.assign(client_->latency_us().begin(),
                      client_->latency_us().end());
  phase.collected_bits = client_->collected_bits();
  return phase;
}

void Metro::finish(Result& result) {
  Checker& checker = client_->checker();
  const std::string reader_error = reader_->error();
  checker.require(reader_error.empty(), "SAE reader: " + reader_error);
  checker.require(!replay_mismatch_,
                  "stage replay disagrees with process_block");
  checker.unique_ids(client_->uuids());
  const auto stats = service_->pair_stats(kPair.master, kPair.slave);
  const auto& ledger = client_->ledger().at(kPair.master);
  checker.pair("metro pair", *stats, ledger.delivered_bits,
               ledger.collected_bits);
  checker.balance("metro pair: buffered tail", stats->buffered_bits,
                  residual_bits_);
  checker.store({"metro store", &orchestrator_->key_store(0), deposited_bits_,
                 rejected_bits_,
                 {{kPair.master, stats->delivered_bits + stats->buffered_bits}}});
  for (const auto& v : checker.violations()) result.violations.push_back(v);
  result.per_layer["kms.rejected_bits"] = {
      static_cast<double>(orchestrator_->key_store(0).rejected_bits()), "bit"};
  result.per_layer["kms.depth_bits"] = {
      depth_samples_ ? depth_sum_ / static_cast<double>(depth_samples_) : 0.0,
      "bit"};
}

void Metro::layer_report(const std::map<std::string, LayerTimes>& layers,
                         Result& result) const {
  const auto mean_ms = [&](const char* name) {
    const auto it = layers.find(name);
    if (it == layers.end() || it->second.duration_s.empty()) return 0.0;
    double total = 0.0;
    for (const double d : it->second.duration_s) total += d;
    return total * 1e3 / static_cast<double>(it->second.duration_s.size());
  };
  auto& L = result.per_layer;
  const auto sim = layers.find("sim.block");
  if (sim != layers.end()) L["sim.block_ms"] = {sim->second.median_ms(), "ms"};
  const double engine_ms = mean_ms("engine.block");
  L["engine.block_ms"] = {engine_ms, "ms"};
  double staged_ms = 0.0;
  for (const char* stage :
       {"protocol.sift", "protocol.estimate", "reconcile.plan",
        "reconcile.decode", "privacy.verify", "privacy.amplify"}) {
    const double ms = mean_ms(stage);
    staged_ms += ms;
    L[std::string(stage) + "_ms"] = {ms, "ms"};
    L[std::string(stage) + "_share"] = {engine_ms > 0 ? ms / engine_ms : 0.0,
                                        "share"};
  }
  L["engine.unattributed_ms"] = {engine_ms - staged_ms, "ms"};
  L["engine.unattributed_share"] = {
      engine_ms > 0 ? (engine_ms - staged_ms) / engine_ms : 0.0, "share"};
  const auto deposit = layers.find("kms.deposit");
  if (deposit != layers.end()) {
    L["kms.deposit_us"] = {quantile(deposit->second.duration_s, 0.5) * 1e6,
                           "us"};
  }
  const auto per_frame = [](std::uint64_t x, std::uint64_t frames) {
    return frames ? static_cast<double>(x) / static_cast<double>(frames) : 0.0;
  };
  const double blocks = static_cast<double>(std::max<std::uint64_t>(1, replay_.blocks));
  L["reconcile.frames_per_block"] = {static_cast<double>(replay_.frames) / blocks,
                                     "count"};
  L["reconcile.frames_ok_ratio"] = {per_frame(replay_.frames_ok, replay_.frames),
                                    "share"};
  L["reconcile.iterations_per_frame"] = {
      per_frame(replay_.iterations, replay_.frames), "count"};
  L["reconcile.early_exit_ratio"] = {
      per_frame(replay_.early_exit, replay_.frames), "share"};
  L["reconcile.leak_bits_per_block"] = {
      static_cast<double>(replay_.leak_bits) / blocks, "bit"};
  L["reconcile.efficiency"] = {replay_.efficiency / blocks, "ratio"};
  L["setup.slowest_warm_block_ms"] = {slowest_warm_ms_, "ms"};
  add_api_layers(layers, result);
}

}  // namespace

Result run_metro_replay(const Options& options) {
  Result result;
  Metro metro(options);
  const auto start = Clock::now();
  metro.setup(result);
  result.setup_s = seconds_since(start);
  if (options.setup_only) return result;
  if (!options.trace) {
    const Phase phase = metro.run_phase(options.seconds, nullptr, result);
    fill_end_to_end(phase, result.end_to_end);
    result.attempted = phase.attempted;
    result.failed = phase.failed;
  } else {
    const Phase plain = metro.run_phase(options.seconds / 2, nullptr, result);
    Tracer tracer(0, metro.epoch());
    const Phase traced = metro.run_phase(options.seconds / 2, &tracer, result);
    add_overhead(plain, traced, result);
    result.attempted = plain.attempted + traced.attempted;
    result.failed = plain.failed + traced.failed;
    std::vector<const Tracer*> tracers = metro.tracers();
    tracers.push_back(&tracer);
    metro.layer_report(layer_times(tracers), result);
    dump_spans(options, tracers, result);
  }
  metro.finish(result);
  return result;
}

}  // namespace perfbench
