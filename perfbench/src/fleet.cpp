// fleet-session: eight links at 5-25 km driven by LinkOrchestrator::run over
// the two-party session transport (Alice on a worker, Bob on an async
// thread, messages under Wegman-Carter auth and the ARQ), fault-free channel
// and default retry policy, workers = nproc / 2.
//
// About one session block in twenty ends in a typed "no reconciled frames"
// abort: a 2^20-pulse block holds one or two LDPC frames, and the protocol
// discards a block when every frame fails. That is the protocol working, so
// such blocks count against block_ok_share and the key rate but not as
// failed operations; a block fails only when its keys do not read back.
//
// While run() is in flight the benchmark's main thread watches every link
// (LinkHealth block counters, store deposit totals) and reads each new key
// back as 256-bit keys through serialized enc_keys + dec_keys. A block's
// latency runs from its start on its link (the link's previous block
// finishing, or the link starting) to its last key confirmed by dec_keys; it
// includes the in-orchestrator simulation, which the benchmark cannot move
// out of run().
//
// Setup constructs the fleet and runs one full untimed run() so the LDPC
// code cache is warm. Traced, the benchmark also simulates one block per
// link with that link's configuration and replays it through
// run_alice_session / run_bob_session over the same channel stack, which
// gives the simulator's share of fleet time and the per-side session cost.
#include <algorithm>
#include <deque>
#include <future>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "client.hpp"
#include "common/rng.hpp"
#include "engine/sim_adapter.hpp"
#include "pipeline/session.hpp"
#include "protocol/channel.hpp"
#include "protocol/faulty_channel.hpp"
#include "protocol/reliable_channel.hpp"
#include "service/link_orchestrator.hpp"
#include "sim/bb84.hpp"

namespace perfbench {

namespace {

using namespace qkdpp;

constexpr std::size_t kLinks = 8;
constexpr std::size_t kQuickLinks = 2;
constexpr std::uint64_t kBlocksPerLink = 3;
constexpr std::uint64_t kQuickBlocksPerLink = 1;
constexpr double kMinKm = 5.0;
constexpr double kMaxKm = 25.0;
constexpr std::uint64_t kKeyBits = 256;
/// One key per enc_keys, as in etsi-serve: many small deliveries give the
/// api percentiles enough samples beside the fleet's few blocks.
constexpr std::uint64_t kKeysPerRequest = 1;

struct FleetTotals {
  std::uint64_t runs = 0;
  std::vector<double> run_s;
  double link_wall_s = 0.0;
  double busy_share = 0.0;
  std::uint64_t steals = 0;
  std::vector<std::uint64_t> link_blocks;  ///< attempted, per link
  protocol::ChannelCounters channel;
  std::uint64_t blocks = 0;
  std::uint64_t channel_aborts = 0;
  std::uint64_t auth_aborts = 0;
};

class Fleet {
 public:
  explicit Fleet(const Options& options)
      : options_(options),
        links_(options.quick ? kQuickLinks : kLinks),
        epoch_(Clock::now()),
        run_tracer_(1, epoch_),
        bob_tracer_(2, epoch_) {}

  void setup(Result& result);
  Phase run_phase(double seconds, Tracer* tracer);
  void replay_sessions(Tracer& tracer);
  void finish(Result& result);
  void layer_report(const std::map<std::string, LayerTimes>& layers,
                    Result& result) const;

  Clock::time_point epoch() const { return epoch_; }
  const Tracer* run_tracer() const { return &run_tracer_; }
  const Tracer* bob_tracer() const { return &bob_tracer_; }

 private:
  struct Watch {
    std::uint64_t completions = 0;
    std::uint64_t ok = 0;
    std::uint64_t deposited = 0;
    bool started = false;
    Clock::time_point block_start;
    std::deque<Clock::time_point> awaiting_key;
  };

  /// One run() with the concurrent read-back; adds to `phase`.
  void run_once(Tracer* tracer, Phase& phase, FleetTotals* totals);
  void poll(std::vector<Watch>& watch, Tracer* tracer, Phase& phase);

  const Options& options_;
  const std::size_t links_;
  Clock::time_point epoch_;
  Tracer run_tracer_;
  Tracer bob_tracer_;
  std::unique_ptr<service::LinkOrchestrator> orchestrator_;
  std::unique_ptr<api::KeyDeliveryService> service_;
  std::unique_ptr<api::Dispatcher> dispatcher_;
  std::unique_ptr<SaeClient> client_;
  std::vector<SaePairRef> pairs_;
  std::vector<std::uint64_t> residual_;
  std::vector<std::uint64_t> accepted_bits_;
  std::vector<std::uint64_t> rejected_bits_;
  std::uint64_t mismatched_keys_ = 0;
  std::uint64_t block_seq_ = 0;
  std::size_t workers_ = 1;
  double depth_sum_ = 0.0;
  std::uint64_t depth_samples_ = 0;
  FleetTotals timed_;
  std::vector<double> sim_ms_;  ///< per link, traced replays
  double slowest_warm_ms_ = 0.0;
  bool session_mismatch_ = false;
};

void Fleet::setup(Result& result) {
  service::OrchestratorConfig config;
  workers_ = std::max(1u, std::thread::hardware_concurrency() / 2);
  config.workers = workers_;
  for (std::size_t i = 0; i < links_; ++i) {
    service::LinkSpec spec;
    spec.name = "fleet-L" + std::to_string(i);
    spec.link.channel.length_km =
        links_ > 1 ? kMinKm + (kMaxKm - kMinKm) * static_cast<double>(i) /
                                  static_cast<double>(links_ - 1)
                   : kMinKm;
    spec.blocks = options_.quick ? kQuickBlocksPerLink : kBlocksPerLink;
    spec.rng_seed = mix_seed(options_.seed, i);
    spec.session_transport = true;
    config.links.push_back(spec);
  }
  orchestrator_ = std::make_unique<service::LinkOrchestrator>(config);
  api::KeyDeliveryConfig delivery;
  delivery.uuid_seed = mix_seed(options_.seed, 0xf1ee7);
  service_ = std::make_unique<api::KeyDeliveryService>(*orchestrator_,
                                                       delivery);
  for (std::size_t i = 0; i < links_; ++i) {
    const std::string& name = config.links[i].name;
    pairs_.push_back({"sae-" + name + "-a", "sae-" + name + "-b", false});
    api::SaePair pair;
    pair.master_sae_id = pairs_.back().master;
    pair.slave_sae_id = pairs_.back().slave;
    pair.link_name = name;
    service_->register_pair(pair);
  }
  residual_.assign(links_, 0);
  accepted_bits_.assign(links_, 0);
  rejected_bits_.assign(links_, 0);
  timed_.link_blocks.assign(links_, 0);
  dispatcher_ = std::make_unique<api::Dispatcher>(*service_);
  client_ = std::make_unique<SaeClient>(*dispatcher_, *service_);

  // Warm pass: one full run() over the workload's own links.
  Phase warm;
  run_once(nullptr, warm, nullptr);
  if (warm.attempted == 0) {
    result.violations.push_back("fleet warm pass ran no blocks");
  }
  slowest_warm_ms_ = quantile(warm.block_ms, 1.0);
}

void Fleet::poll(std::vector<Watch>& watch, Tracer* tracer, Phase& phase) {
  for (std::size_t i = 0; i < links_; ++i) {
    Watch& w = watch[i];
    const service::LinkHealth health = orchestrator_->link_health(i);
    const auto now = Clock::now();
    const std::uint64_t completions = health.blocks_ok + health.blocks_aborted;
    if (!w.started && (health.distilling || completions > w.completions)) {
      w.started = true;
      w.block_start = now;
    }
    if (completions > w.completions) {
      const std::uint64_t ok = health.blocks_ok - w.ok;
      for (std::uint64_t k = 0; k < ok; ++k) w.awaiting_key.push_back(w.block_start);
      phase.attempted += completions - w.completions;
      phase.aborted += completions - w.completions - ok;
      w.completions = completions;
      w.ok = health.blocks_ok;
      w.block_start = now;
    }
    pipeline::KeyStore& store = orchestrator_->key_store(i);
    const std::uint64_t deposited = store.total_deposited_bits();
    if (deposited == w.deposited) continue;
    depth_sum_ += static_cast<double>(store.bits_available());
    ++depth_samples_;
    const std::uint64_t id = ++block_seq_;
    const std::uint64_t bits = deposited - w.deposited;
    w.deposited = deposited;
    bool ok = client_->status(pairs_[i], tracer, id);
    std::uint64_t keys = (residual_[i] + bits) / kKeyBits;
    residual_[i] = (residual_[i] + bits) % kKeyBits;
    while (keys > 0) {
      const std::uint64_t n = std::min(keys, kKeysPerRequest);
      ok = client_->deliver(pairs_[i], n, kKeyBits, tracer, id) && ok;
      keys -= n;
    }
    const auto done = Clock::now();
    while (!w.awaiting_key.empty()) {
      if (ok) {
        phase.block_ms.push_back(seconds_between(w.awaiting_key.front(), done) *
                                 1e3);
      } else {
        ++phase.failed;
      }
      w.awaiting_key.pop_front();
    }
  }
}

void Fleet::run_once(Tracer* tracer, Phase& phase, FleetTotals* totals) {
  std::vector<Watch> watch(links_);
  for (std::size_t i = 0; i < links_; ++i) {
    const service::LinkHealth health = orchestrator_->link_health(i);
    watch[i].completions = health.blocks_ok + health.blocks_aborted;
    watch[i].ok = health.blocks_ok;
    watch[i].deposited = orchestrator_->key_store(i).total_deposited_bits();
  }
  Tracer* run_tracer = tracer ? &run_tracer_ : nullptr;
  auto fleet = std::async(std::launch::async, [this, run_tracer] {
    ScopedSpan span(run_tracer, "service.run");
    return orchestrator_->run();
  });
  while (fleet.wait_for(std::chrono::milliseconds(1)) !=
         std::future_status::ready) {
    poll(watch, tracer, phase);
  }
  const service::OrchestratorReport report = fleet.get();
  poll(watch, tracer, phase);

  double link_wall = 0.0;
  for (std::size_t i = 0; i < links_; ++i) {
    const service::LinkReport& link = report.links[i];
    accepted_bits_[i] += link.secret_bits;
    rejected_bits_[i] += link.rejected_bits;
    mismatched_keys_ += link.mismatched_keys;
    link_wall += link.wall_seconds;
    if (totals) {
      totals->link_blocks[i] += link.blocks_ok + link.blocks_aborted;
      totals->blocks += link.blocks_ok + link.blocks_aborted;
      totals->channel += link.channel;
      totals->channel_aborts += link.channel_aborts;
      totals->auth_aborts += link.auth_aborts;
    }
  }
  if (totals) {
    ++totals->runs;
    totals->run_s.push_back(report.wall_seconds);
    totals->link_wall_s += link_wall;
    totals->busy_share +=
        link_wall / (static_cast<double>(workers_) * report.wall_seconds);
    totals->steals += report.pool.stolen;
  }
}

Phase Fleet::run_phase(double seconds, Tracer* tracer) {
  Phase phase;
  client_->reset_samples();
  const auto start = Clock::now();
  do {
    run_once(tracer, phase, &timed_);
  } while (seconds_since(start) < seconds);
  phase.seconds = seconds_since(start);
  phase.requests = client_->requests();
  phase.failed_requests = client_->failed_requests();
  phase.api_us.assign(client_->latency_us().begin(),
                      client_->latency_us().end());
  phase.collected_bits = client_->collected_bits();
  return phase;
}

void Fleet::replay_sessions(Tracer& tracer) {
  sim_ms_.assign(links_, 0.0);
  for (std::size_t i = 0; i < links_; ++i) {
    const service::LinkSpec& spec = orchestrator_->link_spec(i);
    const std::uint64_t block_id = 1'000'000 + i;
    ScopedSpan replay_span(&tracer, "replay", block_id);
    Xoshiro256 rng(mix_seed(options_.seed, 5000 + i));
    sim::DetectionRecord record;
    {
      const auto start = Clock::now();
      ScopedSpan span(&tracer, "sim.block");
      record = sim::Bb84Simulator(spec.link).run(spec.pulses_per_block, rng);
      sim_ms_[i] = seconds_since(start) * 1e3;
    }
    const engine::BlockInput input = engine::make_block_input(record, block_id);
    pipeline::BobDetections detections;
    detections.block_id = block_id;
    detections.n_pulses = input.report.n_pulses;
    detections.detected_idx = input.report.detected_idx;
    detections.bits = input.bob_bits;
    detections.bases = input.report.bob_bases;

    auto [raw_alice, raw_bob] = protocol::make_channel_pair();
    protocol::ReliableChannel alice_channel(
        protocol::make_faulty_channel(std::move(raw_alice), spec.channel_faults,
                                      mix_seed(block_id, 1)),
        spec.channel_retry, mix_seed(block_id, 3));
    protocol::ReliableChannel bob_channel(
        protocol::make_faulty_channel(std::move(raw_bob), spec.channel_faults,
                                      mix_seed(block_id, 2)),
        spec.channel_retry, mix_seed(block_id, 4));
    auto bob = std::async(std::launch::async, [&] {
      pipeline::SessionResult r;
      {
        ScopedSpan span(&bob_tracer_, "session.bob", block_id);
        r = pipeline::run_bob_session(bob_channel, detections, spec.params);
      }
      bob_channel.close();
      return r;
    });
    Xoshiro256 session_rng(mix_seed(block_id, 0));
    pipeline::SessionResult alice;
    {
      ScopedSpan span(&tracer, "session.alice");
      alice = pipeline::run_alice_session(alice_channel, input.log, block_id,
                                          spec.params, session_rng);
    }
    alice_channel.close();
    const pipeline::SessionResult bob_result = bob.get();
    if (alice.success && bob_result.success &&
        alice.final_key != bob_result.final_key) {
      session_mismatch_ = true;
    }
  }
}

void Fleet::finish(Result& result) {
  Checker& checker = client_->checker();
  checker.balance("fleet: LinkReport::mismatched_keys", mismatched_keys_, 0);
  checker.require(!session_mismatch_,
                  "session replay: Alice and Bob keys differ");
  checker.unique_ids(client_->uuids());
  std::uint64_t rejected = 0;
  for (std::size_t i = 0; i < links_; ++i) {
    const SaePairRef& pair = pairs_[i];
    const auto stats = service_->pair_stats(pair.master, pair.slave);
    const auto it = client_->ledger().find(pair.master);
    const SaeClient::PairLedger ledger =
        it == client_->ledger().end() ? SaeClient::PairLedger{} : it->second;
    checker.pair(pair.master, *stats, ledger.delivered_bits,
                 ledger.collected_bits);
    checker.balance(pair.master + ": buffered tail", stats->buffered_bits,
                    residual_[i]);
    checker.store({orchestrator_->link_spec(i).name,
                   &orchestrator_->key_store(i), accepted_bits_[i],
                   rejected_bits_[i],
                   {{pair.master, stats->delivered_bits + stats->buffered_bits}}});
    rejected += orchestrator_->key_store(i).rejected_bits();
  }
  for (const auto& v : checker.violations()) result.violations.push_back(v);
  result.per_layer["kms.rejected_bits"] = {static_cast<double>(rejected), "bit"};
  result.per_layer["kms.depth_bits"] = {
      depth_samples_ ? depth_sum_ / static_cast<double>(depth_samples_) : 0.0,
      "bit"};
}

void Fleet::layer_report(const std::map<std::string, LayerTimes>& layers,
                         Result& result) const {
  auto& L = result.per_layer;
  const auto median_ms = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.median_ms();
  };
  L["sim.block_ms"] = {median_ms("sim.block"), "ms"};
  double sim_s = 0.0;
  for (std::size_t i = 0; i < links_; ++i) {
    sim_s += sim_ms_[i] * 1e-3 * static_cast<double>(timed_.link_blocks[i]);
  }
  L["sim.fleet_share"] = {
      timed_.link_wall_s > 0 ? sim_s / timed_.link_wall_s : 0.0, "share"};
  L["session.alice_ms"] = {median_ms("session.alice"), "ms"};
  L["session.bob_ms"] = {median_ms("session.bob"), "ms"};
  const double runs = static_cast<double>(std::max<std::uint64_t>(1, timed_.runs));
  const double blocks = static_cast<double>(std::max<std::uint64_t>(1, timed_.blocks));
  L["protocol.messages_per_block"] = {
      static_cast<double>(timed_.channel.messages_sent) / blocks, "count"};
  L["protocol.bytes_per_block"] = {
      static_cast<double>(timed_.channel.bytes_sent) / blocks, "byte"};
  L["protocol.retransmits"] = {
      static_cast<double>(timed_.channel.retransmits) / runs, "count"};
  L["protocol.retry_timeouts"] = {
      static_cast<double>(timed_.channel.retry_timeouts) / runs, "count"};
  L["protocol.channel_aborts"] = {
      static_cast<double>(timed_.channel_aborts) / runs, "count"};
  L["auth.auth_aborts"] = {static_cast<double>(timed_.auth_aborts) / runs,
                           "count"};
  L["service.run_s"] = {quantile(timed_.run_s, 0.5), "s"};
  L["service.worker_busy_share"] = {timed_.busy_share / runs, "share"};
  L["service.steals"] = {static_cast<double>(timed_.steals) / runs, "count"};
  L["setup.slowest_warm_block_ms"] = {slowest_warm_ms_, "ms"};
  add_api_layers(layers, result);
}

/// Typed aborts are the protocol discarding a block it could not
/// reconcile, so they lower block_ok_share but are not failed operations.
std::string aborted_note(const Phase& phase) {
  return "blocks: " + std::to_string(phase.attempted) + " attempted, " +
         std::to_string(phase.aborted) + " discarded by a typed abort, " +
         std::to_string(phase.failed) + " failed a check";
}

}  // namespace

Result run_fleet_session(const Options& options) {
  Result result;
  Fleet fleet(options);
  const auto start = Clock::now();
  fleet.setup(result);
  result.setup_s = seconds_since(start);
  if (options.setup_only) return result;
  if (!options.trace) {
    const Phase phase = fleet.run_phase(options.seconds, nullptr);
    fill_end_to_end(phase, result.end_to_end);
    result.attempted = phase.attempted;
    result.failed = phase.failed;
    result.table.push_back(aborted_note(phase));
  } else {
    const Phase plain = fleet.run_phase(options.seconds / 2, nullptr);
    Tracer tracer(0, fleet.epoch());
    const Phase traced = fleet.run_phase(options.seconds / 2, &tracer);
    add_overhead(plain, traced, result);
    result.attempted = plain.attempted + traced.attempted;
    result.failed = plain.failed + traced.failed;
    result.table.push_back(aborted_note(plain));
    result.table.push_back(aborted_note(traced));
    fleet.replay_sessions(tracer);
    const std::vector<const Tracer*> tracers{&tracer, fleet.run_tracer(),
                                             fleet.bob_tracer()};
    fleet.layer_report(layer_times(tracers), result);
    dump_spans(options, tracers, result);
  }
  fleet.finish(result);
  return result;
}

}  // namespace perfbench
