// etsi-serve: the key delivery plane with no distillation in the timed
// region. Four orchestrator links (no blocks) form a ring n0-n1-n2-n3-n0.
// Two SAE pairs sit on adjacent nodes (served from one link's KeyStore) and
// two on opposite nodes (relayed two hops through network::NetworkDelivery).
//
// Load is closed loop: nproc / 2 client threads (at least one), each moving
// blocks of key to SAE pairs in turn. A block is 128 keys of 256 bits - the
// size of one store deposit - delivered as enc_keys (one key) followed by the
// matching dec_keys, with a status call every 16 keys. A block's latency runs
// from its first enc_keys to its last dec_keys. One depositor thread writes
// 4096-bit keys into the stores every millisecond beside the reads.
//
// A run is a fixed amount of work: rounds of a fixed number of blocks per
// client, kRoundsPerSecond rounds per requested second (about that many
// seconds on the reference host; a faster tree finishes sooner). Fixed work
// keeps the run's sample buffers, and so its peak RSS, independent of speed.
// Between rounds, untimed, every store is topped back up to the demand of a
// whole round, so key supply never limits a run and no request is answered
// 503 however fast the service gets.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <future>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "client.hpp"
#include "common/rng.hpp"
#include "network/delivery.hpp"
#include "network/topology.hpp"
#include "service/link_orchestrator.hpp"

namespace perfbench {

namespace {

using namespace qkdpp;

constexpr std::uint64_t kKeyBits = 256;
constexpr std::uint64_t kBlockBits = 32768;
constexpr std::uint64_t kKeysPerBlock = kBlockBits / kKeyBits;
constexpr std::uint64_t kStatusEvery = 16;
constexpr std::uint64_t kBlocksPerRound = 16;
constexpr std::uint64_t kQuickBlocksPerRound = 1;
constexpr std::uint64_t kDepositorBits = 4096;
constexpr auto kDepositorPeriod = std::chrono::milliseconds(1);
/// Rounds per requested second: a round takes about 60 ms on the 4-vCPU
/// reference host.
constexpr double kRoundsPerSecond = 16.0;
/// Traced runs record every request of one block in this many.
constexpr std::uint64_t kTraceEveryBlocks = 16;

struct RingLink {
  const char* name;
  const char* node_a;
  const char* node_b;
};

constexpr RingLink kRing[] = {{"ring-L01", "n0", "n1"},
                              {"ring-L12", "n1", "n2"},
                              {"ring-L23", "n2", "n3"},
                              {"ring-L30", "n3", "n0"}};
constexpr std::size_t kRingLinks = std::size(kRing);

struct PairPlan {
  SaePairRef ref;
  const char* link;  ///< adjacent pairs
  const char* src;   ///< relayed pairs
  const char* dst;
};

const PairPlan kPairs[] = {
    {{"sae-n0-a", "sae-n1-a", false}, "ring-L01", nullptr, nullptr},
    {{"sae-n0-r", "sae-n2-r", true}, nullptr, "n0", "n2"},
    {{"sae-n2-a", "sae-n3-a", false}, "ring-L23", nullptr, nullptr},
    {{"sae-n1-r", "sae-n3-r", true}, nullptr, "n1", "n3"},
};

class Etsi {
 public:
  explicit Etsi(const Options& options)
      : options_(options),
        clients_(std::max(1u, std::thread::hardware_concurrency() / 2)),
        blocks_per_round_(options.quick ? kQuickBlocksPerRound
                                        : kBlocksPerRound),
        level_bits_(clients_ * blocks_per_round_ * kBlockBits + 2 * kBlockBits),
        epoch_(Clock::now()),
        rng_(mix_seed(options.seed, 0xe751)),
        depositor_tracer_(99, epoch_) {}

  void setup(Result& result);
  /// Runs `rounds` rounds and measures them.
  Phase run_phase(std::uint64_t rounds, bool traced);
  void finish(Result& result);
  void layer_report(Result& result) const;
  std::vector<const Tracer*> tracers() const;

 private:
  struct ClientState {
    std::unique_ptr<SaeClient> client;
    std::unique_ptr<Tracer> tracer;
    std::vector<double> block_ms;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t blocks_done = 0;
  };

  void fill_to_level();
  /// Deposits `bits` of fresh key; `beside_reads` marks the depositor
  /// thread's writes, the ones kms.deposit_us describes.
  void deposit(std::size_t link, std::uint64_t bits, bool beside_reads,
               Tracer* tracer);
  /// One round: clients deliver their blocks beside the depositor.
  double round(bool traced);

  const Options& options_;
  const std::size_t clients_;
  const std::uint64_t blocks_per_round_;
  const std::uint64_t level_bits_;
  Clock::time_point epoch_;
  Xoshiro256 rng_;
  Tracer depositor_tracer_;
  std::unique_ptr<service::LinkOrchestrator> orchestrator_;
  std::unique_ptr<network::Topology> topology_;
  std::unique_ptr<api::KeyDeliveryService> service_;
  std::unique_ptr<network::NetworkDelivery> network_;
  std::unique_ptr<api::Dispatcher> dispatcher_;
  std::vector<ClientState> states_;
  std::vector<std::uint64_t> accepted_bits_;
  std::vector<std::uint64_t> rejected_bits_;
  std::vector<double> deposit_us_;
  double depth_sum_ = 0.0;
  std::uint64_t depth_samples_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t depositor_seq_ = 0;
  double slowest_warm_ms_ = 0.0;
};

void Etsi::setup(Result& result) {
  service::OrchestratorConfig config;
  config.store.capacity_bits = 2 * level_bits_;
  for (const auto& link : kRing) {
    service::LinkSpec spec;
    spec.name = link.name;
    spec.link.channel.length_km = 10.0;
    spec.blocks = 0;
    config.links.push_back(spec);
  }
  orchestrator_ = std::make_unique<service::LinkOrchestrator>(config);
  topology_ = std::make_unique<network::Topology>(*orchestrator_);
  for (const char* node : {"n0", "n1", "n2", "n3"}) topology_->add_node(node);
  for (const auto& link : kRing) {
    topology_->add_edge(link.node_a, link.node_b, link.name);
  }
  api::KeyDeliveryConfig delivery;
  delivery.uuid_seed = mix_seed(options_.seed, 0xe75e);
  service_ = std::make_unique<api::KeyDeliveryService>(*orchestrator_,
                                                       delivery);
  network_ = std::make_unique<network::NetworkDelivery>(*topology_, *service_);
  for (const auto& plan : kPairs) {
    api::SaePair pair;
    pair.master_sae_id = plan.ref.master;
    pair.slave_sae_id = plan.ref.slave;
    if (plan.ref.relayed) {
      network_->register_pair(pair, plan.src, plan.dst);
    } else {
      pair.link_name = plan.link;
      service_->register_pair(pair);
    }
  }
  dispatcher_ = std::make_unique<api::Dispatcher>(*service_);
  states_.resize(clients_);
  for (std::size_t c = 0; c < clients_; ++c) {
    states_[c].client = std::make_unique<SaeClient>(*dispatcher_, *service_);
    states_[c].tracer = std::make_unique<Tracer>(10 + c, epoch_);
  }
  accepted_bits_.assign(kRingLinks, 0);
  rejected_bits_.assign(kRingLinks, 0);

  fill_to_level();
  // Warm pass: one untimed round.
  round(false);
  fill_to_level();
  for (auto& s : states_) {
    if (s.failed) result.violations.push_back("etsi warm round failed a block");
    for (const double ms : s.block_ms) {
      slowest_warm_ms_ = std::max(slowest_warm_ms_, ms);
    }
    s.block_ms.clear();
    s.attempted = s.failed = 0;
    s.client->reset_samples();
  }
  deposit_us_.clear();
}

void Etsi::deposit(std::size_t link, std::uint64_t bits, bool beside_reads,
                   Tracer* tracer) {
  pipeline::KeyStore& store = orchestrator_->key_store(link);
  BitVec key = rng_.random_bits(bits);
  pipeline::DepositResult result;
  const auto start = Clock::now();
  {
    ScopedSpan span(tracer, "kms.deposit", ++depositor_seq_);
    result = store.deposit(std::move(key));
  }
  if (beside_reads) deposit_us_.push_back(seconds_since(start) * 1e6);
  (result.accepted() ? accepted_bits_ : rejected_bits_)[link] += bits;
  depth_sum_ += static_cast<double>(store.bits_available());
  ++depth_samples_;
}

void Etsi::fill_to_level() {
  for (std::size_t link = 0; link < kRingLinks; ++link) {
    while (orchestrator_->key_store(link).bits_available() < level_bits_) {
      deposit(link, kBlockBits, false, nullptr);
    }
  }
}

double Etsi::round(bool traced) {
  std::atomic<bool> done{false};
  auto depositor = std::async(std::launch::async, [&] {
    Tracer* tracer = traced ? &depositor_tracer_ : nullptr;
    auto next = Clock::now();
    std::size_t link = 0;
    while (!done.load(std::memory_order_acquire)) {
      next += kDepositorPeriod;
      std::this_thread::sleep_until(next);
      deposit(link, kDepositorBits, true, tracer);
      link = (link + 1) % kRingLinks;
    }
  });
  const auto start = Clock::now();
  std::vector<std::future<void>> clients;
  for (std::size_t c = 0; c < clients_; ++c) {
    clients.push_back(std::async(std::launch::async, [this, c, traced] {
      ClientState& s = states_[c];
      for (std::uint64_t k = 0; k < blocks_per_round_; ++k) {
        const std::uint64_t block = s.blocks_done++;
        const PairPlan& plan = kPairs[(c + block) % std::size(kPairs)];
        Tracer* tracer =
            traced && block % kTraceEveryBlocks == 0 ? s.tracer.get() : nullptr;
        const std::uint64_t id = (c + 1) * 1'000'000'000ULL + block;
        const auto block_start = Clock::now();
        bool ok = true;
        for (std::uint64_t key = 0; key < kKeysPerBlock; ++key) {
          if (key % kStatusEvery == 0) {
            ok = s.client->status(plan.ref, tracer, id) && ok;
          }
          ok = s.client->deliver(plan.ref, 1, kKeyBits, tracer, id) && ok;
        }
        ++s.attempted;
        if (ok) {
          s.block_ms.push_back(seconds_since(block_start) * 1e3);
        } else {
          ++s.failed;
        }
      }
    }));
  }
  // Join everything before any failure propagates: the depositor must stop.
  std::exception_ptr failure;
  for (auto& client : clients) {
    try {
      client.get();
    } catch (...) {
      if (!failure) failure = std::current_exception();
    }
  }
  const double seconds = seconds_since(start);
  done.store(true, std::memory_order_release);
  depositor.get();
  if (failure) std::rethrow_exception(failure);
  ++rounds_;
  return seconds;
}

Phase Etsi::run_phase(std::uint64_t rounds, bool traced) {
  for (auto& s : states_) {
    s.block_ms.clear();
    s.attempted = s.failed = 0;
    s.client->reset_samples();
  }
  Phase phase;
  const auto counters = [this] {
    std::pair<std::uint64_t, std::uint64_t> sum{0, 0};
    for (const auto& s : states_) {
      sum.first += s.client->collected_bits();
      sum.second += s.client->requests();
    }
    return sum;
  };
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const auto before = counters();
    const double round_s = round(traced);
    const auto after = counters();
    phase.seconds += round_s;
    phase.window_bits_per_s.push_back(
        static_cast<double>(after.first - before.first) / round_s);
    phase.window_requests_per_s.push_back(
        static_cast<double>(after.second - before.second) / round_s);
    fill_to_level();
  }
  for (const auto& s : states_) {
    phase.attempted += s.attempted;
    phase.failed += s.failed;
    phase.block_ms.insert(phase.block_ms.end(), s.block_ms.begin(),
                          s.block_ms.end());
    phase.requests += s.client->requests();
    phase.failed_requests += s.client->failed_requests();
    phase.collected_bits += s.client->collected_bits();
    const auto& us = s.client->latency_us();
    phase.api_us.insert(phase.api_us.end(), us.begin(), us.end());
  }
  return phase;
}

std::vector<const Tracer*> Etsi::tracers() const {
  std::vector<const Tracer*> out{&depositor_tracer_};
  for (const auto& s : states_) out.push_back(s.tracer.get());
  return out;
}

void Etsi::finish(Result& result) {
  Checker checker;
  std::vector<std::uint64_t> ids;
  std::map<std::string, SaeClient::PairLedger> ledger;
  for (auto& s : states_) {
    for (const auto& v : s.client->checker().violations()) {
      result.violations.push_back(v);
    }
    auto& u = s.client->uuids();
    ids.insert(ids.end(), u.begin(), u.end());
    for (const auto& [master, l] : s.client->ledger()) {
      ledger[master].delivered_bits += l.delivered_bits;
      ledger[master].collected_bits += l.collected_bits;
    }
  }
  checker.unique_ids(ids);

  std::vector<std::vector<std::pair<std::string, std::uint64_t>>> consumers(
      kRingLinks);
  std::uint64_t relayed_total = 0;
  for (const auto& plan : kPairs) {
    const auto stats = service_->pair_stats(plan.ref.master, plan.ref.slave);
    const auto& l = ledger[plan.ref.master];
    checker.pair(plan.ref.master, *stats, l.delivered_bits, l.collected_bits);
    const std::uint64_t drawn = stats->delivered_bits + stats->buffered_bits;
    if (plan.ref.relayed) {
      const auto source = network_->source(plan.ref.master, plan.ref.slave);
      checker.balance(plan.ref.master + ": relayed vs delivered + buffered",
                      source->stats().relayed_bits, drawn);
      relayed_total += source->stats().relayed_bits;
    } else {
      consumers[*orchestrator_->link_index(plan.link)].push_back(
          {plan.ref.master, drawn});
    }
  }
  const network::KeyRelay& relay = network_->relay();
  checker.balance("relay: delivered vs relayed by sources",
                  relay.delivered_bits(), relayed_total);
  std::uint64_t rejected = 0;
  for (std::size_t e = 0; e < topology_->edge_count(); ++e) {
    const std::size_t link = topology_->edge(e).link;
    consumers[link].push_back({relay.consumer_name(e),
                               relay.consumed_bits(e) + relay.buffered_bits(e)});
  }
  for (std::size_t link = 0; link < kRingLinks; ++link) {
    checker.store({kRing[link].name, &orchestrator_->key_store(link),
                   accepted_bits_[link], rejected_bits_[link],
                   consumers[link]});
    rejected += orchestrator_->key_store(link).rejected_bits();
  }
  for (const auto& v : checker.violations()) result.violations.push_back(v);
  result.per_layer["kms.rejected_bits"] = {static_cast<double>(rejected), "bit"};
  result.per_layer["kms.depth_bits"] = {
      depth_samples_ ? depth_sum_ / static_cast<double>(depth_samples_) : 0.0,
      "bit"};
}

void Etsi::layer_report(Result& result) const {
  add_api_layers(layer_times(tracers()), result);
  result.per_layer["kms.deposit_us"] = {quantile(deposit_us_, 0.5), "us"};
  result.per_layer["setup.slowest_warm_block_ms"] = {slowest_warm_ms_, "ms"};
  std::uint64_t draws = 0, reroutes = 0, bits = 0;
  for (const auto& plan : kPairs) {
    if (!plan.ref.relayed) continue;
    const auto stats =
        network_->source(plan.ref.master, plan.ref.slave)->stats();
    draws += stats.draws;
    reroutes += stats.reroutes;
    bits += stats.relayed_bits;
  }
  const double rounds = static_cast<double>(std::max<std::uint64_t>(1, rounds_));
  result.per_layer["network.relay_draws"] = {static_cast<double>(draws) / rounds,
                                             "count"};
  result.per_layer["network.reroutes"] = {static_cast<double>(reroutes) / rounds,
                                          "count"};
  result.per_layer["network.relayed_bits"] = {static_cast<double>(bits) / rounds,
                                              "bit"};
}

}  // namespace

Result run_etsi_serve(const Options& options) {
  Result result;
  Etsi etsi(options);
  const auto start = Clock::now();
  etsi.setup(result);
  result.setup_s = seconds_since(start);
  if (options.setup_only) return result;
  const auto rounds = static_cast<std::uint64_t>(
      std::max(2.0, std::round(options.seconds * kRoundsPerSecond)));
  if (!options.trace) {
    const Phase phase = etsi.run_phase(rounds, false);
    fill_end_to_end(phase, result.end_to_end);
    result.attempted = phase.requests;
    result.failed = phase.failed_requests;
  } else {
    const Phase plain = etsi.run_phase(rounds / 2, false);
    const Phase traced = etsi.run_phase(rounds / 2, true);
    add_overhead(plain, traced, result);
    result.attempted = plain.requests + traced.requests;
    result.failed = plain.failed_requests + traced.failed_requests;
    etsi.layer_report(result);
    dump_spans(options, etsi.tracers(), result);
  }
  etsi.finish(result);
  return result;
}

}  // namespace perfbench
