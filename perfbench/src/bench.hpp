// Shared types of the qkdpp benchmark: run options, the result every
// workload fills in, and small measurement helpers.
//
// End-to-end metrics are wall-clock measurements taken by this benchmark
// around calls into the library's public API. Modeled figures the library
// offers (BlockOutcome::timings, Device::busy_seconds,
// Placement::predicted_items_per_s) are never read.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes, for the benchmark's own tests.
  bool quick = false;
  /// Build the workload, warm it, report setup_s and exit.
  bool setup_only = false;
  /// Directory for span dumps (created by the caller).
  std::string out_dir = ".bench_out";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0.0;
  /// Correctness violations; any entry makes the run incorrect.
  std::vector<std::string> violations;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Human-readable per-layer table (traced runs) and notes.
  std::vector<std::string> table;
};

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 when
/// the sample is empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Arithmetic mean of a sample; 0 when the sample is empty.
inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// SplitMix64 finalizer: derives independent seeds from (seed, index).
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Order-sensitive FNV-1a fold of 64-bit words into a running digest.
inline std::uint64_t fold_digest(std::uint64_t digest, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (word >> (8 * i)) & 0xff;
    digest *= 0x100000001b3ULL;
  }
  return digest;
}

inline constexpr std::uint64_t kDigestInit = 0xcbf29ce484222325ULL;

/// What one timed phase of a workload measured. A block is the unit of key
/// a workload moves end to end; a request is one API call.
struct Phase {
  double seconds = 0.0;
  std::uint64_t attempted = 0;  ///< blocks
  /// Blocks whose outcome broke a check: a failed read-back, a rejected
  /// deposit, a key that is not what the protocol owed.
  std::uint64_t failed = 0;
  /// Blocks the protocol discarded with a typed abort (a fleet session
  /// whose every LDPC frame failed). A correct outcome, not a failure: it
  /// only lowers block_ok_share and the key rate.
  std::uint64_t aborted = 0;
  std::vector<double> block_ms;
  std::uint64_t collected_bits = 0;  ///< confirmed by dec_keys
  std::uint64_t requests = 0;
  std::uint64_t failed_requests = 0;
  std::vector<double> api_us;  ///< per delivery: enc_keys + dec_keys
  /// Per window (a metro pass, an etsi round): confirmed key bits and
  /// requests per second. Throughput metrics are their medians, so a burst
  /// of host noise moves one window, not the run. Without windows (a fleet
  /// run() is too coarse to be one) they are totals over `seconds`.
  std::vector<double> window_bits_per_s;
  std::vector<double> window_requests_per_s;
  /// Per metro pass: the latency statistics of that pass's blocks and
  /// deliveries. Where present, the latency metrics are their medians, for
  /// the same reason; every pass replays the same blocks, so passes compare.
  std::vector<double> window_block_ms_mean;
  std::vector<double> window_block_ms_p90;
  std::vector<double> window_api_us_p50;
  std::vector<double> window_api_us_p99;

  /// Closes a window that started at `start` with the given counters and
  /// the window's latency samples; `excluded_s` is time spent in the window
  /// on benchmark-side work (unpacking a block, the traced stage replay).
  void add_window(Clock::time_point start, std::uint64_t bits,
                  std::uint64_t requests, double excluded_s,
                  const std::vector<double>& block_ms,
                  const std::vector<double>& api_us) {
    const double s = std::max(seconds_since(start) - excluded_s, 1e-9);
    window_bits_per_s.push_back(static_cast<double>(bits) / s);
    window_requests_per_s.push_back(static_cast<double>(requests) / s);
    window_block_ms_mean.push_back(mean(block_ms));
    window_block_ms_p90.push_back(quantile(block_ms, 0.9));
    window_api_us_p50.push_back(quantile(api_us, 0.5));
    window_api_us_p99.push_back(quantile(api_us, 0.99));
  }
};

/// The end-to-end metrics every workload reports, from one phase.
void fill_end_to_end(const Phase& phase, std::map<std::string, Metric>& out);

/// Traced runs: the same metrics untraced and traced, and their difference,
/// as table lines.
void add_overhead(const Phase& plain, const Phase& traced, Result& result);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

class Tracer;
/// Writes the spans to <out_dir>/spans-<workload>-<seed>.tsv and notes the
/// path (or the failure) in the table.
void dump_spans(const Options& options,
                const std::vector<const Tracer*>& tracers, Result& result);

Result run_metro_replay(const Options& options);
Result run_fleet_session(const Options& options);
Result run_etsi_serve(const Options& options);

}  // namespace perfbench
