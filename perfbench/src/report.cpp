#include <sys/resource.h>

#include <cstdio>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

double share(std::uint64_t part, std::uint64_t whole) {
  return whole ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

}  // namespace

void fill_end_to_end(const Phase& phase, std::map<std::string, Metric>& out) {
  const double s = std::max(phase.seconds, 1e-9);
  const bool windowed = !phase.window_bits_per_s.empty();
  out["secret_bits_per_s"] = {
      windowed ? quantile(phase.window_bits_per_s, 0.5)
               : static_cast<double>(phase.collected_bits) / s,
      "bit/s"};
  const bool latency_windowed = !phase.window_block_ms_mean.empty();
  out["block_ms_mean"] = {latency_windowed
                              ? quantile(phase.window_block_ms_mean, 0.5)
                              : mean(phase.block_ms),
                          "ms"};
  out["block_ms_p90"] = {latency_windowed
                             ? quantile(phase.window_block_ms_p90, 0.5)
                             : quantile(phase.block_ms, 0.9),
                         "ms"};
  // Kept in the result file only: block times fall in two clusters and the
  // median sits in the gap, too jumpy to carry a bound (README).
  out["block_ms_p50"] = {quantile(phase.block_ms, 0.5), "ms"};
  out["block_ok_share"] = {
      share(phase.attempted - phase.failed - phase.aborted, phase.attempted),
      "share"};
  out["api_requests_per_s"] = {
      windowed ? quantile(phase.window_requests_per_s, 0.5)
               : static_cast<double>(phase.requests) / s,
      "1/s"};
  out["api_us_p50"] = {latency_windowed
                           ? quantile(phase.window_api_us_p50, 0.5)
                           : quantile(phase.api_us, 0.5),
                       "us"};
  out["api_us_p99"] = {latency_windowed
                           ? quantile(phase.window_api_us_p99, 0.5)
                           : quantile(phase.api_us, 0.99),
                       "us"};
  out["api_ok_share"] = {share(phase.requests - phase.failed_requests,
                               phase.requests),
                         "share"};
}

void add_overhead(const Phase& plain, const Phase& traced, Result& result) {
  std::map<std::string, Metric> a, b;
  fill_end_to_end(plain, a);
  fill_end_to_end(traced, b);
  result.table.push_back("tracing overhead (untraced -> traced half-run):");
  for (const auto& [name, metric] : a) {
    const double t = b[name].value;
    const double change = metric.value != 0.0 ? t / metric.value - 1.0 : 0.0;
    char line[160];
    std::snprintf(line, sizeof line, "  %-20s %14.4f -> %14.4f %-6s (%+.1f%%)",
                  name.c_str(), metric.value, t, metric.unit.c_str(),
                  change * 100.0);
    result.table.push_back(line);
  }
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void dump_spans(const Options& options,
                const std::vector<const Tracer*>& tracers, Result& result) {
  const std::string path = options.out_dir + "/spans-" + options.workload +
                           "-" + std::to_string(options.seed) + ".tsv";
  std::size_t count = 0;
  for (const Tracer* t : tracers) count += t->spans().size();
  if (write_spans(path, tracers)) {
    result.table.push_back("spans: " + std::to_string(count) + " written to " +
                           path);
  } else {
    result.table.push_back("spans: could not write " + path);
  }
}

}  // namespace perfbench
