// qkdpp_perfbench: runs one benchmark workload in this process and prints a
// per-layer table (traced runs) followed by one JSON line with everything the
// run measured. perfbench/run.py builds this binary, runs it, and turns that
// line into the benchmark's result.
//
//   qkdpp_perfbench --workload metro-replay --seed 1 --seconds 10 --trace 0
//   qkdpp_perfbench --self-test
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"
#include "common/error.hpp"

#if !defined(__OPTIMIZE__)
#error "perfbench must be built with optimization (Release or RelWithDebInfo)"
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "perfbench refuses sanitizer builds"
#endif

namespace {

using namespace perfbench;

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_metrics(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string load_average() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) return "unknown";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f %.2f %.2f", load[0], load[1], load[2]);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: qkdpp_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--quick] [--setup-only] [--out-dir DIR]\n"
               "       qkdpp_perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool self_test_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--setup-only") {
      options.setup_only = true;
    } else if (arg == "--self-test") {
      self_test_only = true;
    } else {
      return usage();
    }
  }

  const std::vector<std::string> misses = checker_self_test();
  for (const auto& miss : misses) {
    std::fprintf(stderr, "checker self-test: %s\n", miss.c_str());
  }
  if (self_test_only) {
    std::printf("checker self-test: %s\n", misses.empty() ? "ok" : "FAILED");
    return misses.empty() ? 0 : 1;
  }
  if (options.seconds <= 0) return usage();

  const std::string load_start = load_average();
  Result result;
  try {
    std::filesystem::create_directories(options.out_dir);
    if (options.workload == "metro-replay") {
      result = run_metro_replay(options);
    } else if (options.workload == "fleet-session") {
      result = run_fleet_session(options);
    } else if (options.workload == "etsi-serve") {
      result = run_etsi_serve(options);
    } else {
      return usage();
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), error.what());
    return 1;
  }
  for (const auto& miss : misses) {
    result.violations.push_back("checker self-test: " + miss);
  }

  for (const auto& line : result.table) std::printf("%s\n", line.c_str());
  if (options.trace) {
    std::printf("per-layer (%s, seed %llu):\n", options.workload.c_str(),
                static_cast<unsigned long long>(options.seed));
    for (const auto& [name, metric] : result.per_layer) {
      std::printf("  %-34s %16.6f %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  for (const auto& v : result.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }

  std::string violations = "[";
  for (const auto& v : result.violations) {
    if (violations.size() > 1) violations += ", ";
    violations += json_string(v);
  }
  violations += "]";
  const std::string host =
      std::string("{\"cpu_model\": ") + json_string(cpu_model()) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
      ", \"flags\": " + json_string(PERFBENCH_FLAGS) +
      ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
      ", \"loadavg_start\": " + json_string(load_start) +
      ", \"loadavg_end\": " + json_string(load_average()) + "}";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"setup_s\": %s, "
      "\"peak_rss_mb\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"violations\": %s, \"end_to_end\": %s, \"per_layer\": %s, "
      "\"host\": %s}\n",
      json_string(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
      json_number(result.setup_s).c_str(), json_number(peak_rss_mb()).c_str(),
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), violations.c_str(),
      json_metrics(result.end_to_end).c_str(),
      json_metrics(result.per_layer).c_str(), host.c_str());
  return 0;
}
