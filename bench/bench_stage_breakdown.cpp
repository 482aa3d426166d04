// Experiment F1 - motivation figure: where does CPU-only post-processing
// spend its time? Runs offline blocks at several link lengths and prints
// each stage's share of the measured post-processing wall clock (sift,
// estimate, reconcile, verify, amplify) and the mean total per block.
// The shares are whatever this host measures; none is assumed small.
#include <cstdio>

#include "pipeline/offline.hpp"

int main() {
  using namespace qkdpp;

  std::printf("F1: CPU-only stage time breakdown (LDPC reconciliation, "
              "2^20-pulse blocks)\n\n");
  std::printf("%6s %8s | %8s %10s %10s %8s %10s | %10s\n", "km", "QBER",
              "sift", "estimate", "reconcile", "verify", "amplify",
              "total ms");

  for (const double km : {10.0, 25.0, 40.0}) {
    pipeline::OfflineConfig config;
    config.link.channel.length_km = km;
    config.pulses_per_block = 1 << 20;

    pipeline::OfflinePipeline qkd(config);
    // Warm-up block (builds the LDPC code once, as a deployment would).
    Xoshiro256 warm_rng(1);
    (void)qkd.process_block(0, warm_rng);

    pipeline::StageTimings sum;
    double qber = 0;
    const int kBlocks = 3;
    int produced = 0;
    Xoshiro256 rng(static_cast<std::uint64_t>(km) * 7 + 2);
    for (int b = 1; b <= kBlocks; ++b) {
      const auto outcome = qkd.process_block(b, rng);
      if (!outcome.success) continue;
      ++produced;
      qber += outcome.qber_estimate;
      sum.sift += outcome.timings.sift;
      sum.estimate += outcome.timings.estimate;
      sum.reconcile += outcome.timings.reconcile;
      sum.verify += outcome.timings.verify;
      sum.amplify += outcome.timings.amplify;
    }
    if (produced == 0) {
      std::printf("%6.0f: all blocks aborted\n", km);
      continue;
    }
    const double total = sum.post_processing_total();
    std::printf("%6.0f %7.2f%% | %7.1f%% %9.1f%% %9.1f%% %7.1f%% %9.1f%% | %10.1f\n",
                km, qber / produced * 100, sum.sift / total * 100,
                sum.estimate / total * 100, sum.reconcile / total * 100,
                sum.verify / total * 100, sum.amplify / total * 100,
                total / produced * 1e3);
  }
  std::printf("\nshares are of measured post-processing wall time per "
              "block (simulation excluded), summed over the blocks that "
              "produced a key.\n");
  return 0;
}
