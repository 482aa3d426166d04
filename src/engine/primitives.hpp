// Pure per-stage computations shared by the engine's stage executors and
// the two-party session choreography. Everything here is deterministic
// given its inputs, so both deployments (single-process engine, two peers
// over a channel) produce bit-identical keys from the same raw material.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "privacy/pa_planner.hpp"

namespace qkdpp::engine {

/// Bits the verification tag reveals (<= its length), charged to the ledger.
constexpr std::uint64_t kVerifyTagBits = 128;

/// Decode-time floor on the QBER hint: keeps LLRs finite on ultra-clean
/// channels.
inline double qber_floor(double qber) noexcept {
  return qber < 1e-4 ? 1e-4 : qber;
}

/// Partition of a sifted string by the signal mask: signal positions are key
/// candidates, everything else is estimation material to be revealed.
struct SignalSplit {
  std::vector<std::uint32_t> signal_positions;
  std::vector<std::uint32_t> revealed_positions;  ///< non-signal (decoy/vacuum)
};

SignalSplit split_sifted(const BitVec& sifted, const BitVec& signal_mask);

/// Positions disclosed for parameter estimation: all non-signal positions
/// plus a `fraction` sample of the signal positions, sorted ascending (a
/// merge of the two ascending lists).
/// Consumes one sample_without_replacement draw from `rng` (both the offline
/// engine and Alice's session side use the identical draw).
std::vector<std::uint32_t> choose_pe_positions(const SignalSplit& split,
                                               double fraction,
                                               Xoshiro256& rng);

/// Key candidates left after estimation: signal-class sifted positions that
/// were not revealed.
BitVec remaining_key(const BitVec& sifted, const BitVec& signal_mask,
                     const std::vector<std::uint32_t>& revealed);

/// Expand a 64-bit protocol seed and apply the Toeplitz hash (both peers
/// derive identical seed bits from the PaParams message).
BitVec apply_toeplitz(std::uint64_t seed, const BitVec& key,
                      std::size_t out_len);

/// Reconciliation efficiency f = leak / (n * h2(qber)), with the decode
/// floor applied to the QBER.
double reconciliation_efficiency(std::uint64_t leaked_bits,
                                 std::size_t reconciled_bits,
                                 double qber) noexcept;

}  // namespace qkdpp::engine
