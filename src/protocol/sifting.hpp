// Basis sifting: turning detection reports into aligned raw keys.
//
// Bob announces which gates clicked and his measurement bases; Alice keeps
// the detections measured in her preparation basis and tells Bob which ones
// those were. Bits from non-signal (decoy/vacuum) pulses are flagged - they
// are estimation material, never key material.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitvec.hpp"
#include "protocol/messages.hpp"

namespace qkdpp::protocol {

/// Alice's transmit-side log (what a real transmitter retains per pulse).
struct AliceTransmitLog {
  BitVec bits;
  BitVec bases;
  std::vector<std::uint8_t> pulse_class;  ///< sim::PulseClass values
};

/// Alice-side sifting outcome.
struct AliceSiftOutcome {
  SiftResult result;  ///< message for Bob
  BitVec sifted_key;  ///< Alice's bits at kept detections (key + estimation)
};

/// Run Alice's half of sifting against Bob's detection report.
/// Throws Error{kProtocol} if the report references pulses out of range or
/// its shape is inconsistent; detections are checked in order, so the first
/// bad one names the error.
///
/// One pass over the detections, no per-bit appends: the basis match is a
/// 0/1 word (no data-dependent branch), the keep mask is built a word per
/// 64 detections, and the kept key and signal bits gather in registers
/// that flush a word at a time into pre-sized vectors.
AliceSiftOutcome sift_alice(const AliceTransmitLog& log,
                            const DetectionReport& report);

/// Bob's half: select his detection bits through Alice's keep mask.
/// Throws Error{kProtocol} on shape mismatch.
BitVec sift_bob(const BitVec& bob_bits, const SiftResult& result);

}  // namespace qkdpp::protocol
