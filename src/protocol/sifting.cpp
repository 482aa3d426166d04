#include "protocol/sifting.hpp"

#include "common/error.hpp"

namespace qkdpp::protocol {

AliceSiftOutcome sift_alice(const AliceTransmitLog& log,
                            const DetectionReport& report) {
  const std::size_t n_pulses = log.bits.size();
  if (log.bases.size() != n_pulses || log.pulse_class.size() != n_pulses) {
    throw_error(ErrorCode::kProtocol, "inconsistent transmit log");
  }
  if (report.bob_bases.size() != report.detected_idx.size()) {
    throw_error(ErrorCode::kProtocol,
                "detection report bases/indices shape mismatch");
  }

  const std::size_t n_det = report.detected_idx.size();
  const std::uint32_t* idx = report.detected_idx.data();
  const std::uint64_t* alice_bits = log.bits.words().data();
  const std::uint64_t* alice_bases = log.bases.words().data();
  const std::uint64_t* bob_bases = report.bob_bases.words().data();
  const std::uint8_t* pulse_class = log.pulse_class.data();

  // Every output is at most one bit per detection: size all three up front
  // and write whole words, then trim the two kept-bit vectors.
  AliceSiftOutcome out;
  out.result.block_id = report.block_id;
  out.result.keep_mask = BitVec(n_det);
  out.sifted_key = BitVec(n_det);
  out.result.signal_mask = BitVec(n_det);
  std::uint64_t* keep_words = out.result.keep_mask.mutable_words().data();
  std::uint64_t* key_words = out.sifted_key.mutable_words().data();
  std::uint64_t* signal_words = out.result.signal_mask.mutable_words().data();

  // Kept bits gather in registers and flush one word at a time; `fill` is
  // the kept-bit count of the word being built.
  std::uint64_t key_acc = 0;
  std::uint64_t signal_acc = 0;
  unsigned fill = 0;
  std::size_t kept_words = 0;
  std::uint32_t previous = 0;
  for (std::size_t base = 0; base < n_det; base += 64) {
    const std::size_t lim = n_det - base < 64 ? n_det - base : 64;
    const std::uint64_t bob_word = bob_bases[base >> 6];
    std::uint64_t keep = 0;
    for (std::size_t j = 0; j < lim; ++j) {
      const std::uint32_t pulse = idx[base + j];
      if (pulse >= n_pulses || (base + j != 0 && pulse <= previous))
          [[unlikely]] {
        throw_error(ErrorCode::kProtocol,
                    pulse >= n_pulses ? "detection index out of range"
                                      : "detection indices not increasing");
      }
      previous = pulse;
      // 1 when Alice's preparation basis equals Bob's measurement basis.
      const std::uint64_t match =
          ~((alice_bases[pulse >> 6] >> (pulse & 63)) ^ (bob_word >> j)) & 1u;
      const std::uint64_t bit = (alice_bits[pulse >> 6] >> (pulse & 63)) & 1u;
      const std::uint64_t signal = pulse_class[pulse] == 0 ? 1u : 0u;
      keep |= match << j;
      key_acc |= (bit & match) << fill;
      signal_acc |= (signal & match) << fill;
      fill += static_cast<unsigned>(match);
      if (fill == 64) {
        key_words[kept_words] = key_acc;
        signal_words[kept_words] = signal_acc;
        ++kept_words;
        key_acc = 0;
        signal_acc = 0;
        fill = 0;
      }
    }
    keep_words[base >> 6] = keep;
  }
  if (fill != 0) {
    key_words[kept_words] = key_acc;
    signal_words[kept_words] = signal_acc;
  }
  const std::size_t kept = kept_words * 64 + fill;
  out.sifted_key.resize(kept);
  out.result.signal_mask.resize(kept);
  return out;
}

BitVec sift_bob(const BitVec& bob_bits, const SiftResult& result) {
  if (bob_bits.size() != result.keep_mask.size()) {
    throw_error(ErrorCode::kProtocol, "keep mask does not match detections");
  }
  BitVec sifted = bob_bits.select(result.keep_mask);
  if (sifted.size() != result.signal_mask.size()) {
    throw_error(ErrorCode::kProtocol, "signal mask does not match kept bits");
  }
  return sifted;
}

}  // namespace qkdpp::protocol
