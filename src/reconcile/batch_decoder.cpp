#include "reconcile/batch_decoder.hpp"

#include <algorithm>
#include <cstring>

#include "common/arena.hpp"
#include "common/bit_transpose.hpp"
#include "common/error.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QKDPP_X86_AVX2 1
#include <immintrin.h>
#endif

namespace qkdpp::reconcile {

std::int8_t quantize_llr(float llr) noexcept {
  float scaled = llr * static_cast<float>(kLlrQuantScale);
  scaled = scaled < -127.0f ? -127.0f : (scaled > 127.0f ? 127.0f : scaled);
  const float rounded = scaled >= 0.0f ? scaled + 0.5f : scaled - 0.5f;
  return static_cast<std::int8_t>(static_cast<int>(rounded));
}

namespace {

/// Normalization alpha = 26/32 = 0.8125, the nearest 5-bit fixed point to
/// the float decoder's 0.8. One multiply + shift per message.
constexpr int kAlphaNumerator = 26;
constexpr int kAlphaShift = 5;

/// Fallback scratch when no arena is supplied: sized by the largest batch
/// decoded on this thread, reused across calls.
struct BatchScratchVectors {
  std::vector<std::int16_t> posterior;
  std::vector<std::int8_t> r;
  std::vector<std::uint64_t> hard;
  std::vector<std::uint64_t> syn;
  std::vector<std::uint16_t> vars;
};

BatchScratchVectors& tls_batch_scratch() {
  thread_local BatchScratchVectors scratch;
  return scratch;
}

struct BatchBuffers {
  std::int16_t* posterior = nullptr;  // n * L, lane-major
  std::int8_t* r = nullptr;           // edges * L, lane-major check -> var
  std::uint64_t* hard = nullptr;      // n lane-packed hard decisions
  std::uint64_t* syn = nullptr;       // m lane-packed syndromes
  std::uint16_t* vars = nullptr;      // edges, compressed check-major H
};

BatchBuffers acquire_batch_buffers(const DecoderConfig& config, std::size_t n,
                                   std::size_t m, std::size_t edges,
                                   std::size_t lanes) {
  BatchBuffers buf;
  if (config.arena != nullptr) {
    BlockArena& arena = *config.arena;
    buf.posterior = reinterpret_cast<std::int16_t*>(
        arena.bytes(n * lanes * sizeof(std::int16_t)));
    buf.r = reinterpret_cast<std::int8_t*>(arena.bytes(edges * lanes));
    buf.hard = arena.words(n);
    buf.syn = arena.words(m);
    buf.vars = reinterpret_cast<std::uint16_t*>(
        arena.bytes(edges * sizeof(std::uint16_t)));
    return buf;
  }
  BatchScratchVectors& scratch = tls_batch_scratch();
  scratch.posterior.resize(n * lanes);
  scratch.r.resize(edges * lanes);
  scratch.hard.resize(n);
  scratch.syn.resize(m);
  scratch.vars.resize(edges);
  buf.posterior = scratch.posterior.data();
  buf.r = scratch.r.data();
  buf.hard = scratch.hard.data();
  buf.syn = scratch.syn.data();
  buf.vars = scratch.vars.data();
  return buf;
}

/// One decoder iteration's arithmetic over every lane: the layered
/// min-sum sweep over all checks, then the lane-packed hard decisions into
/// buf.hard. The portable and AVX2 kernels below compute the same integers
/// lane for lane; everything else (priors, syndrome folds, convergence,
/// snapshots) is the shared driver's.
using IterateFn = void (*)(const LdpcCode& code, const BatchBuffers& buf,
                           std::size_t lanes);

/// Portable kernel, L lanes wide. Plain int16 lane loops the compiler may
/// map onto whatever vectors the baseline target has.
template <int L>
void iterate_portable(const LdpcCode& code, const BatchBuffers& buf,
                      std::size_t /*lanes*/) {
  const std::size_t n = code.n();
  const std::size_t m = code.m();

  // Per-check staging, all lanes wide. Everything below is pure int16
  // lane-parallel arithmetic with branchless selects; sign parity lives
  // in bit 15 of `sgn` (XOR of the operands' sign bits) instead of a bool
  // so it stays in the same lanes as the data.
  std::int16_t qbuf[64 * L];  // clamped q for one check, all lanes
  std::int16_t abuf[64 * L];  // |q| staged for pass 2
  std::int16_t min1[L];
  std::int16_t min2[L];
  std::int16_t sgn[L];

  for (std::size_t c = 0; c < m; ++c) {
    const std::size_t deg = code.check_vars(c).size();
    const std::uint32_t base = code.check_edge_begin(c);
    const std::uint16_t* vars = buf.vars + base;
    const std::uint64_t syn_word = buf.syn[c];
    for (int l = 0; l < L; ++l) {
      min1[l] = std::int16_t{0x7FFF};
      min2[l] = std::int16_t{0x7FFF};
      sgn[l] = static_cast<std::int16_t>(((syn_word >> l) & 1u) << 15);
    }
    // Pass 1: reconstruct q = posterior - r (clamped to the int8 rails),
    // accumulate the per-lane sign parity and two smallest magnitudes.
    for (std::size_t i = 0; i < deg; ++i) {
      const std::int16_t* post = buf.posterior + std::size_t{vars[i]} * L;
      const std::int8_t* re = buf.r + (std::size_t{base} + i) * L;
      std::int16_t* qv = qbuf + i * L;
      std::int16_t* av = abuf + i * L;
      for (int l = 0; l < L; ++l) {
        std::int16_t t = static_cast<std::int16_t>(post[l] - re[l]);
        t = t < -127 ? std::int16_t{-127} : t;
        t = t > 127 ? std::int16_t{127} : t;
        qv[l] = t;
        sgn[l] =
            static_cast<std::int16_t>(sgn[l] ^ (t & std::int16_t(-0x8000)));
        const std::int16_t neg = static_cast<std::int16_t>(-t);
        const std::int16_t mag = t > neg ? t : neg;
        av[l] = mag;
        const std::int16_t lo = mag < min1[l] ? mag : min1[l];
        const std::int16_t hi = mag < min1[l] ? min1[l] : mag;
        min1[l] = lo;
        min2[l] = hi < min2[l] ? hi : min2[l];
      }
    }
    // Pass 2: emit messages (self-excluded minimum, normalized, signed
    // by total parity ^ own sign) and refresh posteriors in place. A
    // magnitude equal to min1 takes min2 whether or not it set min1 -
    // on ties min1 == min2, so the select is exact without an argmin.
    for (std::size_t i = 0; i < deg; ++i) {
      std::int16_t* post = buf.posterior + std::size_t{vars[i]} * L;
      std::int8_t* re = buf.r + (std::size_t{base} + i) * L;
      const std::int16_t* qv = qbuf + i * L;
      const std::int16_t* av = abuf + i * L;
      for (int l = 0; l < L; ++l) {
        std::int16_t mag = av[l] == min1[l] ? min2[l] : min1[l];
        mag = mag > 127 ? std::int16_t{127} : mag;  // deg-1 corner
        const std::int16_t scaled =
            static_cast<std::int16_t>((mag * kAlphaNumerator) >> kAlphaShift);
        // All-ones when the message is negative (parity ^ own sign), else
        // zero; (x ^ mask) - mask negates under the mask, branch-free.
        const std::int16_t mask = static_cast<std::int16_t>(
            static_cast<std::int16_t>(sgn[l] ^ qv[l]) >> 15);
        const std::int16_t updated =
            static_cast<std::int16_t>((scaled ^ mask) - mask);
        re[l] = static_cast<std::int8_t>(updated);
        post[l] = static_cast<std::int16_t>(qv[l] + updated);
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    const std::int16_t* post = buf.posterior + v * L;
    std::uint64_t bits = 0;
    for (int l = 0; l < L; ++l) {
      bits |= std::uint64_t{post[l] < 0} << l;
    }
    buf.hard[v] = bits;
  }
}

std::size_t portable_lanes(std::size_t batch) noexcept {
  for (const std::size_t lanes : {std::size_t{4}, std::size_t{8},
                                  std::size_t{16}, std::size_t{32}}) {
    if (batch <= lanes) return lanes;
  }
  return 64;
}

IterateFn portable_kernel(std::size_t lanes) noexcept {
  switch (lanes) {
    case 4:
      return &iterate_portable<4>;
    case 8:
      return &iterate_portable<8>;
    case 16:
      return &iterate_portable<16>;
    case 32:
      return &iterate_portable<32>;
    default:
      return &iterate_portable<64>;
  }
}

#ifdef QKDPP_X86_AVX2

// AVX2 kernel: one __m256i row holds 16 int16 lanes, so a batch is
// 16/32/48/64 lanes walked as 16-lane chunks. Each chunk of a check keeps
// min1, min2 and the sign parity in registers for both passes; only the
// clamped q values are staged (one row per edge of the check). Compiled
// with a function-level target attribute so the rest of the build stays
// portable; chosen at runtime only when the CPU reports AVX2.
#define QKDPP_TARGET_AVX2 __attribute__((target("avx2")))

constexpr std::size_t kAvx2Chunk = 16;

/// 16 int8 messages, sign-extended to int16 lanes.
QKDPP_TARGET_AVX2 inline __m256i load_messages(const std::int8_t* re) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(re)));
}

/// Narrow 16 int16 lanes back to int8. packs interleaves the two 128-bit
/// halves; permute4x64 restores lane order before the low half is stored.
/// Every message is inside [-127, 127], so the saturation never fires.
QKDPP_TARGET_AVX2 inline void store_messages(std::int8_t* re, __m256i msg) {
  const __m256i packed =
      _mm256_permute4x64_epi64(_mm256_packs_epi16(msg, msg), 0xD8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(re),
                   _mm256_castsi256_si128(packed));
}

QKDPP_TARGET_AVX2 inline __m256i load_row(const std::int16_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

QKDPP_TARGET_AVX2 void iterate_avx2(const LdpcCode& code,
                                    const BatchBuffers& buf,
                                    std::size_t lanes) {
  const std::size_t n = code.n();
  const std::size_t m = code.m();
  const std::size_t chunks = lanes / kAvx2Chunk;
  const __m256i rail = _mm256_set1_epi16(127);
  const __m256i neg_rail = _mm256_set1_epi16(-127);
  const __m256i unset = _mm256_set1_epi16(0x7FFF);
  const __m256i alpha = _mm256_set1_epi16(kAlphaNumerator);
  const __m256i lane_bit = _mm256_setr_epi16(
      0x0001, 0x0002, 0x0004, 0x0008, 0x0010, 0x0020, 0x0040, 0x0080, 0x0100,
      0x0200, 0x0400, 0x0800, 0x1000, 0x2000, 0x4000, -0x7FFF - 1);
  __m256i qrow[64];  // clamped q of one check chunk, one row per edge

  for (std::size_t c = 0; c < m; ++c) {
    const std::size_t deg = code.check_vars(c).size();
    const std::size_t base = code.check_edge_begin(c);
    const std::uint16_t* vars = buf.vars + base;
    for (std::size_t k = 0; k < chunks; ++k) {
      const std::size_t off = k * kAvx2Chunk;
      // Target parity: all-ones in lanes whose syndrome bit is set. Only
      // bit 15 of `sgn` is ever read, so XORing whole q values into it
      // tracks the same parity as the portable kernel's masked XOR.
      const __m256i syn_bits = _mm256_set1_epi16(static_cast<short>(
          static_cast<std::uint16_t>(buf.syn[c] >> off)));
      __m256i sgn =
          _mm256_cmpeq_epi16(_mm256_and_si256(syn_bits, lane_bit), lane_bit);
      __m256i min1 = unset;
      __m256i min2 = unset;
      for (std::size_t i = 0; i < deg; ++i) {
        const __m256i post =
            load_row(buf.posterior + std::size_t{vars[i]} * lanes + off);
        const __m256i msg = load_messages(buf.r + (base + i) * lanes + off);
        const __m256i q = _mm256_min_epi16(
            _mm256_max_epi16(_mm256_sub_epi16(post, msg), neg_rail), rail);
        qrow[i] = q;
        sgn = _mm256_xor_si256(sgn, q);
        const __m256i mag = _mm256_abs_epi16(q);
        min2 = _mm256_min_epi16(min2, _mm256_max_epi16(mag, min1));
        min1 = _mm256_min_epi16(min1, mag);
      }
      for (std::size_t i = 0; i < deg; ++i) {
        const __m256i q = qrow[i];
        const __m256i own_min =
            _mm256_cmpeq_epi16(_mm256_abs_epi16(q), min1);
        const __m256i mag =
            _mm256_min_epi16(_mm256_blendv_epi8(min1, min2, own_min), rail);
        const __m256i scaled =
            _mm256_srai_epi16(_mm256_mullo_epi16(mag, alpha), kAlphaShift);
        const __m256i mask = _mm256_srai_epi16(_mm256_xor_si256(sgn, q), 15);
        const __m256i updated =
            _mm256_sub_epi16(_mm256_xor_si256(scaled, mask), mask);
        store_messages(buf.r + (base + i) * lanes + off, updated);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(buf.posterior +
                                       std::size_t{vars[i]} * lanes + off),
            _mm256_add_epi16(q, updated));
      }
    }
  }
  // Hard decisions, 32 lanes per movemask: packs keeps each posterior's
  // sign (and maps 0 to 0), permute4x64 restores lane order.
  for (std::size_t v = 0; v < n; ++v) {
    const std::int16_t* post = buf.posterior + v * lanes;
    std::uint64_t bits = 0;
    for (std::size_t k = 0; k < chunks; k += 2) {
      const __m256i lo = load_row(post + k * kAvx2Chunk);
      const __m256i hi = k + 1 < chunks
                             ? load_row(post + (k + 1) * kAvx2Chunk)
                             : _mm256_setzero_si256();
      const __m256i packed =
          _mm256_permute4x64_epi64(_mm256_packs_epi16(lo, hi), 0xD8);
      bits |= std::uint64_t{static_cast<std::uint32_t>(
                  _mm256_movemask_epi8(packed))}
              << (k * kAvx2Chunk);
    }
    buf.hard[v] = bits;
  }
}

#undef QKDPP_TARGET_AVX2

bool detect_avx2() noexcept { return __builtin_cpu_supports("avx2") != 0; }

#else

bool detect_avx2() noexcept { return false; }

#endif  // QKDPP_X86_AVX2

const bool g_has_avx2 = detect_avx2();

/// The lockstep driver shared by both kernels: priors, lane-packed
/// syndromes, the iteration loop, per-frame convergence and snapshots.
void decode_lockstep(const LdpcCode& code,
                     std::span<const QuantDecodeJob> jobs,
                     const DecoderConfig& config, const BatchBuffers& buf,
                     std::size_t lanes, IterateFn iterate,
                     std::vector<DecodeResult>& results) {
  const std::size_t n = code.n();
  const std::size_t m = code.m();
  const std::size_t batch = jobs.size();

  // Priors: lane l = frame l's int8 priors; pad lanes stay all-zero, so
  // their messages, posteriors, and syndrome folds are identically zero
  // and never perturb real lanes.
  std::memset(buf.posterior, 0, n * lanes * sizeof(std::int16_t));
  for (std::size_t f = 0; f < batch; ++f) {
    const std::int8_t* prior = jobs[f].prior->data();
    std::int16_t* post = buf.posterior + f;
    for (std::size_t v = 0; v < n; ++v) post[v * lanes] = prior[v];
  }
  std::memset(buf.r, 0, code.edges() * lanes);

  const BitVec* lane_syndromes[kMaxBatchFrames];
  for (std::size_t f = 0; f < batch; ++f) lane_syndromes[f] = jobs[f].syndrome;
  pack_lanes({lane_syndromes, batch}, m, buf.syn);

  results.assign(batch, DecodeResult{});
  std::uint64_t unresolved =
      batch == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << batch) - 1;

  for (unsigned iter = 1; iter <= config.max_iterations && unresolved != 0;
       ++iter) {
    iterate(code, buf, lanes);
    // Syndrome fold over the lane-packed hard decisions: one word per
    // variable / check carries all frames, so the convergence test costs
    // O(n + edges) for the whole batch.
    std::uint64_t mismatch = 0;
    for (std::size_t c = 0; c < m; ++c) {
      const std::size_t deg = code.check_vars(c).size();
      const std::uint16_t* vars = buf.vars + code.check_edge_begin(c);
      std::uint64_t acc = buf.syn[c];
      for (std::size_t i = 0; i < deg; ++i) acc ^= buf.hard[vars[i]];
      mismatch |= acc;
    }
    const std::uint64_t newly = unresolved & ~mismatch;
    if (newly != 0) {
      // Snapshot each newly converged frame the iteration its syndrome
      // matched; later iterations of the surviving lanes cannot disturb it.
      for (std::size_t f = 0; f < batch; ++f) {
        if ((newly >> f) & 1u) {
          results[f].converged = true;
          results[f].iterations = iter;
          unpack_lane(buf.hard, n, static_cast<unsigned>(f), results[f].word);
        }
      }
      unresolved &= mismatch;
    }
  }
  // Frames that never converged ran the full iteration budget; report the
  // final hard decision like the float decoder does.
  for (std::size_t f = 0; f < batch; ++f) {
    if ((unresolved >> f) & 1u) {
      results[f].iterations = config.max_iterations;
      unpack_lane(buf.hard, n, static_cast<unsigned>(f), results[f].word);
    }
  }
}

}  // namespace

namespace detail {

bool min_sum_kernel_supported(MinSumKernel kernel) noexcept {
  return kernel == MinSumKernel::kPortable || g_has_avx2;
}

void decode_syndrome_batch_with(MinSumKernel kernel, const LdpcCode& code,
                                std::span<const QuantDecodeJob> jobs,
                                const DecoderConfig& config,
                                std::vector<DecodeResult>& results) {
  QKDPP_REQUIRE(min_sum_kernel_supported(kernel),
                "min-sum kernel not supported on this CPU");
  QKDPP_REQUIRE(!jobs.empty() && jobs.size() <= kMaxBatchFrames,
                "batch size outside [1, 64]");
  QKDPP_REQUIRE(code.n() <= 65536,
                "batch decoder stores H with 16-bit indices");
  QKDPP_REQUIRE(config.max_iterations >= 1, "need at least one iteration");
  for (const QuantDecodeJob& job : jobs) {
    QKDPP_REQUIRE(job.syndrome != nullptr && job.prior != nullptr,
                  "batch job missing syndrome or prior");
    QKDPP_REQUIRE(job.prior->size() == code.n(), "prior length mismatch");
    QKDPP_REQUIRE(job.syndrome->size() == code.m(), "syndrome length mismatch");
  }

  std::size_t lanes = 0;
  IterateFn iterate = nullptr;
#ifdef QKDPP_X86_AVX2
  if (kernel == MinSumKernel::kAvx2) {
    // Whole 16-lane rows; a one-frame batch pays for 16 lanes, which the
    // AVX2 kernel still sweeps faster than the portable one sweeps 4.
    lanes = (jobs.size() + kAvx2Chunk - 1) / kAvx2Chunk * kAvx2Chunk;
    iterate = &iterate_avx2;
  }
#endif
  if (iterate == nullptr) {
    lanes = portable_lanes(jobs.size());
    iterate = portable_kernel(lanes);
  }
  const BatchBuffers buf =
      acquire_batch_buffers(config, code.n(), code.m(), code.edges(), lanes);

  // Compressed adjacency, shared by every lane: check-major var indices
  // narrowed to 16 bits (half the index bandwidth of the CSR the float
  // decoder walks).
  std::size_t edge = 0;
  for (std::size_t c = 0; c < code.m(); ++c) {
    QKDPP_REQUIRE(code.check_vars(c).size() <= 64,
                  "check degree exceeds kernel buffer");
    for (const std::uint32_t v : code.check_vars(c)) {
      buf.vars[edge++] = static_cast<std::uint16_t>(v);
    }
  }

  decode_lockstep(code, jobs, config, buf, lanes, iterate, results);
}

}  // namespace detail

void decode_syndrome_batch(const LdpcCode& code,
                           std::span<const QuantDecodeJob> jobs,
                           const DecoderConfig& config,
                           std::vector<DecodeResult>& results) {
  detail::decode_syndrome_batch_with(g_has_avx2
                                         ? detail::MinSumKernel::kAvx2
                                         : detail::MinSumKernel::kPortable,
                                     code, jobs, config, results);
}

DecodeResult decode_syndrome_quant(const LdpcCode& code, const BitVec& syndrome,
                                   const std::vector<float>& llr,
                                   const DecoderConfig& config) {
  std::vector<std::int8_t> prior(llr.size());
  std::transform(llr.begin(), llr.end(), prior.begin(), quantize_llr);
  const QuantDecodeJob job{&syndrome, &prior};
  std::vector<DecodeResult> results;
  decode_syndrome_batch(code, {&job, 1}, config, results);
  return std::move(results.front());
}

}  // namespace qkdpp::reconcile
