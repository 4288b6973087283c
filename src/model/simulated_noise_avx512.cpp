// AVX-512F+DQ noise kernel: the median jitter factors of eight steps per
// vector. Compiled with -mavx512f -mavx512dq -ffp-contract=off (see
// CMakeLists.txt); only ever *called* when CPUID reports both.
//
// Each lane runs the reference formula (jitter_factor in
// simulated_noise.cpp) with the same operations in the same order:
// wrapping 64-bit arithmetic for the hash chain and the draws' hashes
// (vpmullq is AVX-512DQ), an exact conversion of a 53-bit integer, one
// rounded multiply or add per source operator, and the same min/max
// network. So every factor has the reference's bits. Contraction must stay
// off: fused into an FMA, a draw's multiply and add round once instead of
// twice, and some factors move in the last bit.
//
// A group of fewer than eight steps is masked: its loads read, and its
// store writes, only the lanes below n.
#include <immintrin.h>

#include "model/simulated_noise.hpp"
#include "support/statistics.hpp"

namespace lamb::model {

namespace {

/// Every lane. The zero-masked forms of the shift, min and max intrinsics
/// are used with it because GCC 12's unmasked forms merge into an undefined
/// register, which -Wmaybe-uninitialized reports at every call.
constexpr __mmask8 kAllLanes = 0xFF;

template <unsigned kShift>
__m512i shift_right(__m512i x) {
  return _mm512_maskz_srli_epi64(kAllLanes, x, kShift);
}

template <unsigned kShift>
__m512i shift_left(__m512i x) {
  return _mm512_maskz_slli_epi64(kAllLanes, x, kShift);
}

__m512i broadcast(std::uint64_t v) {
  return _mm512_set1_epi64(static_cast<long long>(v));
}

/// support::mix64, lane-wise.
__m512i mix64(__m512i x) {
  x = _mm512_mullo_epi64(_mm512_xor_si512(x, shift_right<30>(x)),
                         broadcast(0xbf58476d1ce4e5b9ULL));
  x = _mm512_mullo_epi64(_mm512_xor_si512(x, shift_right<27>(x)),
                         broadcast(0x94d049bb133111ebULL));
  return _mm512_xor_si512(x, shift_right<31>(x));
}

/// support::hash_seed_term, lane-wise.
__m512i hash_seed_term(__m512i seed) {
  return _mm512_add_epi64(
      _mm512_add_epi64(broadcast(0x9e3779b97f4a7c15ULL), shift_left<6>(seed)),
      shift_right<2>(seed));
}

/// support::hash_combine_mixed, lane-wise.
__m512i hash_combine_mixed(__m512i seed, __m512i seed_term,
                           __m512i mixed_value) {
  return mix64(
      _mm512_xor_si512(seed, _mm512_add_epi64(mixed_value, seed_term)));
}

/// The factors of lanes [j, j + 8) of `batch`, masked to `lanes`.
void noise_group(const NoiseBatch& batch, std::size_t j, __mmask8 lanes,
                 double jitter, double* factors) {
  __m512i stream = _mm512_maskz_loadu_epi64(lanes, &batch.context[j]);
  for (const auto& link : batch.links) {
    const __m512i value = _mm512_maskz_loadu_epi64(lanes, &link[j]);
    stream = hash_combine_mixed(stream, hash_seed_term(stream), mix64(value));
  }

  const __m512i seed_term = hash_seed_term(stream);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d amplitude = _mm512_set1_pd(jitter);
  __m512d draws[kSimulatedRepetitions];
#pragma GCC unroll 10
  for (std::size_t r = 0; r < kMixedRepetitions.size(); ++r) {
    const __m512i h =
        hash_combine_mixed(stream, seed_term, broadcast(kMixedRepetitions[r]));
    // u = double(h >> 11) * 2^-53 * 2.0 - 1.0, a uniform in [-1, 1).
    const __m512d u = _mm512_sub_pd(
        _mm512_mul_pd(_mm512_mul_pd(_mm512_cvtepu64_pd(shift_right<11>(h)),
                                    _mm512_set1_pd(0x1.0p-53)),
                      _mm512_set1_pd(2.0)),
        one);
    // 1.0 + jitter * (0.25 * u + 0.75 * |u|)
    draws[r] = _mm512_add_pd(
        one,
        _mm512_mul_pd(
            amplitude,
            _mm512_add_pd(
                _mm512_mul_pd(_mm512_set1_pd(0.25), u),
                _mm512_mul_pd(_mm512_set1_pd(0.75), _mm512_abs_pd(u)))));
  }
  support::sort_ten_network([&draws](std::size_t a, std::size_t b) {
    const __m512d lo = draws[a];
    const __m512d hi = draws[b];
    draws[a] = _mm512_maskz_min_pd(kAllLanes, lo, hi);
    draws[b] = _mm512_maskz_max_pd(kAllLanes, lo, hi);
  });
  const __m512d median = _mm512_mul_pd(
      _mm512_set1_pd(0.5), _mm512_add_pd(draws[4], draws[5]));
  _mm512_mask_storeu_pd(factors + j, lanes, median);
}

void avx512_noise(const NoiseBatch& batch, std::size_t n, double jitter,
                  double* factors) {
  for (std::size_t j = 0; j < n; j += 8) {
    const std::size_t rest = n - j;
    const __mmask8 lanes =
        rest >= 8 ? kAllLanes : static_cast<__mmask8>((1u << rest) - 1u);
    noise_group(batch, j, lanes, jitter, factors);
  }
}

constexpr NoiseKernel kAvx512{"avx512", avx512_noise};

}  // namespace

const NoiseKernel& detail_avx512_noise_kernel() { return kAvx512; }

}  // namespace lamb::model
