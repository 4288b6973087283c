// AVX2+FMA 8x6 microkernel. Compiled with -mavx2 -mfma (see CMakeLists.txt);
// only ever *called* when CPUID reports both features, so the dispatcher can
// safely link it on any x86-64 build host.
//
// Geometry: MR = 8 rows (two ymm vectors along the contiguous column-major C
// columns), NR = 6 columns. That gives 12 ymm accumulators + 2 A vectors +
// 1 B broadcast = 15 of the 16 architectural registers — the classic FMA
// register tiling: 12 independent chains keep both FMA ports busy across the
// ~4-cycle FMA latency.
#include <immintrin.h>

#include "blas/microkernel_tiers.hpp"

namespace lamb::blas {

namespace {

constexpr la::index_t kAvx2MR = 8;
constexpr la::index_t kAvx2NR = 6;

void avx2_kernel(la::index_t kc, double alpha, const double* a_panel,
                 const double* b_panel, double beta, double* c,
                 la::index_t ldc) {
  // Register-resident accumulators need the zeroing and store loops
  // unrolled by pragma, as in the avx512 kernel.
  __m256d acc_lo[kAvx2NR];
  __m256d acc_hi[kAvx2NR];
  #pragma GCC unroll 6
  for (int j = 0; j < kAvx2NR; ++j) {
    acc_lo[j] = _mm256_setzero_pd();
    acc_hi[j] = _mm256_setzero_pd();
  }

  const double* a = a_panel;
  const double* b = b_panel;
  la::index_t p = 0;
  // Unrolled-by-2 k-loop: amortises the pointer bumps; the accumulator
  // chains are unchanged (one FMA per accumulator per k step).
  for (; p + 1 < kc; p += 2) {
    __m256d a0 = _mm256_loadu_pd(a);
    __m256d a1 = _mm256_loadu_pd(a + 4);
    for (int j = 0; j < kAvx2NR; ++j) {
      const __m256d bj = _mm256_broadcast_sd(b + j);
      acc_lo[j] = _mm256_fmadd_pd(a0, bj, acc_lo[j]);
      acc_hi[j] = _mm256_fmadd_pd(a1, bj, acc_hi[j]);
    }
    a0 = _mm256_loadu_pd(a + kAvx2MR);
    a1 = _mm256_loadu_pd(a + kAvx2MR + 4);
    for (int j = 0; j < kAvx2NR; ++j) {
      const __m256d bj = _mm256_broadcast_sd(b + kAvx2NR + j);
      acc_lo[j] = _mm256_fmadd_pd(a0, bj, acc_lo[j]);
      acc_hi[j] = _mm256_fmadd_pd(a1, bj, acc_hi[j]);
    }
    a += 2 * kAvx2MR;
    b += 2 * kAvx2NR;
  }
  for (; p < kc; ++p) {
    const __m256d a0 = _mm256_loadu_pd(a);
    const __m256d a1 = _mm256_loadu_pd(a + 4);
    for (int j = 0; j < kAvx2NR; ++j) {
      const __m256d bj = _mm256_broadcast_sd(b + j);
      acc_lo[j] = _mm256_fmadd_pd(a0, bj, acc_lo[j]);
      acc_hi[j] = _mm256_fmadd_pd(a1, bj, acc_hi[j]);
    }
    a += kAvx2MR;
    b += kAvx2NR;
  }

  const __m256d valpha = _mm256_set1_pd(alpha);
  if (beta == 0.0) {
    #pragma GCC unroll 6
    for (int j = 0; j < kAvx2NR; ++j) {
      double* cj = c + j * ldc;
      _mm256_storeu_pd(cj, _mm256_mul_pd(valpha, acc_lo[j]));
      _mm256_storeu_pd(cj + 4, _mm256_mul_pd(valpha, acc_hi[j]));
    }
  } else if (beta == 1.0) {
    #pragma GCC unroll 6
    for (int j = 0; j < kAvx2NR; ++j) {
      double* cj = c + j * ldc;
      _mm256_storeu_pd(
          cj, _mm256_fmadd_pd(valpha, acc_lo[j], _mm256_loadu_pd(cj)));
      _mm256_storeu_pd(
          cj + 4, _mm256_fmadd_pd(valpha, acc_hi[j], _mm256_loadu_pd(cj + 4)));
    }
  } else {
    const __m256d vbeta = _mm256_set1_pd(beta);
    #pragma GCC unroll 6
    for (int j = 0; j < kAvx2NR; ++j) {
      double* cj = c + j * ldc;
      _mm256_storeu_pd(cj,
                       _mm256_fmadd_pd(vbeta, _mm256_loadu_pd(cj),
                                       _mm256_mul_pd(valpha, acc_lo[j])));
      _mm256_storeu_pd(cj + 4,
                       _mm256_fmadd_pd(vbeta, _mm256_loadu_pd(cj + 4),
                                       _mm256_mul_pd(valpha, acc_hi[j])));
    }
  }
}

constexpr Microkernel kAvx2{"avx2", kAvx2MR, kAvx2NR, avx2_kernel};

}  // namespace

const Microkernel& detail_avx2_microkernel() { return kAvx2; }

}  // namespace lamb::blas
