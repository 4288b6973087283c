// AVX-512F 16x8 microkernel. Compiled with -mavx512f (see CMakeLists.txt);
// only ever *called* when CPUID reports AVX-512F.
//
// Geometry: MR = 16 rows (two zmm vectors along the contiguous column-major
// C columns), NR = 8 columns: 16 zmm accumulators + 2 A vectors + 1 B
// broadcast out of 32 architectural registers, with 16 independent FMA
// chains covering the FMA latency on both ports.
#include <immintrin.h>

#include "blas/microkernel_tiers.hpp"

namespace lamb::blas {

namespace {

constexpr la::index_t kAvx512MR = 16;
constexpr la::index_t kAvx512NR = 8;

void avx512_kernel(la::index_t kc, double alpha, const double* a_panel,
                   const double* b_panel, double beta, double* c,
                   la::index_t ldc) {
  // The accumulators stay in zmm registers only while every loop over them
  // is unrolled: GCC 12 unrolls the FMA loop unasked, but without the pragma
  // it zeroes the arrays with rep stos and spills them around the store.
  __m512d acc_lo[kAvx512NR];
  __m512d acc_hi[kAvx512NR];
  #pragma GCC unroll 8
  for (int j = 0; j < kAvx512NR; ++j) {
    acc_lo[j] = _mm512_setzero_pd();
    acc_hi[j] = _mm512_setzero_pd();
  }

  const double* a = a_panel;
  const double* b = b_panel;
  for (la::index_t p = 0; p < kc; ++p) {
    const __m512d a0 = _mm512_loadu_pd(a);
    const __m512d a1 = _mm512_loadu_pd(a + 8);
    for (int j = 0; j < kAvx512NR; ++j) {
      const __m512d bj = _mm512_set1_pd(b[j]);
      acc_lo[j] = _mm512_fmadd_pd(a0, bj, acc_lo[j]);
      acc_hi[j] = _mm512_fmadd_pd(a1, bj, acc_hi[j]);
    }
    a += kAvx512MR;
    b += kAvx512NR;
  }

  const __m512d valpha = _mm512_set1_pd(alpha);
  if (beta == 0.0) {
    #pragma GCC unroll 8
    for (int j = 0; j < kAvx512NR; ++j) {
      double* cj = c + j * ldc;
      _mm512_storeu_pd(cj, _mm512_mul_pd(valpha, acc_lo[j]));
      _mm512_storeu_pd(cj + 8, _mm512_mul_pd(valpha, acc_hi[j]));
    }
  } else if (beta == 1.0) {
    #pragma GCC unroll 8
    for (int j = 0; j < kAvx512NR; ++j) {
      double* cj = c + j * ldc;
      _mm512_storeu_pd(
          cj, _mm512_fmadd_pd(valpha, acc_lo[j], _mm512_loadu_pd(cj)));
      _mm512_storeu_pd(
          cj + 8, _mm512_fmadd_pd(valpha, acc_hi[j], _mm512_loadu_pd(cj + 8)));
    }
  } else {
    const __m512d vbeta = _mm512_set1_pd(beta);
    #pragma GCC unroll 8
    for (int j = 0; j < kAvx512NR; ++j) {
      double* cj = c + j * ldc;
      _mm512_storeu_pd(cj,
                       _mm512_fmadd_pd(vbeta, _mm512_loadu_pd(cj),
                                       _mm512_mul_pd(valpha, acc_lo[j])));
      _mm512_storeu_pd(cj + 8,
                       _mm512_fmadd_pd(vbeta, _mm512_loadu_pd(cj + 8),
                                       _mm512_mul_pd(valpha, acc_hi[j])));
    }
  }
}

constexpr Microkernel kAvx512{"avx512", kAvx512MR, kAvx512NR, avx512_kernel};

}  // namespace

const Microkernel& detail_avx512_microkernel() { return kAvx512; }

}  // namespace lamb::blas
