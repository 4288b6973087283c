#include "blas/microkernel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "blas/microkernel_tiers.hpp"
#include "blas/packing.hpp"
#include "support/check.hpp"

namespace lamb::blas {

using la::index_t;

namespace {

void scalar_kernel(index_t kc, double alpha, const double* a_panel,
                   const double* b_panel, double beta, double* c,
                   index_t ldc) {
  // Accumulate the full MR x NR tile in registers; the panels are
  // zero-padded so the k-loop needs no edge handling.
  double acc[kNR][kMR] = {};
  for (index_t p = 0; p < kc; ++p) {
    const double* a = a_panel + p * kMR;
    const double* b = b_panel + p * kNR;
    for (index_t j = 0; j < kNR; ++j) {
      const double bj = b[j];
      for (index_t i = 0; i < kMR; ++i) {
        acc[j][i] += a[i] * bj;
      }
    }
  }
  for (index_t j = 0; j < kNR; ++j) {
    double* cj = c + j * ldc;
    if (beta == 0.0) {
      for (index_t i = 0; i < kMR; ++i) {
        cj[i] = alpha * acc[j][i];
      }
    } else if (beta == 1.0) {
      for (index_t i = 0; i < kMR; ++i) {
        cj[i] += alpha * acc[j][i];
      }
    } else {
      for (index_t i = 0; i < kMR; ++i) {
        cj[i] = beta * cj[i] + alpha * acc[j][i];
      }
    }
  }
}

constexpr Microkernel kScalar{"scalar", kMR, kNR, scalar_kernel};

// __builtin_cpu_supports demands a literal argument, hence one helper per
// feature set instead of a string-parameter helper.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
bool cpu_has_avx2_fma() {
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("fma") != 0;
}
bool cpu_has_avx512f() { return __builtin_cpu_supports("avx512f") != 0; }
#else
bool cpu_has_avx2_fma() { return false; }
bool cpu_has_avx512f() { return false; }
#endif

std::vector<const Microkernel*> build_available() {
  std::vector<const Microkernel*> kernels;
  kernels.push_back(&kScalar);
#ifdef LAMB_HAVE_AVX2_KERNEL
  if (cpu_has_avx2_fma()) {
    kernels.push_back(&detail_avx2_microkernel());
  }
#endif
#ifdef LAMB_HAVE_AVX512_KERNEL
  if (cpu_has_avx512f()) {
    kernels.push_back(&detail_avx512_microkernel());
  }
#endif
  return kernels;
}

std::atomic<const Microkernel*> g_active{nullptr};

const Microkernel* resolve_from_env() {
  const char* env = std::getenv("LAMB_KERNEL");
  const std::string_view choice = (env != nullptr) ? env : "auto";
  if (const Microkernel* k = select_microkernel(choice)) {
    return k;
  }
  std::fprintf(stderr,
               "lamb: LAMB_KERNEL=%s is unknown or unsupported on this CPU; "
               "using auto dispatch\n",
               env);
  return select_microkernel("auto");
}

}  // namespace

const Microkernel& scalar_microkernel() { return kScalar; }

const std::vector<const Microkernel*>& available_microkernels() {
  static const std::vector<const Microkernel*> kernels = build_available();
  return kernels;
}

const Microkernel* select_microkernel(std::string_view choice) {
  const auto& kernels = available_microkernels();
  if (choice.empty() || choice == "auto") {
    return kernels.back();
  }
  for (const Microkernel* k : kernels) {
    if (choice == k->name) {
      return k;
    }
  }
  return nullptr;
}

const Microkernel& active_microkernel() {
  const Microkernel* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = resolve_from_env();
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

void force_microkernel(const Microkernel* kernel) {
  g_active.store(kernel, std::memory_order_release);
}

void microkernel_fringe(const Microkernel& mk, index_t kc, double alpha,
                        const double* a_panel, const double* b_panel,
                        double beta, double* c, index_t ldc, index_t rows,
                        index_t cols, index_t diag) {
  LAMB_CHECK(mk.mr <= kMaxMR && mk.nr <= kMaxNR,
             "microkernel geometry exceeds the fringe tile buffer");
  // Full tile into a local buffer (beta = 0: the buffer is never read),
  // then fold the stored part into C with the caller's beta.
  double tile[kMaxMR * kMaxNR];
  mk.fn(kc, alpha, a_panel, b_panel, 0.0, tile, mk.mr);
  for (index_t j = 0; j < cols; ++j) {
    const double* tj = tile + j * mk.mr;
    double* cj = c + j * ldc;
    const index_t first = std::max(index_t{0}, j + diag);
    // beta == 0 must not read C; beta == 1 needs no branch of its own,
    // since 1.0 * c is exact.
    if (beta == 0.0) {
      for (index_t i = first; i < rows; ++i) {
        cj[i] = tj[i];
      }
    } else {
      for (index_t i = first; i < rows; ++i) {
        cj[i] = beta * cj[i] + tj[i];
      }
    }
  }
}

}  // namespace lamb::blas
