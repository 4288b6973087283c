#include "model/simulated_noise.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "blas/microkernel.hpp"
#include "support/statistics.hpp"

namespace lamb::model {

#ifdef LAMB_HAVE_AVX512_NOISE
const NoiseKernel& detail_avx512_noise_kernel();  // simulated_noise_avx512.cpp
#endif

namespace {

constexpr NoiseKernel kScalar{"scalar", nullptr};

std::vector<const NoiseKernel*> build_available() {
  std::vector<const NoiseKernel*> kernels;
  kernels.push_back(&kScalar);
#ifdef LAMB_HAVE_AVX512_NOISE
  // The build defines it only for x86-64 compilers with the -m flags.
  if (__builtin_cpu_supports("avx512f") != 0 &&
      __builtin_cpu_supports("avx512dq") != 0) {
    kernels.push_back(&detail_avx512_noise_kernel());
  }
#endif
  return kernels;
}

std::atomic<const NoiseKernel*> g_active{nullptr};

/// The vector tier rides with the AVX-512 microkernel: LAMB_KERNEL=scalar
/// or avx2 times with the reference formula. An unknown or unavailable
/// choice falls back to auto, as the microkernel's does (which warns).
const NoiseKernel* resolve_from_env() {
  const char* env = std::getenv("LAMB_KERNEL");
  const blas::Microkernel* mk =
      blas::select_microkernel(env != nullptr ? env : "auto");
  if (mk == nullptr) {
    mk = blas::select_microkernel("auto");
  }
  return std::string_view(mk->name) == "avx512"
             ? available_noise_kernels().back()
             : &kScalar;
}

}  // namespace

double jitter_factor(std::uint64_t stream, double jitter) {
  if (jitter <= 0.0) {
    return 1.0;
  }
  // Draw r hashes hash_combine(stream, r), with the stream's half computed
  // once. Unrolled, the draws and the median stay in registers.
  const std::uint64_t seed_term = support::hash_seed_term(stream);
  std::array<double, kSimulatedRepetitions> draws;
#pragma GCC unroll 10
  for (std::size_t r = 0; r < draws.size(); ++r) {
    const std::uint64_t h =
        support::hash_combine_mixed(stream, seed_term, kMixedRepetitions[r]);
    // Map the hash to a uniform in [-1, 1).
    const double u =
        static_cast<double>(h >> 11) * 0x1.0p-53 * 2.0 - 1.0;
    // Timing noise is one-sided-ish in practice: runs can only be delayed.
    // Use |u| with a small symmetric part so medians stay near 1. Every
    // draw is at least 1 and never NaN, as support::median_of_ten needs.
    draws[r] = 1.0 + jitter * (0.25 * u + 0.75 * std::abs(u));
  }
  return support::median_of_ten(draws);
}

const NoiseKernel& scalar_noise_kernel() { return kScalar; }

const std::vector<const NoiseKernel*>& available_noise_kernels() {
  static const std::vector<const NoiseKernel*> kernels = build_available();
  return kernels;
}

const NoiseKernel& active_noise_kernel() {
  const NoiseKernel* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = resolve_from_env();
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

void force_noise_kernel(const NoiseKernel* kernel) {
  g_active.store(kernel, std::memory_order_release);
}

}  // namespace lamb::model
