// Measurement noise of the simulated machine, for many steps at once.
//
// A timed step's noise factor is the median of kSimulatedRepetitions draws
// from its measurement stream, a hash chain over the timing context and the
// step (see SimulatedMachine). Every step's factor depends on that step
// only, so a vector tier can draw the factors of many steps side by side:
// SimulatedMachine::time_set_into() hands it the steps of a whole bound set
// up to kNoiseBatch at a time.
//
// Tiers (resolved once at first use):
//   scalar  the reference formula (jitter_factor), applied to each step as
//           SimulatedMachine times it; always available
//   avx512  eight steps per vector: the hash chain, the ten draws and the
//           median network lane-wise, with the reference's IEEE operations
//           in the reference's order, so every factor has the same bits
//           (AVX-512F+DQ; compiled on x86-64). The hash chains of all the
//           batch's groups of eight run side by side, link by link, so their
//           multiply latencies overlap; then each group is drawn and sorted.
//
// The tier follows LAMB_KERNEL: "scalar" and "avx2" select scalar noise;
// "avx512" and "auto" select the vector tier where the CPU has AVX-512DQ.
// Tests can pin the tier with force_noise_kernel().
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace lamb::model {

/// Simulated repetitions per timed call; the jitter is their median (the
/// paper's protocol, Sec. 3.4, at MeasuredMachine's default count).
inline constexpr int kSimulatedRepetitions = 10;

/// Steps a noise kernel takes in one call.
inline constexpr std::size_t kNoiseBatch = 64;

/// Links of a timed step's hash chain: the call's kind, m, n and k, then
/// the step's index.
inline constexpr std::size_t kNoiseLinks = 5;

/// mix64 of each repetition index: the value half of the draws' hashes.
inline constexpr auto kMixedRepetitions = [] {
  std::array<std::uint64_t, kSimulatedRepetitions> mixed{};
  for (std::size_t r = 0; r < mixed.size(); ++r) {
    mixed[r] = support::mix64(r);
  }
  return mixed;
}();

/// The measurement streams of up to kNoiseBatch steps, step j in lane j of
/// every array: hash_combine(context, links[0]), combined in turn with
/// links[1] to links[kNoiseLinks - 1].
struct NoiseBatch {
  alignas(64) std::array<std::uint64_t, kNoiseBatch> context;
  alignas(64) std::array<std::array<std::uint64_t, kNoiseBatch>, kNoiseLinks>
      links;
};

/// The reference formula: the median multiplicative jitter, at relative
/// amplitude `jitter`, over the kSimulatedRepetitions draws of `stream`;
/// 1 when jitter <= 0.
double jitter_factor(std::uint64_t stream, double jitter);

/// Writes factors[j] = jitter_factor(stream of lane j, jitter) for the
/// first n <= kNoiseBatch lanes of `batch`, with jitter > 0. Reads and
/// writes no lane at or past n.
using noise_fn = void (*)(const NoiseBatch& batch, std::size_t n,
                          double jitter, double* factors);

struct NoiseKernel {
  const char* name;  ///< tier name ("scalar", "avx512")
  /// The batch kernel of a vector tier; nullptr for the scalar tier, whose
  /// factors SimulatedMachine draws one step at a time (batching the
  /// scalar formula gains nothing).
  noise_fn fn;
};

/// The reference tier; always available.
const NoiseKernel& scalar_noise_kernel();

/// Noise kernels compiled into this build AND supported by this CPU,
/// scalar first. Never empty.
const std::vector<const NoiseKernel*>& available_noise_kernels();

/// The kernel SimulatedMachine times with. Resolved once from LAMB_KERNEL
/// and CPUID on first use and cached; thread-safe.
const NoiseKernel& active_noise_kernel();

/// Test hook: pin the active noise kernel (nullptr resolves it again from
/// the environment at the next use). Not intended for concurrent use with
/// timings in flight.
void force_noise_kernel(const NoiseKernel* kernel);

}  // namespace lamb::model
