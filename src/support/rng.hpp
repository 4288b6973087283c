// Deterministic random number generation.
//
// All experiment drivers take explicit seeds and draw from lamb::support::Rng
// (xoshiro256**, seeded via splitmix64). The hash utilities provide stable
// 64-bit mixing used by the simulated machine to derive per-call measurement
// jitter that is reproducible across runs and platforms.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

namespace lamb::support {

/// splitmix64 step; good single-shot mixer, used for seeding and hashing.
std::uint64_t splitmix64(std::uint64_t& state);

/// Stateless 64-bit mix of a single value (Stafford's mix13 finalizer).
/// Inline: the LRU index mixes every key's hash with it.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The half of hash_combine(seed, value) that reads only the seed. A caller
/// that combines one seed with many values computes it once, takes mix64
/// of constant values at compile time, and finishes each combination with
/// hash_combine_mixed. Unsigned addition wraps, so the order of the sum
/// changes no bit.
constexpr std::uint64_t hash_seed_term(std::uint64_t seed) {
  return 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// hash_combine(seed, value) from hash_seed_term(seed) and mix64(value).
constexpr std::uint64_t hash_combine_mixed(std::uint64_t seed,
                                           std::uint64_t seed_term,
                                           std::uint64_t mixed_value) {
  return mix64(seed ^ (mixed_value + seed_term));
}

/// Combine two 64-bit hashes order-dependently. Inline: the simulated
/// machine combines five per kernel call.
constexpr std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
  return hash_combine_mixed(seed, hash_seed_term(seed), mix64(value));
}

/// FNV-1a over a string, for hashing names into jitter streams.
std::uint64_t hash_string(std::string_view s);

/// xoshiro256** PRNG. Deterministic, fast, and fully seeded from one value.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64 random bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Fill `out` with uniform doubles in [lo, hi): the values, and the state
  /// left behind, of out.size() calls of uniform(lo, hi) in order, with the
  /// range checked once and the state kept in registers.
  void fill_uniform(std::span<double> out, double lo, double hi);

  /// Uniform integer in the inclusive range [lo, hi].
  int uniform_int(int lo, int hi);

  /// Uniform 64-bit integer in [0, n) without modulo bias.
  std::uint64_t bounded(std::uint64_t n);

  /// Split off an independent child generator (stable w.r.t. parent state).
  Rng split();

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace lamb::support
