#include "support/rng.hpp"

#include "support/check.hpp"

namespace lamb::support {

namespace {

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash_string(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) {
    s = splitmix64(sm);
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  LAMB_CHECK(lo <= hi, "uniform: empty range");
  return lo + (hi - lo) * uniform();
}

int Rng::uniform_int(int lo, int hi) {
  LAMB_CHECK(lo <= hi, "uniform_int: empty range");
  const auto span =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(hi) - lo + 1);
  return lo + static_cast<int>(bounded(span));
}

std::uint64_t Rng::bounded(std::uint64_t n) {
  LAMB_CHECK(n > 0, "bounded: n must be positive");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) {
      return r % n;
    }
  }
}

Rng Rng::split() {
  return Rng(next_u64());
}

}  // namespace lamb::support
