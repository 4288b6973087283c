#include "support/rng.hpp"

#include "support/check.hpp"

namespace lamb::support {

namespace {

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256** step of `s`.
inline std::uint64_t xoshiro_next(std::array<std::uint64_t, 4>& s) {
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

/// 53 high bits -> double in [0, 1).
inline double unit_double(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
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
  return xoshiro_next(state_);
}

double Rng::uniform() {
  return unit_double(next_u64());
}

double Rng::uniform(double lo, double hi) {
  LAMB_CHECK(lo <= hi, "uniform: empty range");
  return lo + (hi - lo) * uniform();
}

void Rng::fill_uniform(std::span<double> out, double lo, double hi) {
  LAMB_CHECK(lo <= hi, "uniform: empty range");
  std::array<std::uint64_t, 4> s = state_;
  for (double& x : out) {
    x = lo + (hi - lo) * unit_double(xoshiro_next(s));
  }
  state_ = s;
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
