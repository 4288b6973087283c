// FNV-1a 64-bit hashing, and a word-wise hash for short keys.
//
// FNV-1a is used wherever a stable, seedable, endian-independent byte hash
// is needed: store/ file checksums and AtlasStore file names. The
// word-wise hash_name_ints keys the serving layer's LRU shards and slice
// maps. Neither is cryptographic — integrity checks here guard against
// truncation and bit rot, not adversaries.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

#include "support/rng.hpp"

namespace lamb::support {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline std::uint64_t fnv1a64(const void* data, std::size_t n,
                             std::uint64_t seed = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t fnv1a64(std::string_view s,
                             std::uint64_t seed = kFnvOffset) {
  return fnv1a64(s.data(), s.size(), seed);
}

/// Hash of a fixed run of 64-bit words. Each word is mixed on its own
/// (mix64 of the word plus a per-position constant) and the mixes are
/// summed, so the N mixes run side by side instead of through FNV-1a's
/// byte-serial chain. The position constant keeps the sum from being
/// symmetric in its words: swapping two fields changes the hash.
template <std::size_t N>
inline std::uint64_t hash_words(const std::array<std::uint64_t, N>& words) {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < N; ++i) {
    h += mix64(words[i] + (i + 1) * 0x9e3779b97f4a7c15ULL);
  }
  return h;
}

/// Hash of a key made of a short name (at most 24 bytes), a run of ints and
/// a tag word, for in-process tables (the value may differ between
/// platforms). Every word is built in a register: the name from at most
/// three loads picked by its length class (overlapping where the length is
/// not a multiple of the load, as small memcpys do; bytes 0, n/2 and n - 1
/// below four bytes), then a word of the name's length and the ints' count,
/// the tag, and one word per int; hash_words-style mixes of the words are
/// summed. The loads depend on the name's length class, not its length, so
/// a stream of names of a few lengths costs no mispredicted byte loop.
inline std::uint64_t hash_name_ints(std::string_view name,
                                    std::span<const int> ints,
                                    std::uint64_t tag) {
  const std::size_t n = name.size();
  const char* p = name.data();
  const auto load = [](const char* at, std::size_t bytes) {
    std::uint64_t w = 0;
    std::memcpy(&w, at, bytes);
    return w;
  };
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  if (n >= 8) {
    a = load(p, 8);
    b = load(p + (n >= 16 ? 8 : n - 8), 8);
    c = n >= 16 ? load(p + n - 8, 8) : 0;
  } else if (n >= 4) {
    a = load(p, 4) | load(p + n - 4, 4) << 32;
  } else if (n > 0) {
    a = load(p, 1) | load(p + n / 2, 1) << 8 | load(p + n - 1, 1) << 16;
  }
  const std::uint64_t lengths = n | std::uint64_t{ints.size()} << 32;
  std::uint64_t h = hash_words(std::array{a, b, c, lengths, tag});
  for (std::size_t i = 0; i < ints.size(); ++i) {
    h += mix64(static_cast<std::uint32_t>(ints[i]) +
               (i + 6) * 0x9e3779b97f4a7c15ULL);
  }
  return h;
}

}  // namespace lamb::support
