// Explicit little-endian byte encoding, independent of host endianness.
//
// The store/ serialization layer writes every multi-byte value through these
// helpers so files produced on any host read back identically on any other.
// Doubles travel as their IEEE-754 bit pattern via std::bit_cast.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

namespace lamb::support {

inline void append_le32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline void append_le64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline void append_f64(std::string& out, double v) {
  append_le64(out, std::bit_cast<std::uint64_t>(v));
}

/// Loads assume `p` points at the required number of valid bytes; bounds
/// checking is the reader's job (store::ByteReader).
inline std::uint32_t load_le32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

inline std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

inline double load_f64(const unsigned char* p) {
  return std::bit_cast<double>(load_le64(p));
}

}  // namespace lamb::support
