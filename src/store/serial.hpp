// Versioned binary serialization: the byte-level layer under atlas_io /
// profile_io.
//
// Every multi-byte value is explicit little-endian (support/endian.hpp), so
// files are portable across hosts. A framed file is
//
//   "LAMB" | record kind (u32) | format version (u32) |
//   payload size (u64) | FNV-1a64 payload checksum (u64) | payload
//
// and read_file() rejects wrong magic, wrong kind, unknown versions,
// truncation and checksum mismatches with SerialError — a corrupt or foreign
// file can never come back as a half-parsed object. ByteReader bounds-checks
// every primitive read for the same reason.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace lamb::store {

/// Thrown on any malformed, truncated, corrupt or version-mismatched input.
class SerialError : public std::runtime_error {
 public:
  explicit SerialError(const std::string& what) : std::runtime_error(what) {}
};

/// An intact header of a known kind with an older format version: a record
/// an earlier build wrote correctly, not a corrupt one. Readers that can
/// rebuild the contents skip such a file instead of quarantining it.
class StaleRecordError : public SerialError {
 public:
  using SerialError::SerialError;
};

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v);
  /// Length-prefixed (u32) raw bytes; embedded NULs round-trip.
  void str(std::string_view s);
  /// Length-prefixed (u32) element sequences.
  void vec_i32(const std::vector<int>& v);
  void vec_f64(const std::vector<double>& v);

  const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

/// Bounds-checked little-endian decoder over a byte range; every read past
/// the end throws SerialError("truncated ...").
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  std::int64_t i64();
  double f64();
  bool boolean();
  std::string str();
  std::vector<int> vec_i32();
  std::vector<double> vec_f64();

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool at_end() const { return pos_ == bytes_.size(); }
  /// Throws SerialError when trailing bytes remain (record must be consumed
  /// exactly).
  void expect_end() const;

 private:
  const unsigned char* need(std::size_t n);

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Record kinds for the framed-file header.
inline constexpr std::uint32_t kKindAtlas = 0x41544C53;          // "ATLS"
inline constexpr std::uint32_t kKindDriftBaseline = 0x44524654;  // "DRFT"

/// Write a framed file (magic + kind + version + size + checksum + payload);
/// throws SerialError on I/O failure. The write is crash-safe: the record is
/// staged in a writer-unique "<path>.<pid>.<n>.tmp" sibling, fsynced, and
/// atomically renamed into place, so the destination always holds either
/// the old complete frame or the new one, never a truncated mix — even
/// under concurrent writers of the same destination.
void write_file(const std::string& path, std::uint32_t kind,
                std::uint32_t version, std::string_view payload);

/// Read and validate a framed file; returns the payload. `expected_version`
/// is the newest version the caller understands — older or newer versions
/// are rejected (the format carries no migration story yet, by design);
/// an older one with StaleRecordError.
std::string read_file(const std::string& path, std::uint32_t kind,
                      std::uint32_t expected_version);

/// Move a corrupt file aside as "<path>.corrupt" (numbered when that name is
/// taken) and append a "<name>\t<reason>" line to quarantine.journal in the
/// same directory, so bad bytes are preserved for forensics instead of being
/// silently skipped or re-read forever. Throws SerialError when the rename
/// itself fails.
void quarantine_file(const std::string& path, const std::string& reason);

}  // namespace lamb::store
