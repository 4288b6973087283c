#include "store/serial.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <limits>

#include "support/endian.hpp"
#include "support/fault.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"

namespace lamb::store {

namespace {

constexpr char kMagic[4] = {'L', 'A', 'M', 'B'};
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 8 + 8;

}  // namespace

// ------------------------------------------------------------------ writer

void ByteWriter::u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
void ByteWriter::u32(std::uint32_t v) { support::append_le32(bytes_, v); }
void ByteWriter::u64(std::uint64_t v) { support::append_le64(bytes_, v); }
void ByteWriter::i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
void ByteWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
void ByteWriter::f64(double v) { support::append_f64(bytes_, v); }
void ByteWriter::boolean(bool v) { u8(v ? 1 : 0); }

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes_.append(s.data(), s.size());
}

void ByteWriter::vec_i32(const std::vector<int>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (int x : v) {
    i32(x);
  }
}

void ByteWriter::vec_f64(const std::vector<double>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (double x : v) {
    f64(x);
  }
}

// ------------------------------------------------------------------ reader

const unsigned char* ByteReader::need(std::size_t n) {
  if (bytes_.size() - pos_ < n) {
    throw SerialError(support::strf(
        "truncated record: need %zu bytes at offset %zu of %zu", n, pos_,
        bytes_.size()));
  }
  const auto* p =
      reinterpret_cast<const unsigned char*>(bytes_.data()) + pos_;
  pos_ += n;
  return p;
}

std::uint8_t ByteReader::u8() { return *need(1); }
std::uint32_t ByteReader::u32() { return support::load_le32(need(4)); }
std::uint64_t ByteReader::u64() { return support::load_le64(need(8)); }
std::int32_t ByteReader::i32() { return static_cast<std::int32_t>(u32()); }
std::int64_t ByteReader::i64() { return static_cast<std::int64_t>(u64()); }
double ByteReader::f64() { return support::load_f64(need(8)); }

bool ByteReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) {
    throw SerialError(support::strf("corrupt boolean byte 0x%02X", v));
  }
  return v == 1;
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  const auto* p = need(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

std::vector<int> ByteReader::vec_i32() {
  const std::uint32_t n = u32();
  if (remaining() / 4 < n) {
    throw SerialError("truncated record: i32 vector length exceeds payload");
  }
  std::vector<int> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(i32());
  }
  return out;
}

std::vector<double> ByteReader::vec_f64() {
  const std::uint32_t n = u32();
  if (remaining() / 8 < n) {
    throw SerialError("truncated record: f64 vector length exceeds payload");
  }
  std::vector<double> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(f64());
  }
  return out;
}

void ByteReader::expect_end() const {
  if (!at_end()) {
    throw SerialError(support::strf(
        "corrupt record: %zu trailing bytes after the payload", remaining()));
  }
}

// ------------------------------------------------------------- framed files

void write_file(const std::string& path, std::uint32_t kind,
                std::uint32_t version, std::string_view payload) {
  std::string header;
  header.append(kMagic, sizeof(kMagic));
  support::append_le32(header, kind);
  support::append_le32(header, version);
  support::append_le64(header, payload.size());
  support::append_le64(header, support::fnv1a64(payload));

  // Crash-safe replace: stage the full record in a sibling temp file,
  // fsync it, then rename over the destination. The fsync matters — without
  // it a power loss can commit the rename before the data blocks, leaving a
  // zero-length frame under the real name. A crash mid-write leaves at
  // worst a stale ".tmp" next to an intact old file (readers skip / reject
  // the temp name by extension). The staging name is unique per writer
  // (pid + counter): concurrent checkpoints of the same key must not
  // interleave into one staging file and publish a mixed frame.
  static std::atomic<std::uint64_t> stage_counter{0};
  const std::string tmp = path +
                          support::strf(".%ld.%llu.tmp",
                                        static_cast<long>(::getpid()),
                                        static_cast<unsigned long long>(
                                            stage_counter.fetch_add(1)));
  const auto fail = [&tmp](const std::string& what) -> SerialError {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    return SerialError(what);
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    throw SerialError("cannot open for writing: " + tmp);
  }
  const auto write_all = [fd](std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  };
  if (!write_all(header) || !write_all(payload) || ::fsync(fd) != 0) {
    ::close(fd);
    throw fail("write failed: " + tmp);
  }
  if (::close(fd) != 0) {
    throw fail("close failed: " + tmp);
  }
  if (support::fault_fire(support::FaultSite::kStoreWrite)) {
    // Model a crash between staging and publish: the staged .tmp survives,
    // the destination is untouched. fsck cleans the orphan up.
    throw SerialError("fault injected: store.write before rename: " + path);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw fail("cannot replace " + path + ": " + ec.message());
  }
  // The rename itself must also reach disk: without a directory fsync a
  // power loss can roll the directory entry back to the old file (or to
  // nothing, for a first checkpoint) even though the data blocks made it.
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int dirfd =
      ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd >= 0) {
    ::fsync(dirfd);  // best-effort: some filesystems reject directory fsync
    ::close(dirfd);
  }
}

void quarantine_file(const std::string& path, const std::string& reason) {
  const std::filesystem::path src(path);
  std::filesystem::path dst = src;
  dst += ".corrupt";
  std::error_code ec;
  for (int n = 1; std::filesystem::exists(dst, ec) && n < 100; ++n) {
    dst = src;
    dst += support::strf(".%d.corrupt", n);
  }
  std::filesystem::rename(src, dst, ec);
  if (ec) {
    throw SerialError("cannot quarantine " + path + ": " + ec.message());
  }
  const std::filesystem::path journal =
      src.parent_path() / "quarantine.journal";
  std::ofstream out(journal, std::ios::app);
  if (out) {
    out << dst.filename().string() << '\t' << reason << '\n';
  }
}

std::string read_file(const std::string& path, std::uint32_t kind,
                      std::uint32_t expected_version) {
  if (support::fault_fire(support::FaultSite::kStoreRead)) {
    throw SerialError("fault injected: store.read: " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SerialError("cannot open for reading: " + path);
  }
  std::string raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  if (raw.size() < kHeaderBytes) {
    throw SerialError("truncated header: " + path);
  }
  const auto* p = reinterpret_cast<const unsigned char*>(raw.data());
  if (raw.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    throw SerialError("bad magic (not a lamb store file): " + path);
  }
  const std::uint32_t got_kind = support::load_le32(p + 4);
  if (got_kind != kind) {
    throw SerialError(support::strf(
        "record kind mismatch in %s: got 0x%08X, want 0x%08X", path.c_str(),
        got_kind, kind));
  }
  const std::uint32_t got_version = support::load_le32(p + 8);
  if (got_version < expected_version) {
    throw StaleRecordError(support::strf(
        "stale format version %u in %s (this build reads %u)", got_version,
        path.c_str(), expected_version));
  }
  if (got_version != expected_version) {
    throw SerialError(support::strf(
        "unsupported format version %u in %s (this build reads %u)",
        got_version, path.c_str(), expected_version));
  }
  const std::uint64_t payload_size = support::load_le64(p + 12);
  if (payload_size != raw.size() - kHeaderBytes) {
    throw SerialError("truncated payload: " + path);
  }
  const std::uint64_t checksum = support::load_le64(p + 20);
  const std::string_view payload(raw.data() + kHeaderBytes,
                                 static_cast<std::size_t>(payload_size));
  if (support::fnv1a64(payload) != checksum) {
    throw SerialError("checksum mismatch (corrupt file): " + path);
  }
  return std::string(payload);
}

}  // namespace lamb::store
