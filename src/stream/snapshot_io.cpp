#include "stream/snapshot_io.h"

#include <array>
#include <bit>
#include <cstring>

namespace geovalid::stream {
namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial: kCrcTables[0]
/// is the classic bytewise table, and kCrcTables[k][b] is the CRC of
/// byte b followed by k zero bytes, so one step folds eight input bytes
/// through eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFF];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Eight bytes as a little-endian u64, whatever the host order.
std::uint64_t load_le64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

}  // namespace

void SnapshotWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

double SnapshotReader::f64() { return std::bit_cast<double>(u64()); }

std::size_t SnapshotReader::length() {
  const std::uint64_t n = u64();
  // A sequence element is at least one byte, so a valid length can never
  // exceed the bytes left in the payload.
  if (n > remaining()) {
    throw SnapshotError("snapshot: sequence length exceeds payload");
  }
  return static_cast<std::size_t>(n);
}

std::uint32_t crc32(std::string_view data) {
  const auto& t = kCrcTables;
  const char* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint64_t w = load_le64(p) ^ c;
    const auto lo = static_cast<std::uint32_t>(w);
    const auto hi = static_cast<std::uint32_t>(w >> 32);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<unsigned char>(*p)) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace geovalid::stream
