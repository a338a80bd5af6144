#include "qdcbir/core/crc32c.h"

#include <array>
#include <cstring>

namespace qdcbir {

namespace {

/// Reflected Castagnoli polynomial.
constexpr std::uint32_t kPoly = 0x82f63b78u;

/// Eight 256-entry tables: table[0] is the classic byte-at-a-time table,
/// table[k] advances a byte seen k positions earlier, enabling the
/// slicing-by-8 inner loop (one table lookup per input byte, 8 bytes per
/// iteration).
struct Tables {
  std::uint32_t t[8][256];
};

const Tables& GetTables() {
  static const Tables tables = [] {
    Tables out;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      out.t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = out.t[0][i];
      for (int k = 1; k < 8; ++k) {
        crc = out.t[0][crc & 0xffu] ^ (crc >> 8);
        out.t[k][i] = crc;
      }
    }
    return out;
  }();
  return tables;
}

}  // namespace

namespace internal {

std::uint32_t Crc32cPortableExtend(std::uint32_t crc, const void* data,
                                   std::size_t n) {
  const Tables& tb = GetTables();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  // Byte-wise until 8-byte alignment, then slicing-by-8.
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = tb.t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
    --n;
  }
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    // The format is little-endian on disk and the build targets
    // little-endian hosts; fold the low word through the CRC, the high
    // word through the lookahead tables.
    crc ^= static_cast<std::uint32_t>(word);
    const std::uint32_t hi = static_cast<std::uint32_t>(word >> 32);
    crc = tb.t[7][crc & 0xffu] ^ tb.t[6][(crc >> 8) & 0xffu] ^
          tb.t[5][(crc >> 16) & 0xffu] ^ tb.t[4][(crc >> 24) & 0xffu] ^
          tb.t[3][hi & 0xffu] ^ tb.t[2][(hi >> 8) & 0xffu] ^
          tb.t[1][(hi >> 16) & 0xffu] ^ tb.t[0][(hi >> 24) & 0xffu];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = tb.t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
    --n;
  }
  return ~crc;
}

}  // namespace internal

std::uint32_t Crc32c::Extend(std::uint32_t crc, const void* data,
                             std::size_t n) {
  static const internal::Crc32cExtendFn extend = [] {
    const internal::Crc32cExtendFn hardware = internal::Crc32cSse42Extend();
    return hardware != nullptr ? hardware : &internal::Crc32cPortableExtend;
  }();
  return extend(crc, data, n);
}

}  // namespace qdcbir
