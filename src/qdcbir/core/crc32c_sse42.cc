// SSE4.2 CRC32C. The `crc32` instruction folds 8 bytes per step with the
// Castagnoli polynomial, so it returns the checksums of the slicing-by-8
// path in crc32c.cc at several times its speed. This translation unit is
// the only one compiled with -msse4.2; `Crc32cSse42Extend` checks cpuid
// before it hands the function out.

#include "qdcbir/core/crc32c.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <nmmintrin.h>

#include <cstring>

namespace qdcbir {
namespace internal {
namespace {

__attribute__((target("sse4.2"))) std::uint32_t Sse42Extend(
    std::uint32_t crc, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  // Byte-wise until 8-byte alignment, then one word per instruction.
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  std::uint64_t state = crc;
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    state = _mm_crc32_u64(state, word);
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(state);
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  return ~crc;
}

}  // namespace

Crc32cExtendFn Crc32cSse42Extend() {
  return __builtin_cpu_supports("sse4.2") ? &Sse42Extend : nullptr;
}

}  // namespace internal
}  // namespace qdcbir

#else

namespace qdcbir {
namespace internal {

Crc32cExtendFn Crc32cSse42Extend() { return nullptr; }

}  // namespace internal
}  // namespace qdcbir

#endif
