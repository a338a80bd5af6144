#ifndef QDCBIR_CORE_CRC32C_H_
#define QDCBIR_CORE_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace qdcbir {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected) — the checksum
/// guarding every chunk of the snapshot format (docs/snapshot_format.md).
/// Chosen over CRC-32 (IEEE) for its better error-detection properties on
/// long messages; this is the same polynomial used by iSCSI, ext4 and
/// leveldb table files. On x86-64 CPUs with SSE4.2 it runs on the `crc32`
/// instruction, elsewhere on portable slicing-by-8; the path is picked once
/// per process from cpuid, and both return the same checksums.
class Crc32c {
 public:
  /// CRC of `n` bytes starting at `data`.
  static std::uint32_t Compute(const void* data, std::size_t n) {
    return Extend(0, data, n);
  }
  static std::uint32_t Compute(const std::string& bytes) {
    return Compute(bytes.data(), bytes.size());
  }

  /// Extends `crc` (the CRC of a previous prefix) over `n` more bytes, so
  /// large payloads can be checksummed incrementally:
  /// `Extend(Extend(0, a, na), b, nb) == Compute(concat(a, b))`.
  static std::uint32_t Extend(std::uint32_t crc, const void* data,
                              std::size_t n);
};

namespace internal {

/// An implementation of `Crc32c::Extend`.
using Crc32cExtendFn = std::uint32_t (*)(std::uint32_t crc, const void* data,
                                         std::size_t n);

/// Slicing-by-8: the path on CPUs without SSE4.2, and the reference the
/// tests hold the hardware path to.
std::uint32_t Crc32cPortableExtend(std::uint32_t crc, const void* data,
                                   std::size_t n);

/// The SSE4.2 `crc32` path (crc32c_sse42.cc), or null when the CPU or the
/// build target lacks it.
Crc32cExtendFn Crc32cSse42Extend();

}  // namespace internal

}  // namespace qdcbir

#endif  // QDCBIR_CORE_CRC32C_H_
