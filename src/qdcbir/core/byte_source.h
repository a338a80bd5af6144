#ifndef QDCBIR_CORE_BYTE_SOURCE_H_
#define QDCBIR_CORE_BYTE_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "qdcbir/core/status.h"

namespace qdcbir {

/// Random-access byte stream abstraction behind the snapshot loaders.
///
/// `ReadAt` must be safe to call concurrently from multiple threads on the
/// same source — the async loader issues one read per chunk across the
/// thread pool. Implementations are positionless (no shared cursor).
///
/// The contract is all-or-nothing: `ReadAt` either fills the whole `[offset,
/// offset + n)` window or returns a non-OK status (`kTruncated` when the
/// window extends past `Size()`, `kIoError` for operational failures). This
/// is what makes fault injection precise: the test shim
/// (`tests/support/fault_stream.h`) wraps any source and turns byte-exact
/// truncations, bit flips and failing operations into the same typed errors
/// production would see.
class ByteSource {
 public:
  virtual ~ByteSource() = default;

  /// Total length of the stream in bytes.
  virtual std::uint64_t Size() const = 0;

  /// Copies `[offset, offset + n)` into `out` (which must hold `n` bytes).
  virtual Status ReadAt(std::uint64_t offset, std::size_t n,
                        char* out) const = 0;
};

/// A `ByteSource` over an in-memory byte string. Does not own the bytes;
/// the string must outlive the source.
class MemoryByteSource : public ByteSource {
 public:
  explicit MemoryByteSource(const std::string& bytes) : bytes_(bytes) {}

  std::uint64_t Size() const override { return bytes_.size(); }
  Status ReadAt(std::uint64_t offset, std::size_t n,
                char* out) const override;

 private:
  const std::string& bytes_;
};

/// A `ByteSource` over a file, reading with positioned I/O (`pread`), so
/// concurrent chunk reads need no locking and no shared file position.
class FileByteSource : public ByteSource {
 public:
  /// Opens `path`; fails with `kIoError` when it cannot be opened or is not
  /// a regular seekable file.
  static StatusOr<std::unique_ptr<FileByteSource>> Open(
      const std::string& path);

  ~FileByteSource() override;

  FileByteSource(const FileByteSource&) = delete;
  FileByteSource& operator=(const FileByteSource&) = delete;

  std::uint64_t Size() const override { return size_; }
  Status ReadAt(std::uint64_t offset, std::size_t n,
                char* out) const override;

 private:
  FileByteSource(int fd, std::uint64_t size, std::string path)
      : fd_(fd), size_(size), path_(std::move(path)) {}

  int fd_;
  std::uint64_t size_;
  std::string path_;
};

/// The window `[offset, offset + length)` of another source, addressed from
/// 0: how an embedded section (a snapshot's RFS chunk) is decoded in place
/// instead of being copied out first. Reads past `length` fail with
/// `kTruncated` like any other source. Does not own `base`, which must
/// outlive the slice.
class SliceByteSource : public ByteSource {
 public:
  SliceByteSource(const ByteSource& base, std::uint64_t offset,
                  std::uint64_t length)
      : base_(base), offset_(offset), length_(length) {}

  std::uint64_t Size() const override { return length_; }
  Status ReadAt(std::uint64_t offset, std::size_t n,
                char* out) const override;

 private:
  const ByteSource& base_;
  std::uint64_t offset_;
  std::uint64_t length_;
};

/// CRC32C of `[offset, offset + length)` of `source`, extended over
/// fixed-size `ReadAt` windows so the range is never held in memory whole.
StatusOr<std::uint32_t> Crc32cOfRange(const ByteSource& source,
                                      std::uint64_t offset,
                                      std::uint64_t length);

}  // namespace qdcbir

#endif  // QDCBIR_CORE_BYTE_SOURCE_H_
