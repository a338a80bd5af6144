#ifndef QDCBIR_CORE_BYTE_SOURCE_H_
#define QDCBIR_CORE_BYTE_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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

/// Sequential cursor over a `ByteSource`, read through one fixed window so
/// a decode never holds more than `kWindowBytes` of the source: the source
/// is read window after window, in order, and every field is copied out of
/// the window. The first failure sticks in `status()` — `kTruncated` when a
/// field or a declared count runs past the end (the message names `what`),
/// or the source's own read error — and every later read fails fast.
///
/// With `checksum`, the CRC32C extends over each window as it is read.
/// `Drain` reads the windows a decode did not reach, so `crc()` can cover
/// the whole source even when the decode stopped early.
class ByteReader {
 public:
  static constexpr std::size_t kWindowBytes = std::size_t{64} << 10;

  /// `what` names the source in errors; it must outlive the reader.
  ByteReader(const ByteSource& source, const char* what,
             bool checksum = false);

  std::uint64_t Remaining() const { return size_ - pos_; }
  const Status& status() const { return status_; }

  bool Raw(void* data, std::size_t n);
  template <typename T>
  bool Pod(T* v) {
    return Raw(v, sizeof(T));
  }
  /// Reads an element count and rejects it when that many elements, at
  /// `min_bytes_each` bytes apiece, cannot fit in the bytes left — before
  /// the caller allocates for them.
  bool Count(std::uint64_t* n, std::uint64_t min_bytes_each);
  /// Reads `n` doubles into `v`, bounded by the bytes left before resizing.
  bool Doubles(std::vector<double>* v, std::uint64_t n);
  /// Reads the next `n` bytes and compares them with `expected` where they
  /// sit in the window, copying nothing out. False on a failed read
  /// (`status()` says why) or at the first byte that differs (`status()`
  /// stays OK).
  bool Matches(const void* expected, std::size_t n);

  /// Reads every window the cursor has not reached and moves it to the
  /// end. Returns the source's read error, including one that stopped an
  /// earlier read; a field that ran past the end is not a read error.
  Status Drain();

  /// CRC32C of every window read so far (0 without `checksum`).
  std::uint32_t crc() const { return crc_; }

 private:
  bool Fail(Status status);
  /// Passes the next `n` bytes to `visit(window_bytes, count)` one window
  /// piece at a time, stopping early when `visit` returns false.
  template <typename Visit>
  bool Walk(std::size_t n, Visit visit);
  /// Reads the next window, at `window_end_`.
  bool ReadWindow();

  const ByteSource& source_;
  const char* const what_;
  const bool checksum_;
  const std::uint64_t size_;
  std::vector<char> window_;
  std::uint64_t pos_ = 0;           ///< source offset of the next byte
  std::uint64_t window_start_ = 0;  ///< source offset of window_[0]
  std::uint64_t window_end_ = 0;    ///< one past the windowed bytes
  std::uint32_t crc_ = 0;
  Status status_;
  Status read_error_;
};

/// CRC32C of `[offset, offset + length)` of `source`, drained through a
/// `ByteReader` so the range is never held in memory whole.
StatusOr<std::uint32_t> Crc32cOfRange(const ByteSource& source,
                                      std::uint64_t offset,
                                      std::uint64_t length);

}  // namespace qdcbir

#endif  // QDCBIR_CORE_BYTE_SOURCE_H_
