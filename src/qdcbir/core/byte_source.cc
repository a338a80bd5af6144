#include "qdcbir/core/byte_source.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "qdcbir/core/crc32c.h"

namespace qdcbir {

Status MemoryByteSource::ReadAt(std::uint64_t offset, std::size_t n,
                                char* out) const {
  if (offset > bytes_.size() || n > bytes_.size() - offset) {
    return Status::Truncated("read past end of memory source");
  }
  std::memcpy(out, bytes_.data() + offset, n);
  return Status::Ok();
}

StatusOr<std::unique_ptr<FileByteSource>> FileByteSource::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open for reading: " + path + " (" +
                           std::strerror(errno) + ")");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IoError("not a regular file: " + path);
  }
  return std::unique_ptr<FileByteSource>(new FileByteSource(
      fd, static_cast<std::uint64_t>(st.st_size), path));
}

FileByteSource::~FileByteSource() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileByteSource::ReadAt(std::uint64_t offset, std::size_t n,
                              char* out) const {
  if (offset > size_ || n > size_ - offset) {
    return Status::Truncated("read past end of file: " + path_);
  }
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got =
        ::pread(fd_, out + done, n - done,
                static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("pread failed: " + path_ + " (" +
                             std::strerror(errno) + ")");
    }
    if (got == 0) {
      // The file shrank under us (concurrent truncation).
      return Status::Truncated("unexpected EOF: " + path_);
    }
    done += static_cast<std::size_t>(got);
  }
  return Status::Ok();
}

Status SliceByteSource::ReadAt(std::uint64_t offset, std::size_t n,
                               char* out) const {
  if (offset > length_ || n > length_ - offset) {
    return Status::Truncated("read past end of section");
  }
  return base_.ReadAt(offset_ + offset, n, out);
}

ByteReader::ByteReader(const ByteSource& source, const char* what,
                       bool checksum)
    : source_(source),
      what_(what),
      checksum_(checksum),
      size_(source.Size()),
      window_(static_cast<std::size_t>(
          std::min<std::uint64_t>(size_, kWindowBytes))) {}

template <typename Visit>
bool ByteReader::Walk(std::size_t n, Visit visit) {
  if (!status_.ok()) return false;
  if (n > Remaining()) {
    return Fail(Status::Truncated(std::string(what_) +
                                  " ends inside a field"));
  }
  while (n > 0) {
    if (pos_ == window_end_ && !ReadWindow()) return false;
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, window_end_ - pos_));
    const char* piece = window_.data() + (pos_ - window_start_);
    pos_ += take;
    n -= take;
    if (!visit(piece, take)) return false;
  }
  return true;
}

bool ByteReader::Raw(void* data, std::size_t n) {
  char* out = static_cast<char*>(data);
  return Walk(n, [&out](const char* piece, std::size_t take) {
    std::memcpy(out, piece, take);
    out += take;
    return true;
  });
}

bool ByteReader::Matches(const void* expected, std::size_t n) {
  const char* want = static_cast<const char*>(expected);
  return Walk(n, [&want](const char* piece, std::size_t take) {
    const bool same = std::memcmp(want, piece, take) == 0;
    want += take;
    return same;
  });
}

bool ByteReader::Count(std::uint64_t* n, std::uint64_t min_bytes_each) {
  if (!Pod(n)) return false;
  if (*n > Remaining() / min_bytes_each) {
    return Fail(Status::Truncated(std::string(what_) + " declares " +
                                  std::to_string(*n) +
                                  " elements past its end"));
  }
  return true;
}

bool ByteReader::Doubles(std::vector<double>* v, std::uint64_t n) {
  if (n > Remaining() / sizeof(double)) {
    return Fail(Status::Truncated(std::string(what_) +
                                  " ends inside a vector"));
  }
  v->resize(static_cast<std::size_t>(n));
  return Raw(v->data(), v->size() * sizeof(double));
}

Status ByteReader::Drain() {
  while (read_error_.ok() && window_end_ < size_) ReadWindow();
  if (read_error_.ok()) pos_ = window_end_;
  return read_error_;
}

bool ByteReader::Fail(Status status) {
  if (status_.ok()) status_ = std::move(status);
  return false;
}

bool ByteReader::ReadWindow() {
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(window_.size(), size_ - window_end_));
  Status read = source_.ReadAt(window_end_, n, window_.data());
  if (!read.ok()) {
    read_error_ = read;
    return Fail(std::move(read));
  }
  if (checksum_) crc_ = Crc32c::Extend(crc_, window_.data(), n);
  window_start_ = window_end_;
  window_end_ += n;
  return true;
}

StatusOr<std::uint32_t> Crc32cOfRange(const ByteSource& source,
                                      std::uint64_t offset,
                                      std::uint64_t length) {
  const SliceByteSource range(source, offset, length);
  ByteReader reader(range, "checksummed range", /*checksum=*/true);
  QDCBIR_RETURN_IF_ERROR(reader.Drain());
  return reader.crc();
}

}  // namespace qdcbir
