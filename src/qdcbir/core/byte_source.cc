#include "qdcbir/core/byte_source.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

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

StatusOr<std::uint32_t> Crc32cOfRange(const ByteSource& source,
                                      std::uint64_t offset,
                                      std::uint64_t length) {
  constexpr std::size_t kWindowBytes = std::size_t{64} << 10;
  std::vector<char> window(
      static_cast<std::size_t>(std::min<std::uint64_t>(length, kWindowBytes)));
  std::uint32_t crc = 0;
  for (std::uint64_t done = 0; done < length;) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(length - done,
                                                          window.size()));
    QDCBIR_RETURN_IF_ERROR(source.ReadAt(offset + done, n, window.data()));
    crc = Crc32c::Extend(crc, window.data(), n);
    done += n;
  }
  return crc;
}

}  // namespace qdcbir
