#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace qdcbir {
namespace bench_serve {

HttpConnection::~HttpConnection() { Close(); }

void HttpConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpConnection::Connect(int port, int timeout_ms, std::string* error) {
  Close();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{};
  timeout.tv_sec = timeout_ms / 1000;
  timeout.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  fd_ = fd;
  return true;
}

bool HttpConnection::Exchange(const std::string& request, HttpReply* reply,
                              std::string* error) {
  if (fd_ < 0) {
    *error = "not connected";
    return false;
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = std::string("send: ") + std::strerror(errno);
      Close();
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  char chunk[16384];
  for (;;) {
    std::size_t consumed = 0;
    const FrameStatus status = FrameResponse(buffer_, reply, &consumed);
    if (status == FrameStatus::kComplete) {
      buffer_.erase(0, consumed);
      return true;
    }
    if (status == FrameStatus::kBad) {
      *error = "malformed response";
      Close();
      return false;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = n == 0 ? std::string("connection closed")
                      : std::string("recv: ") + std::strerror(errno);
      Close();
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace bench_serve
}  // namespace qdcbir
