#ifndef QDCBIR_BENCH_SERVE_HTTP_CLIENT_H_
#define QDCBIR_BENCH_SERVE_HTTP_CLIENT_H_

#include <string>

#include "harness.h"

namespace qdcbir {
namespace bench_serve {

/// Send and receive timeout of the benchmark's load connections.
inline constexpr int kRequestTimeoutMs = 10000;

/// One blocking keep-alive HTTP/1.1 connection to 127.0.0.1. Requests are
/// never pipelined: each `Exchange` sends one complete request with a
/// single write and reads until its response is framed.
class HttpConnection {
 public:
  HttpConnection() = default;
  ~HttpConnection();

  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Opens the socket (TCP_NODELAY, close-on-exec, `timeout_ms` receive
  /// timeout). Returns false with `*error` set on failure.
  bool Connect(int port, int timeout_ms, std::string* error);

  /// Sends `request` and reads its response. A transport failure (reset,
  /// timeout, malformed framing) returns false and closes the socket.
  bool Exchange(const std::string& request, HttpReply* reply,
                std::string* error);

  bool connected() const { return fd_ >= 0; }
  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace bench_serve
}  // namespace qdcbir

#endif  // QDCBIR_BENCH_SERVE_HTTP_CLIENT_H_
