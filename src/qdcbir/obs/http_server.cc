#include "qdcbir/obs/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>

#include "qdcbir/obs/clock.h"
#include "qdcbir/obs/metrics.h"

namespace qdcbir {
namespace obs {

namespace {

bool EqualsIgnoreCase(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

bool IsTokenChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_';
}

/// Shared server telemetry; all HttpServer instances record into the same
/// named metrics, like the thread pools do.
struct HttpMetrics {
  Counter& requests;
  Counter& bad_requests;
  Gauge& connections_active;
  Histogram& request_ns;

  static HttpMetrics& Get() {
    static HttpMetrics* m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return new HttpMetrics{
          reg.GetCounter("serve.http.requests",
                         "HTTP requests answered by the embedded server"),
          reg.GetCounter("serve.http.bad_requests",
                         "HTTP connections dropped on malformed or "
                         "oversized requests"),
          reg.GetGauge("serve.http.connections_active",
                       "Open HTTP connections"),
          reg.GetHistogram("serve.http.request_ns",
                           "Wall time from parsed request to response "
                           "written"),
      };
    }();
    return *m;
  }
};

}  // namespace

const std::string* HttpRequest::FindHeader(const std::string& name) const {
  for (const auto& [key, value] : headers) {
    if (EqualsIgnoreCase(key, name)) return &value;
  }
  return nullptr;
}

HttpParseStatus ParseHttpRequest(std::string_view buffer, HttpRequest* out,
                                 std::size_t* consumed,
                                 const HttpLimits& limits) {
  const std::size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    return buffer.size() > limits.max_header_bytes
               ? HttpParseStatus::kHeaderTooLarge
               : HttpParseStatus::kIncomplete;
  }
  if (header_end + 4 > limits.max_header_bytes) {
    return HttpParseStatus::kHeaderTooLarge;
  }

  HttpRequest request;
  const std::string_view head = buffer.substr(0, header_end);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);

  // METHOD SP target SP HTTP/x.y — anything else is malformed.
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      request_line.find(' ', sp2 + 1) != std::string_view::npos) {
    return HttpParseStatus::kBadRequest;
  }
  request.method = std::string(request_line.substr(0, sp1));
  std::string target(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  request.version = std::string(request_line.substr(sp2 + 1));
  if (request.method.empty() || request.method.size() > 16) {
    return HttpParseStatus::kBadRequest;
  }
  for (const char c : request.method) {
    if (!std::isupper(static_cast<unsigned char>(c))) {
      return HttpParseStatus::kBadRequest;
    }
  }
  if (target.empty() || target[0] != '/' ||
      (request.version != "HTTP/1.1" && request.version != "HTTP/1.0")) {
    return HttpParseStatus::kBadRequest;
  }
  const std::size_t question = target.find('?');
  if (question != std::string::npos) {
    request.query = target.substr(question + 1);
    target.resize(question);
  }
  request.target = std::move(target);

  // Header fields.
  std::size_t pos = line_end == std::string_view::npos ? head.size()
                                                       : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return HttpParseStatus::kBadRequest;
    }
    std::string name(line.substr(0, colon));
    for (const char c : name) {
      if (!IsTokenChar(c)) return HttpParseStatus::kBadRequest;
    }
    std::size_t value_begin = colon + 1;
    while (value_begin < line.size() &&
           (line[value_begin] == ' ' || line[value_begin] == '\t')) {
      ++value_begin;
    }
    std::size_t value_end = line.size();
    while (value_end > value_begin && (line[value_end - 1] == ' ' ||
                                       line[value_end - 1] == '\t')) {
      --value_end;
    }
    request.headers.emplace_back(
        std::move(name), std::string(line.substr(value_begin,
                                                 value_end - value_begin)));
  }

  // Body framing: Content-Length only (chunked uploads are out of scope
  // for an introspection server).
  std::size_t content_length = 0;
  if (request.FindHeader("Transfer-Encoding") != nullptr) {
    return HttpParseStatus::kBadRequest;
  }
  if (const std::string* header = request.FindHeader("Content-Length")) {
    if (header->empty()) return HttpParseStatus::kBadRequest;
    char* end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(header->c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') {
      return HttpParseStatus::kBadRequest;
    }
    content_length = static_cast<std::size_t>(parsed);
    if (content_length > limits.max_body_bytes) {
      return HttpParseStatus::kBodyTooLarge;
    }
  }
  const std::size_t total = header_end + 4 + content_length;
  if (buffer.size() < total) return HttpParseStatus::kIncomplete;
  request.body = std::string(buffer.substr(header_end + 4, content_length));

  *out = std::move(request);
  *consumed = total;
  return HttpParseStatus::kOk;
}

std::string SerializeHttpResponse(const HttpResponse& response,
                                  bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    ReasonPhrase(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out += response.body;
  return out;
}

HttpServer::HttpServer() : HttpServer(Options()) {}

HttpServer::HttpServer(Options options) : options_(std::move(options)) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(const std::string& path, Handler handler) {
  handlers_[path] = std::move(handler);
}

bool HttpServer::Start(std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.address.c_str(), &addr.sin_addr) != 1) {
    return fail("bad address " + options_.address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail("bind " + options_.address + ":" +
                std::to_string(options_.port));
  }
  if (::listen(listen_fd_, options_.backlog) != 0) return fail("listen");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return fail("getsockname");
  }
  port_ = static_cast<int>(ntohs(bound.sin_port));

  stopping_.store(false, std::memory_order_release);
  serving_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void HttpServer::Stop() {
  if (!serving_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  // Unblock accept() and refuse new connections.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // Force every open connection's blocking recv to return, then wait for
  // all dispatched handlers to drain.
  std::unique_lock<std::mutex> lock(conn_mu_);
  for (const int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
  conn_cv_.wait(lock, [this] { return active_connections_ == 0; });
  serving_.store(false, std::memory_order_release);
}

void HttpServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket was shut down (Stop) or broke
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    const timeval timeout{options_.recv_timeout_ms / 1000,
                          (options_.recv_timeout_ms % 1000) * 1000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    // Send each response at once: with Nagle on, the second of two
    // pipelined responses waits for the client's delayed ACK (~40 ms).
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      open_fds_.insert(fd);
      ++active_connections_;
    }
    HttpMetrics::Get().connections_active.Add(1);
    auto task = [this, fd] {
      HandleConnection(fd);
      HttpMetrics::Get().connections_active.Add(-1);
      // Notify while holding the lock: Stop()'s waiter can then only
      // observe the drained count after this notify_all has returned, so
      // the destructor never tears down conn_cv_ mid-notify.
      std::lock_guard<std::mutex> lock(conn_mu_);
      open_fds_.erase(fd);
      ::close(fd);
      --active_connections_;
      conn_cv_.notify_all();
    };
    if (options_.executor) {
      options_.executor(std::move(task));
    } else {
      task();
    }
  }
}

HttpResponse HttpServer::Route(const HttpRequest& request) const {
  if (request.method != "GET" && request.method != "HEAD" &&
      request.method != "POST") {
    return HttpResponse{405, "text/plain; charset=utf-8",
                        "method not allowed\n"};
  }
  const auto it = handlers_.find(request.target);
  if (it != handlers_.end()) return it->second(request);
  if (request.target == "/") {
    std::string index = "qdcbir introspection server\nendpoints:\n";
    for (const auto& [path, handler] : handlers_) {
      index += "  " + path + "\n";
    }
    return HttpResponse{200, "text/plain; charset=utf-8", std::move(index)};
  }
  return HttpResponse{404, "text/plain; charset=utf-8", "not found\n"};
}

void HttpServer::HandleConnection(int fd) {
  HttpMetrics& metrics = HttpMetrics::Get();
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open && !stopping_.load(std::memory_order_acquire)) {
    HttpRequest request;
    std::size_t consumed = 0;
    const HttpParseStatus parsed =
        ParseHttpRequest(buffer, &request, &consumed, options_.limits);

    if (parsed == HttpParseStatus::kIncomplete) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return;  // peer closed, timeout, or forced shutdown
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }

    if (parsed != HttpParseStatus::kOk) {
      int status = 400;
      if (parsed == HttpParseStatus::kHeaderTooLarge) status = 431;
      if (parsed == HttpParseStatus::kBodyTooLarge) status = 413;
      metrics.bad_requests.Add(1);
      const std::string reply = SerializeHttpResponse(
          HttpResponse{status, "text/plain; charset=utf-8",
                       "malformed request\n"},
          /*keep_alive=*/false);
      (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
      return;
    }

    const std::uint64_t start_ns = MonotonicNanos();
    buffer.erase(0, consumed);
    HttpResponse response = Route(request);

    bool keep_alive = request.version == "HTTP/1.1";
    if (const std::string* connection = request.FindHeader("Connection")) {
      if (EqualsIgnoreCase(*connection, "close")) keep_alive = false;
      if (EqualsIgnoreCase(*connection, "keep-alive")) keep_alive = true;
    }
    if (stopping_.load(std::memory_order_acquire)) keep_alive = false;

    std::string reply = SerializeHttpResponse(response, keep_alive);
    if (request.method == "HEAD") {
      reply.resize(reply.size() - response.body.size());
    }
    std::size_t sent = 0;
    while (sent < reply.size()) {
      const ssize_t n =
          ::send(fd, reply.data() + sent, reply.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
    metrics.requests.Add(1);
    metrics.request_ns.Record(MonotonicNanos() - start_ns);
    open = keep_alive;
  }
}

}  // namespace obs
}  // namespace qdcbir
