// HTTP layer tests: request parsing (limits, malformed inputs, pipelined
// framing), response serialization, and a live loopback server exercising
// keep-alive, pipelining, bad methods, oversized headers, 404/index
// routing, and concurrent requests through a pool executor.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "qdcbir/core/thread_pool.h"
#include "qdcbir/obs/http_server.h"

namespace qdcbir {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Parser

TEST(HttpParseTest, ParsesSimpleGet) {
  HttpRequest request;
  std::size_t consumed = 0;
  const std::string raw =
      "GET /metrics?format=prom HTTP/1.1\r\nHost: x\r\n"
      "Accept: text/plain\r\n\r\n";
  ASSERT_EQ(ParseHttpRequest(raw, &request, &consumed),
            HttpParseStatus::kOk);
  EXPECT_EQ(consumed, raw.size());
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/metrics");
  EXPECT_EQ(request.query, "format=prom");
  EXPECT_EQ(request.version, "HTTP/1.1");
  ASSERT_NE(request.FindHeader("host"), nullptr);
  EXPECT_EQ(*request.FindHeader("HOST"), "x");
  EXPECT_EQ(request.FindHeader("absent"), nullptr);
}

TEST(HttpParseTest, ParsesPostBody) {
  HttpRequest request;
  std::size_t consumed = 0;
  const std::string raw =
      "POST /api/query HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"seed\":1}X";
  ASSERT_EQ(ParseHttpRequest(raw, &request, &consumed),
            HttpParseStatus::kOk);
  EXPECT_EQ(request.body, "{\"seed\":1}X");
  EXPECT_EQ(consumed, raw.size());
}

TEST(HttpParseTest, IncompleteUntilBodyArrives) {
  HttpRequest request;
  std::size_t consumed = 0;
  const std::string head =
      "POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nab";
  EXPECT_EQ(ParseHttpRequest(head, &request, &consumed),
            HttpParseStatus::kIncomplete);
  EXPECT_EQ(ParseHttpRequest(head + "cde", &request, &consumed),
            HttpParseStatus::kOk);
  EXPECT_EQ(request.body, "abcde");
}

TEST(HttpParseTest, PipelinedRequestsConsumeOneAtATime) {
  const std::string raw =
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
  HttpRequest request;
  std::size_t consumed = 0;
  ASSERT_EQ(ParseHttpRequest(raw, &request, &consumed),
            HttpParseStatus::kOk);
  EXPECT_EQ(request.target, "/a");
  const std::string rest = raw.substr(consumed);
  ASSERT_EQ(ParseHttpRequest(rest, &request, &consumed),
            HttpParseStatus::kOk);
  EXPECT_EQ(request.target, "/b");
  EXPECT_EQ(consumed, rest.size());
}

TEST(HttpParseTest, RejectsMalformedRequests) {
  HttpRequest request;
  std::size_t consumed = 0;
  for (const char* raw : {
           "get /x HTTP/1.1\r\n\r\n",          // lowercase method
           "GET/x HTTP/1.1\r\n\r\n",           // missing space
           "GET /x HTTP/1.1 extra\r\n\r\n",    // extra token
           "GET x HTTP/1.1\r\n\r\n",           // target not absolute
           "GET /x HTTP/2.0\r\n\r\n",          // unsupported version
           "GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n",
           "GET /x HTTP/1.1\r\nBad Header: v\r\n\r\n",
           "GET /x HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
           "GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
       }) {
    EXPECT_EQ(ParseHttpRequest(raw, &request, &consumed),
              HttpParseStatus::kBadRequest)
        << raw;
  }
}

TEST(HttpParseTest, EnforcesHeaderLimit) {
  HttpLimits limits;
  limits.max_header_bytes = 64;
  HttpRequest request;
  std::size_t consumed = 0;
  const std::string big_header = "GET / HTTP/1.1\r\nX-Pad: " +
                                 std::string(100, 'a') + "\r\n\r\n";
  EXPECT_EQ(ParseHttpRequest(big_header, &request, &consumed, limits),
            HttpParseStatus::kHeaderTooLarge);
  // An incomplete header that already exceeds the cap is rejected too —
  // the connection must not buffer unboundedly waiting for \r\n\r\n.
  const std::string endless = "GET / HTTP/1.1\r\nX-Pad: " +
                              std::string(100, 'a');
  EXPECT_EQ(ParseHttpRequest(endless, &request, &consumed, limits),
            HttpParseStatus::kHeaderTooLarge);
}

TEST(HttpParseTest, EnforcesBodyLimit) {
  HttpLimits limits;
  limits.max_body_bytes = 16;
  HttpRequest request;
  std::size_t consumed = 0;
  EXPECT_EQ(ParseHttpRequest(
                "POST / HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n",
                &request, &consumed, limits),
            HttpParseStatus::kBodyTooLarge);
}

TEST(HttpSerializeTest, WritesStatusLineAndFraming) {
  const std::string keep = SerializeHttpResponse(
      HttpResponse{200, "application/json", "{}"}, /*keep_alive=*/true);
  EXPECT_NE(keep.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(keep.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(keep.find("Connection: keep-alive\r\n"), std::string::npos);
  const std::string close = SerializeHttpResponse(
      HttpResponse{404, "text/plain", "no"}, /*keep_alive=*/false);
  EXPECT_NE(close.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
  EXPECT_NE(close.find("Connection: close\r\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Live server

/// A minimal blocking test client.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void Send(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Reads until `n` complete HTTP responses arrived (Content-Length
  /// framed) or the peer closed.
  std::string ReadResponses(std::size_t n) {
    std::string buffer;
    char chunk[4096];
    while (CountResponses(buffer) < n) {
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(got));
    }
    return buffer;
  }

  static std::size_t CountResponses(const std::string& buffer) {
    std::size_t count = 0;
    std::size_t pos = 0;
    while (true) {
      const std::size_t head_end = buffer.find("\r\n\r\n", pos);
      if (head_end == std::string::npos) return count;
      const std::string head = buffer.substr(pos, head_end - pos);
      const std::size_t cl = head.find("Content-Length: ");
      std::size_t body = 0;
      if (cl != std::string::npos) {
        body = static_cast<std::size_t>(
            std::strtoull(head.c_str() + cl + 16, nullptr, 10));
      }
      if (buffer.size() < head_end + 4 + body) return count;
      pos = head_end + 4 + body;
      ++count;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

class HttpServerTest : public ::testing::Test {
 protected:
  void StartServer(HttpServer::Options options = {}) {
    server_ = std::make_unique<HttpServer>(std::move(options));
    server_->Handle("/ping", [](const HttpRequest&) {
      return HttpResponse{200, "text/plain", "pong\n"};
    });
    server_->Handle("/echo", [](const HttpRequest& request) {
      return HttpResponse{200, "text/plain", request.body};
    });
    server_->Handle("/slow", [this](const HttpRequest&) {
      in_flight_.fetch_add(1);
      while (hold_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      in_flight_.fetch_sub(1);
      return HttpResponse{200, "text/plain", "done\n"};
    });
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  std::unique_ptr<HttpServer> server_;
  std::atomic<bool> hold_{false};
  std::atomic<int> in_flight_{0};
};

TEST_F(HttpServerTest, ServesAndKeepsAlive) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.Send("GET /ping HTTP/1.1\r\n\r\n");
  std::string reply = client.ReadResponses(1);
  EXPECT_NE(reply.find("200 OK"), std::string::npos);
  EXPECT_NE(reply.find("pong"), std::string::npos);
  // Same connection, second request.
  client.Send("POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
  reply = client.ReadResponses(1);
  EXPECT_NE(reply.find("hello"), std::string::npos);
}

TEST_F(HttpServerTest, PipelinedRequestsAnswerInOrder) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.Send(
      "POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nfirst"
      "POST /echo HTTP/1.1\r\nContent-Length: 6\r\n\r\nsecond"
      "GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n");
  const std::string reply = client.ReadResponses(3);
  EXPECT_EQ(TestClient::CountResponses(reply), 3u);
  const std::size_t first = reply.find("first");
  const std::size_t second = reply.find("second");
  const std::size_t pong = reply.find("pong");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  ASSERT_NE(pong, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_LT(second, pong);
}

TEST_F(HttpServerTest, PipelinedBatchesDoNotWaitForDelayedAck) {
  // Two pipelined requests get two small responses. Without TCP_NODELAY,
  // Nagle holds the second until the client's delayed ACK of the first
  // arrives, and every batch takes ~40 ms instead of well under 1 ms.
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.Send("GET /ping HTTP/1.1\r\n\r\n");
  ASSERT_EQ(TestClient::CountResponses(client.ReadResponses(1)), 1u);
  std::vector<double> batch_ms;
  for (int batch = 0; batch < 10; ++batch) {
    const auto start = std::chrono::steady_clock::now();
    client.Send("GET /ping HTTP/1.1\r\n\r\nGET /ping HTTP/1.1\r\n\r\n");
    ASSERT_EQ(TestClient::CountResponses(client.ReadResponses(2)), 2u);
    batch_ms.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count());
  }
  std::nth_element(batch_ms.begin(), batch_ms.begin() + 5, batch_ms.end());
  EXPECT_LT(batch_ms[5], 20.0);
}

TEST_F(HttpServerTest, BadMethodAnswers405) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.Send("DELETE /ping HTTP/1.1\r\n\r\n");
  EXPECT_NE(client.ReadResponses(1).find("405"), std::string::npos);
}

TEST_F(HttpServerTest, MalformedRequestAnswers400AndCloses) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.Send("not-a-request\r\n\r\n");
  const std::string reply = client.ReadResponses(1);
  EXPECT_NE(reply.find("400 Bad Request"), std::string::npos);
  EXPECT_NE(reply.find("Connection: close"), std::string::npos);
}

TEST_F(HttpServerTest, OversizedHeaderAnswers431) {
  HttpServer::Options options;
  options.limits.max_header_bytes = 256;
  StartServer(std::move(options));
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.Send("GET /ping HTTP/1.1\r\nX-Pad: " + std::string(1024, 'a') +
              "\r\n\r\n");
  EXPECT_NE(client.ReadResponses(1).find("431"), std::string::npos);
}

TEST_F(HttpServerTest, OversizedBodyAnswers413) {
  HttpServer::Options options;
  options.limits.max_body_bytes = 64;
  StartServer(std::move(options));
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.Send("POST /echo HTTP/1.1\r\nContent-Length: 100000\r\n\r\n");
  EXPECT_NE(client.ReadResponses(1).find("413"), std::string::npos);
}

TEST_F(HttpServerTest, UnknownPathAnswers404AndRootListsEndpoints) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.Send("GET /nope HTTP/1.1\r\n\r\n");
  EXPECT_NE(client.ReadResponses(1).find("404"), std::string::npos);
  client.Send("GET / HTTP/1.1\r\n\r\n");
  const std::string index = client.ReadResponses(1);
  EXPECT_NE(index.find("/ping"), std::string::npos);
  EXPECT_NE(index.find("/echo"), std::string::npos);
}

TEST_F(HttpServerTest, HeadOmitsBody) {
  StartServer();
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.Send("HEAD /ping HTTP/1.1\r\nConnection: close\r\n\r\n");
  // HEAD responses carry Content-Length but no body, so the framing-aware
  // reader never sees a "complete" response; it returns what arrived when
  // the server honors Connection: close.
  const std::string reply = client.ReadResponses(1);
  EXPECT_NE(reply.find("Content-Length: 5"), std::string::npos);
  EXPECT_EQ(reply.find("pong"), std::string::npos);
}

TEST_F(HttpServerTest, PoolExecutorHandlesConcurrentConnections) {
  ThreadPool pool(4);
  HttpServer::Options options;
  options.executor = [&pool](std::function<void()> task) {
    pool.Post(std::move(task));
  };
  hold_.store(true);
  StartServer(std::move(options));

  // Two connections park inside /slow; a third must still be served —
  // proof that connections are dispatched concurrently, not serialized on
  // the accept thread.
  TestClient slow1(server_->port()), slow2(server_->port());
  ASSERT_TRUE(slow1.connected());
  ASSERT_TRUE(slow2.connected());
  slow1.Send("GET /slow HTTP/1.1\r\n\r\n");
  slow2.Send("GET /slow HTTP/1.1\r\n\r\n");
  while (in_flight_.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  TestClient fast(server_->port());
  ASSERT_TRUE(fast.connected());
  fast.Send("GET /ping HTTP/1.1\r\n\r\n");
  EXPECT_NE(fast.ReadResponses(1).find("pong"), std::string::npos);

  hold_.store(false);
  EXPECT_NE(slow1.ReadResponses(1).find("done"), std::string::npos);
  EXPECT_NE(slow2.ReadResponses(1).find("done"), std::string::npos);
  server_->Stop();
}

TEST_F(HttpServerTest, StopDrainsOpenConnections) {
  ThreadPool pool(4);
  HttpServer::Options options;
  options.executor = [&pool](std::function<void()> task) {
    pool.Post(std::move(task));
  };
  StartServer(std::move(options));
  // An idle keep-alive connection is parked in recv; Stop must shut it
  // down and return promptly rather than waiting out the recv timeout.
  TestClient idle(server_->port());
  ASSERT_TRUE(idle.connected());
  idle.Send("GET /ping HTTP/1.1\r\n\r\n");
  EXPECT_NE(idle.ReadResponses(1).find("pong"), std::string::npos);
  server_->Stop();
  EXPECT_FALSE(server_->serving());
}

}  // namespace
}  // namespace obs
}  // namespace qdcbir
