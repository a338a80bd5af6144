#include "harness.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "http_client.h"
#include "qdcbir/obs/http_server.h"

namespace qdcbir {
namespace bench_serve {
namespace {

TEST(PercentileRule, NeedsTenSamplesBeyondThePercentile) {
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_TRUE(PercentileSupported(10000, 0.999));
  EXPECT_FALSE(PercentileSupported(9999, 0.999));
  EXPECT_TRUE(PercentileSupported(20, 0.5));
  EXPECT_FALSE(PercentileSupported(19, 0.5));
}

TEST(PercentileRule, WindowMedianIgnoresOneDisturbedWindow) {
  // Ten windows of 100 samples; one window runs 10x slower.
  std::vector<TimedSample> samples;
  for (int i = 0; i < 1000; ++i) {
    const double at = i / 100.0;
    samples.push_back({at, at >= 3.0 && at < 4.0 ? 10.0 : 1.0 + i % 7});
  }
  EXPECT_DOUBLE_EQ(WindowedQuantile(samples, 10.0, 0.5), 4.0);
  // Too few samples for two windows: one window, the plain quantile.
  samples.resize(150);
  EXPECT_DOUBLE_EQ(WindowedQuantile(samples, 10.0, 1.0), 7.0);
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> samples;
  for (int i = 10; i >= 1; --i) samples.push_back(i);
  EXPECT_DOUBLE_EQ(Quantile(samples, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(samples, 0.9), 9.0);
  EXPECT_DOUBLE_EQ(Quantile(samples, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(PoissonSchedule, ReproducesFromSeed) {
  const std::vector<double> a = PoissonSchedule(42, 1000.0, 10.0);
  const std::vector<double> b = PoissonSchedule(42, 1000.0, 10.0);
  const std::vector<double> c = PoissonSchedule(43, 1000.0, 10.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_GT(a.size(), 9500u);
  ASSERT_LT(a.size(), 10500u);
  for (std::size_t i = 1; i < a.size(); ++i) ASSERT_LE(a[i - 1], a[i]);
  EXPECT_LT(a.back(), 10.0);
  EXPECT_TRUE(PoissonSchedule(1, 0.0, 10.0).empty());
}

TEST(OpenLoop, StalledReplyDelaysSessionsQueuedBehindIt) {
  // One connection: job 0 stalls 60 ms, so jobs due at 10 and 20 ms wait
  // for it and their due-time latency includes that wait.
  const std::vector<double> due = {0.0, 0.010, 0.020};
  const OpenLoopResult result =
      RunOpenLoop(due, 1, 10.0, [](std::size_t index, std::size_t) {
        if (index == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(60));
        }
      });
  ASSERT_EQ(result.jobs.size(), 3u);
  for (const JobTiming& job : result.jobs) EXPECT_TRUE(job.ran);
  EXPECT_GE(result.jobs[1].start, 0.059);
  EXPECT_GE(result.jobs[1].end - result.jobs[1].due, 0.049);
  EXPECT_GE(result.jobs[2].end - result.jobs[2].due, 0.039);
  // Queueing behind a slow reply is not generator lateness.
  EXPECT_LT(result.max_lateness, 0.030);
}

TEST(OpenLoop, SecondConnectionAbsorbsTheStall) {
  const std::vector<double> due = {0.0, 0.010};
  const OpenLoopResult result =
      RunOpenLoop(due, 2, 10.0, [](std::size_t index, std::size_t) {
        if (index == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(60));
        }
      });
  EXPECT_LT(result.jobs[1].end - result.jobs[1].due, 0.040);
}

TEST(OpenLoop, SkipsJobsPastTheDeadline) {
  const std::vector<double> due = {0.0, 0.001, 0.002};
  const OpenLoopResult result =
      RunOpenLoop(due, 1, 0.030, [](std::size_t, std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      });
  EXPECT_TRUE(result.jobs[0].ran);
  EXPECT_FALSE(result.jobs[1].ran);
  EXPECT_FALSE(result.jobs[2].ran);
}

std::string SampleResponse(const std::string& body) {
  obs::HttpResponse response(200, "application/json", body);
  response.headers.emplace_back("traceparent", "00-abc-def-01");
  return obs::SerializeHttpResponse(response, true);
}

TEST(FrameResponse, EverySplitPointIsIncompleteUntilTheLastByte) {
  const std::string wire = SampleResponse("{\"session\":1}");
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    HttpReply reply;
    std::size_t consumed = 0;
    ASSERT_EQ(FrameResponse(wire.substr(0, cut), &reply, &consumed),
              FrameStatus::kIncomplete)
        << "cut at " << cut;
  }
  HttpReply reply;
  std::size_t consumed = 0;
  ASSERT_EQ(FrameResponse(wire, &reply, &consumed), FrameStatus::kComplete);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.body, "{\"session\":1}");
  EXPECT_EQ(reply.content_type, "application/json");
  EXPECT_EQ(reply.traceparent, "00-abc-def-01");
  EXPECT_EQ(reply.wire_bytes, wire.size());
}

TEST(FrameResponse, BackToBackResponsesFrameSeparately) {
  const std::string first = SampleResponse("one");
  const std::string second = SampleResponse("second body");
  HttpReply reply;
  std::size_t consumed = 0;
  ASSERT_EQ(FrameResponse(first + second, &reply, &consumed),
            FrameStatus::kComplete);
  EXPECT_EQ(reply.body, "one");
  EXPECT_EQ(consumed, first.size());
  ASSERT_EQ(FrameResponse(second, &reply, &consumed), FrameStatus::kComplete);
  EXPECT_EQ(reply.body, "second body");
}

TEST(FrameResponse, RejectsMalformedFraming) {
  HttpReply reply;
  std::size_t consumed = 0;
  EXPECT_EQ(FrameResponse("garbage\r\n\r\n", &reply, &consumed),
            FrameStatus::kBad);
  EXPECT_EQ(FrameResponse("HTTP/1.1 200 OK\r\nX: y\r\n\r\nbody", &reply,
                          &consumed),
            FrameStatus::kBad);
  EXPECT_EQ(FrameResponse("HTTP/1.1 200 OK\r\nContent-Length: 1x\r\n\r\n",
                          &reply, &consumed),
            FrameStatus::kBad);
}

TEST(BuildRequest, ParsesBackThroughTheServerParser) {
  const std::string wire =
      BuildRequest("POST", "/api/query", "{\"seed\":3}", "00-aa-bb-01");
  obs::HttpRequest request;
  std::size_t consumed = 0;
  ASSERT_EQ(obs::ParseHttpRequest(wire, &request, &consumed),
            obs::HttpParseStatus::kOk);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/api/query");
  EXPECT_EQ(request.body, "{\"seed\":3}");
  ASSERT_NE(request.FindHeader("traceparent"), nullptr);
  EXPECT_EQ(*request.FindHeader("traceparent"), "00-aa-bb-01");
}

TEST(HttpConnection, ReassemblesAResponseSentInPieces) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
  const int port = ntohs(addr.sin_port);

  const std::string body(5000, 'x');
  const std::string wire = SampleResponse(body) + SampleResponse("next");
  std::thread peer([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    char buffer[1024];
    (void)::recv(fd, buffer, sizeof(buffer), 0);
    // Header split mid-line, body split twice; the second response follows
    // immediately and must stay buffered for the next exchange.
    std::size_t sent = 0;
    for (const std::size_t cut : {std::size_t{7}, std::size_t{40},
                                  std::size_t{2600}, wire.size()}) {
      (void)::send(fd, wire.data() + sent, cut - sent, MSG_NOSIGNAL);
      sent = cut;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    (void)::recv(fd, buffer, sizeof(buffer), 0);
    ::close(fd);
  });

  HttpConnection connection;
  std::string error;
  ASSERT_TRUE(connection.Connect(port, 2000, &error)) << error;
  HttpReply reply;
  ASSERT_TRUE(connection.Exchange(BuildRequest("GET", "/a", "", ""), &reply,
                                  &error))
      << error;
  EXPECT_EQ(reply.body, body);
  ASSERT_TRUE(connection.Exchange(BuildRequest("GET", "/b", "", ""), &reply,
                                  &error))
      << error;
  EXPECT_EQ(reply.body, "next");
  connection.Close();
  peer.join();
  ::close(listener);
}

}  // namespace
}  // namespace bench_serve
}  // namespace qdcbir
