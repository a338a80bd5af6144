// ServeApp tests: the readiness state machine on a broken snapshot path, a
// complete relevance-feedback session driven over loopback HTTP (query →
// feedback → finalize → audit ring + metrics), API error handling, and
// seed determinism of `/api/query` responses.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "qdcbir/core/thread_pool.h"
#include "qdcbir/dataset/database_io.h"
#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/obs/json.h"
#include "qdcbir/obs/log.h"
#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/prom_export.h"
#include "qdcbir/obs/trace_tree.h"
#include "qdcbir/rfs/rfs_builder.h"
#include "qdcbir/rfs/rfs_serialization.h"
#include "qdcbir/serve/json_mini.h"
#include "qdcbir/serve/serve_app.h"

namespace qdcbir {
namespace serve {
namespace {

/// One blocking HTTP exchange on a fresh connection; returns the full
/// response (status line + headers + body) or "" on connect failure.
std::string HttpRoundTrip(int port, const std::string& raw_request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  (void)::send(fd, raw_request.data(), raw_request.size(), 0);
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;
    response.append(chunk, static_cast<std::size_t>(got));
    const std::size_t head_end = response.find("\r\n\r\n");
    if (head_end == std::string::npos) continue;
    const std::size_t cl = response.find("Content-Length: ");
    if (cl == std::string::npos || cl > head_end) break;
    const std::size_t body_bytes = static_cast<std::size_t>(
        std::strtoull(response.c_str() + cl + 16, nullptr, 10));
    if (response.size() >= head_end + 4 + body_bytes) break;
  }
  ::close(fd);
  return response;
}

std::string Get(int port, const std::string& path) {
  return HttpRoundTrip(port, "GET " + path +
                                 " HTTP/1.1\r\nConnection: close\r\n\r\n");
}

/// `extra_headers` is raw header text, each line CRLF-terminated (e.g.
/// "traceparent: 00-…-01\r\n").
std::string Post(int port, const std::string& path, const std::string& body,
                 const std::string& extra_headers = "") {
  return HttpRoundTrip(
      port, "POST " + path + " HTTP/1.1\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\n" + extra_headers +
                "Connection: close\r\n\r\n" + body);
}

std::string BodyOf(const std::string& response) {
  const std::size_t head_end = response.find("\r\n\r\n");
  return head_end == std::string::npos ? "" : response.substr(head_end + 4);
}

std::string HeaderValue(const std::string& response, const std::string& name) {
  const std::string needle = "\r\n" + name + ": ";
  const std::size_t pos = response.find(needle);
  if (pos == std::string::npos) return "";
  const std::size_t start = pos + needle.size();
  return response.substr(start, response.find("\r\n", start) - start);
}

struct FlatSpan {
  std::string name;
  std::uint64_t duration_ns = 0;
  std::uint64_t self_ns = 0;
  bool has_leaf_annotation = false;
};

void CollectSpans(const JsonValue& node, std::vector<FlatSpan>* out) {
  FlatSpan span;
  if (const JsonValue* name = node.Find("name")) span.name = name->string;
  span.duration_ns = node.U64Field("duration_ns", 0);
  span.self_ns = node.U64Field("self_ns", 0);
  if (const JsonValue* annotations = node.Find("annotations")) {
    span.has_leaf_annotation = annotations->Find("leaf") != nullptr;
  }
  out->push_back(span);
  if (const JsonValue* children = node.Find("children")) {
    for (const JsonValue& child : children->items) {
      CollectSpans(child, out);
    }
  }
}

/// The /tracez entry with the given trace id, or nullptr.
const JsonValue* FindTrace(const JsonValue& tracez,
                           const std::string& trace_id) {
  const JsonValue* traces = tracez.Find("traces");
  if (traces == nullptr || !traces->is_array()) return nullptr;
  for (const JsonValue& entry : traces->items) {
    const JsonValue* id = entry.Find("trace_id");
    if (id != nullptr && id->string == trace_id) return &entry;
  }
  return nullptr;
}

class ServeAppTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogOptions catalog_options;
    catalog_options.num_categories = 12;
    Catalog catalog = Catalog::Build(catalog_options).value();
    SynthesizerOptions options;
    options.total_images = 300;
    options.image_width = 32;
    options.image_height = 32;
    const ImageDatabase db =
        DatabaseSynthesizer::Synthesize(catalog, options).value();

    RfsBuildOptions build;
    build.tree.max_entries = 40;
    build.tree.min_entries = 16;
    const RfsTree rfs = RfsBuilder::Build(db.feature_store(), build).value();
    const std::string blob = RfsSerializer::Serialize(rfs);

    db_path_ = new std::string(::testing::TempDir() + "serve_test.qdb");
    ASSERT_TRUE(DatabaseIo::SaveDatabase(db, *db_path_, &blob).ok());
  }
  static void TearDownTestSuite() {
    delete db_path_;
    db_path_ = nullptr;
  }

  static std::string* db_path_;
};

std::string* ServeAppTest::db_path_ = nullptr;

TEST_F(ServeAppTest, MissingSnapshotReachesFailedAndReadyzAnswers503) {
  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = ::testing::TempDir() + "does_not_exist.qdb";
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  EXPECT_FALSE(app.WaitUntilReady(10000));
  EXPECT_EQ(app.readiness(), Readiness::kFailed);
  EXPECT_FALSE(app.load_error().empty());
  const std::string readyz = Get(app.port(), "/readyz");
  EXPECT_NE(readyz.find("503"), std::string::npos);
  EXPECT_NE(readyz.find("failed"), std::string::npos);
  // Query endpoints refuse with 503 too instead of touching the absent db.
  EXPECT_NE(Post(app.port(), "/api/query", "{}").find("503"),
            std::string::npos);
  // So does the index introspection walk: no tree, no answer.
  EXPECT_NE(Get(app.port(), "/indexz").find("503"), std::string::npos);
  app.Stop();
}

TEST_F(ServeAppTest, RfsFromAnotherCorpusFailsTheLoad) {
  // Same size, different seed: the RFS would index features the snapshot
  // does not hold. The load must refuse the pair rather than serve it.
  CatalogOptions catalog_options;
  catalog_options.num_categories = 12;
  SynthesizerOptions options;
  options.total_images = 300;
  options.image_width = 32;
  options.image_height = 32;
  options.seed = 99;
  const ImageDatabase other = DatabaseSynthesizer::Synthesize(
      Catalog::Build(catalog_options).value(), options).value();
  RfsBuildOptions build;
  build.tree.max_entries = 40;
  build.tree.min_entries = 16;
  const std::string rfs_path = ::testing::TempDir() + "serve_test_other.rfs";
  ASSERT_TRUE(RfsSerializer::SaveToFile(
                  RfsBuilder::Build(other.feature_store(), build).value(), rfs_path)
                  .ok());

  ThreadPool pool(2);
  ServeOptions serve_options;
  serve_options.db_path = *db_path_;
  serve_options.rfs_path = rfs_path;
  serve_options.pool = &pool;
  ServeApp app(std::move(serve_options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  EXPECT_FALSE(app.WaitUntilReady(30000));
  EXPECT_EQ(app.readiness(), Readiness::kFailed);
  EXPECT_NE(app.load_error().find("Corrupt"), std::string::npos)
      << app.load_error();
  EXPECT_NE(app.load_error().find("RFS features disagree with snapshot"),
            std::string::npos)
      << app.load_error();
  const std::string readyz = Get(app.port(), "/readyz");
  EXPECT_NE(readyz.find("503"), std::string::npos);
  EXPECT_NE(readyz.find("failed: "), std::string::npos) << readyz;
  app.Stop();
  std::remove(rfs_path.c_str());
}

TEST_F(ServeAppTest, FullFeedbackSessionOverHttp) {
  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();
  ASSERT_GT(app.port(), 0);

  EXPECT_NE(Get(app.port(), "/healthz").find("200 OK"), std::string::npos);
  EXPECT_NE(Get(app.port(), "/readyz").find("serving"), std::string::npos);

  // Open a session.
  const std::string query_body = BodyOf(Post(
      app.port(), "/api/query", "{\"seed\":42,\"label\":\"serve-test\"}"));
  StatusOr<JsonValue> query = ParseJson(query_body);
  ASSERT_TRUE(query.ok()) << query_body;
  const std::uint64_t session_id = query->U64Field("session", 0);
  ASSERT_GT(session_id, 0u);
  const JsonValue* display = query->Find("display");
  ASSERT_NE(display, nullptr);
  ASSERT_TRUE(display->is_array());
  ASSERT_FALSE(display->items.empty());

  // Mark the first two images of every display group relevant.
  std::string relevant = "[";
  bool first = true;
  for (const JsonValue& group : display->items) {
    const JsonValue* images = group.Find("images");
    ASSERT_NE(images, nullptr);
    for (std::size_t i = 0; i < images->items.size() && i < 2; ++i) {
      if (!first) relevant.push_back(',');
      first = false;
      relevant += std::to_string(
          static_cast<std::uint64_t>(images->items[i].number));
    }
  }
  relevant.push_back(']');

  // One feedback round returns the next display.
  const std::string round_body = BodyOf(Post(
      app.port(), "/api/feedback",
      "{\"session\":" + std::to_string(session_id) +
          ",\"relevant\":" + relevant + "}"));
  StatusOr<JsonValue> round = ParseJson(round_body);
  ASSERT_TRUE(round.ok()) << round_body;
  EXPECT_EQ(round->U64Field("round", 0), 1u);
  ASSERT_NE(round->Find("display"), nullptr);

  // Second round finalizes into ranked result groups.
  const std::string final_body = BodyOf(Post(
      app.port(), "/api/feedback",
      "{\"session\":" + std::to_string(session_id) +
          ",\"relevant\":" + relevant + ",\"finalize\":25}"));
  StatusOr<JsonValue> final_round = ParseJson(final_body);
  ASSERT_TRUE(final_round.ok()) << final_body;
  const JsonValue* results = final_round->Find("results");
  ASSERT_NE(results, nullptr);
  EXPECT_FALSE(results->items.empty());
  const JsonValue* stats = final_round->Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->U64Field("subqueries", 0), 0u);

  // The finalized session reaches the /queryz audit ring, carrying the
  // per-session resource accounting gathered across the pool workers.
  const std::string queryz_body = BodyOf(Get(app.port(), "/queryz"));
  EXPECT_NE(queryz_body.find("serve-test"), std::string::npos);
  {
    StatusOr<JsonValue> queryz = ParseJson(queryz_body);
    ASSERT_TRUE(queryz.ok()) << queryz_body;
    const JsonValue* records = queryz->Find("records");
    ASSERT_NE(records, nullptr);
    const JsonValue* ours = nullptr;
    for (const JsonValue& record : records->items) {
      const JsonValue* label = record.Find("label");
      if (label != nullptr && label->string == "serve-test") ours = &record;
    }
    ASSERT_NE(ours, nullptr) << queryz_body;
    // Three engine calls (Start + 2×Feedback/Finalize) must have scanned
    // features and descended the tree.
    EXPECT_GT(ours->U64Field("distance_evals", 0), 0u);
    EXPECT_GT(ours->U64Field("feature_bytes", 0), 0u);
    EXPECT_GT(ours->U64Field("leaves_visited", 0), 0u);
  }
  // ...the session is gone, so further feedback answers 404...
  EXPECT_NE(Post(app.port(), "/api/feedback",
                 "{\"session\":" + std::to_string(session_id) + "}")
                .find("404"),
            std::string::npos);
  // ...and /metrics renders a valid exposition that saw our requests.
  const std::string metrics = BodyOf(Get(app.port(), "/metrics"));
  std::string prom_error;
  std::map<std::string, double> samples;
  ASSERT_TRUE(obs::ValidatePrometheusText(metrics, &prom_error, &samples))
      << prom_error;
  EXPECT_GE(samples["qdcbir_serve_http_requests"], 5.0);
  // The serve.session.* resource family recorded the finalized session.
  EXPECT_GE(samples["qdcbir_serve_session_distance_evals_count"], 1.0);
  EXPECT_GE(samples["qdcbir_serve_session_feature_bytes_count"], 1.0);
#if defined(__linux__)
  // The standard process_* block is appended after the registry families.
  EXPECT_GT(samples["process_cpu_seconds_total"], 0.0);
  EXPECT_GT(samples["process_resident_memory_bytes"], 0.0);
#endif
  EXPECT_NE(BodyOf(Get(app.port(), "/varz")).find("\"counters\""),
            std::string::npos);

  // /statusz is a human landing page linking every admin surface.
  const std::string statusz = Get(app.port(), "/statusz");
  EXPECT_NE(statusz.find("200 OK"), std::string::npos);
  EXPECT_NE(statusz.find("serving"), std::string::npos);
  EXPECT_NE(statusz.find("/profilez"), std::string::npos);
  EXPECT_NE(statusz.find("/queryz"), std::string::npos);
  EXPECT_NE(statusz.find("uptime_seconds"), std::string::npos);

  app.Stop();
}

TEST_F(ServeAppTest, ProfilezCapturesAndValidatesFormats) {
  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  const std::string bad = Get(app.port(), "/profilez?format=xml");
  EXPECT_NE(bad.find("400"), std::string::npos);

#if defined(__linux__)
  const std::string response =
      Get(app.port(), "/profilez?seconds=0.05&hz=199&format=json");
  ASSERT_NE(response.find("200 OK"), std::string::npos) << response;
  StatusOr<JsonValue> profile = ParseJson(BodyOf(response));
  ASSERT_TRUE(profile.ok()) << BodyOf(response);
  EXPECT_EQ(profile->U64Field("hz", 0), 199u);
  EXPECT_NE(profile->Find("spans"), nullptr);
  EXPECT_NE(profile->Find("stacks"), nullptr);
  // The window owned its capture, so the profiler is disarmed again and a
  // second (collapsed) window succeeds.
  const std::string collapsed = Get(app.port(), "/profilez?seconds=0.05");
  EXPECT_NE(collapsed.find("200 OK"), std::string::npos);
#endif

  app.Stop();
}

TEST_F(ServeAppTest, AdminParametersRejectNonFiniteAndClampHugeValues) {
  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  // NaN, infinities and garbage answer 400 before any cast.
  for (const char* path :
       {"/profilez?seconds=nan&format=json", "/profilez?seconds=inf",
        "/profilez?hz=-inf", "/profilez?hz=fast"}) {
    const std::string response = Get(app.port(), path);
    EXPECT_NE(response.find("400"), std::string::npos) << path;
    EXPECT_TRUE(ParseJson(BodyOf(response)).ok()) << path;
  }

#if defined(__linux__)
  // A huge rate is clamped to the profiler's 2000 Hz ceiling.
  const std::string response =
      Get(app.port(), "/profilez?seconds=0.05&hz=1e300&format=json");
  ASSERT_NE(response.find("200 OK"), std::string::npos) << response;
  StatusOr<JsonValue> profile = ParseJson(BodyOf(response));
  ASSERT_TRUE(profile.ok()) << BodyOf(response);
  EXPECT_EQ(profile->U64Field("hz", 0), 2000u);
#endif
  app.Stop();
}

TEST_F(ServeAppTest, ApiRejectsMalformedRequests) {
  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  EXPECT_NE(Get(app.port(), "/api/query").find("405"), std::string::npos);
  EXPECT_NE(Post(app.port(), "/api/feedback", "not json").find("400"),
            std::string::npos);
  EXPECT_NE(Post(app.port(), "/api/feedback", "{}").find("400"),
            std::string::npos);
  EXPECT_NE(Post(app.port(), "/api/feedback", "{\"session\":9999}")
                .find("404"),
            std::string::npos);
  EXPECT_NE(
      Post(app.port(), "/api/query", "{\"seed\":1,").find("400"),
      std::string::npos);
  app.Stop();
}

TEST_F(ServeAppTest, ApiRejectsNumbersOutsideTheirRange) {
  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  const auto status_of = [&](const std::string& path,
                             const std::string& body) {
    const std::string response = Post(app.port(), path, body);
    return response.substr(0, response.find("\r\n"));
  };
  const std::string open_body =
      BodyOf(Post(app.port(), "/api/query", "{\"seed\":11}"));
  StatusOr<JsonValue> open = ParseJson(open_body);
  ASSERT_TRUE(open.ok()) << open_body;
  const std::string session =
      "{\"session\":" + std::to_string(open->U64Field("session", 0));

  // Too large to cast, fractional, negative: every field answers 400 and
  // leaves the session usable.
  for (const std::string bad : {"1e300", "3.7", "-1"}) {
    SCOPED_TRACE(bad);
    EXPECT_NE(status_of("/api/query", "{\"display_size\":" + bad + "}")
                  .find("400"),
              std::string::npos);
    EXPECT_NE(status_of("/api/query", "{\"seed\":" + bad + "}").find("400"),
              std::string::npos);
    EXPECT_NE(status_of("/api/feedback", "{\"session\":" + bad + "}")
                  .find("400"),
              std::string::npos);
    EXPECT_NE(status_of("/api/feedback",
                        session + ",\"relevant\":[" + bad + "]}")
                  .find("400"),
              std::string::npos);
    EXPECT_NE(status_of("/api/feedback",
                        session + ",\"relevant\":[],\"finalize\":" + bad +
                            "}")
                  .find("400"),
              std::string::npos);
  }
  // 2^32 is past every image id, but a fine count, seed or session id.
  const std::string two_32 = "4294967296";
  EXPECT_NE(status_of("/api/feedback", session + ",\"relevant\":[" + two_32 +
                                           "]}")
                .find("400"),
            std::string::npos);
  EXPECT_NE(status_of("/api/feedback", session + ",\"relevant\":[4294967295]}")
                .find("400"),
            std::string::npos);
  EXPECT_NE(status_of("/api/query", "{\"display_size\":" + two_32 + "}")
                .find("200"),
            std::string::npos);
  EXPECT_NE(status_of("/api/query", "{\"seed\":" + two_32 + "}").find("200"),
            std::string::npos);
  EXPECT_NE(status_of("/api/feedback", "{\"session\":" + two_32 + "}")
                .find("404"),
            std::string::npos);
  // Seeds end at 2^53, the last integer every double in range still holds.
  EXPECT_NE(status_of("/api/query", "{\"seed\":9007199254740992}").find("200"),
            std::string::npos);
  EXPECT_NE(status_of("/api/query", "{\"seed\":9007199254740994}").find("400"),
            std::string::npos);

  // None of the rejected requests ran a round of the open session.
  StatusOr<JsonValue> round =
      ParseJson(BodyOf(Post(app.port(), "/api/feedback", session + "}")));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->U64Field("round", 0), 1u);
  app.Stop();
}

TEST_F(ServeAppTest, SameSeedYieldsIdenticalFirstDisplay) {
  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  const std::string a = BodyOf(Post(app.port(), "/api/query",
                                    "{\"seed\":7}"));
  const std::string b = BodyOf(Post(app.port(), "/api/query",
                                    "{\"seed\":7}"));
  const std::size_t display_a = a.find("\"display\"");
  const std::size_t display_b = b.find("\"display\"");
  ASSERT_NE(display_a, std::string::npos);
  ASSERT_NE(display_b, std::string::npos);
  // Session ids differ; everything from the display on is seed-driven and
  // must be byte-identical.
  EXPECT_EQ(a.substr(display_a), b.substr(display_b));
  app.Stop();
}

TEST_F(ServeAppTest, TraceparentSessionRoundTripsThroughEveryObsSurface) {
  obs::TraceStore::Global().Clear();
  obs::LogRing::Global().Clear();

  // One query-pool lane: subqueries run sequentially, so every span's self
  // time is disjoint and the tree's self times must sum to no more than the
  // session's wall time. (Cross-thread parentage is covered by the thread
  // pool's own trace test.)
  ThreadPool pool(1);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  options.trace_sample_every = 1;  // head-sample every session
  options.slow_trace_ms = -1.0;    // slow trigger off: sampling must suffice
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  const std::string trace_id = "4bf92f3577b34da6a3ce929d0e0e4736";
  const std::string traceparent =
      "traceparent: 00-" + trace_id + "-00f067aa0ba902b7-01\r\n";

  // The response echoes the client's trace id as a header and JSON field.
  const std::string query_response = Post(
      app.port(), "/api/query", "{\"seed\":11,\"label\":\"trace-test\"}",
      traceparent);
  EXPECT_NE(HeaderValue(query_response, "traceparent").find(trace_id),
            std::string::npos)
      << query_response;
  StatusOr<JsonValue> query = ParseJson(BodyOf(query_response));
  ASSERT_TRUE(query.ok()) << BodyOf(query_response);
  const JsonValue* trace_field = query->Find("trace");
  ASSERT_NE(trace_field, nullptr);
  EXPECT_EQ(trace_field->string, trace_id);
  const std::uint64_t session_id = query->U64Field("session", 0);
  ASSERT_GT(session_id, 0u);

  // Drive one feedback round and finalize; responses keep echoing the id.
  const JsonValue* display = query->Find("display");
  ASSERT_NE(display, nullptr);
  ASSERT_FALSE(display->items.empty());
  const JsonValue* images = display->items[0].Find("images");
  ASSERT_NE(images, nullptr);
  ASSERT_FALSE(images->items.empty());
  const std::string relevant =
      "[" +
      std::to_string(static_cast<std::uint64_t>(images->items[0].number)) +
      "]";
  const std::string round_response =
      Post(app.port(), "/api/feedback",
           "{\"session\":" + std::to_string(session_id) +
               ",\"relevant\":" + relevant + "}");
  EXPECT_NE(HeaderValue(round_response, "traceparent").find(trace_id),
            std::string::npos);
  const std::string final_response =
      Post(app.port(), "/api/feedback",
           "{\"session\":" + std::to_string(session_id) +
               ",\"relevant\":" + relevant + ",\"finalize\":20}");
  StatusOr<JsonValue> final_round = ParseJson(BodyOf(final_response));
  ASSERT_TRUE(final_round.ok()) << BodyOf(final_response);
  ASSERT_NE(final_round->Find("results"), nullptr);
  EXPECT_EQ(final_round->Find("trace")->string, trace_id);

  // /queryz: the audit record carries the trace id.
  EXPECT_NE(BodyOf(Get(app.port(), "/queryz"))
                .find("\"trace\":\"" + trace_id + "\""),
            std::string::npos);

  // /tracez: the session was head-sampled and published.
  const std::string tracez = BodyOf(Get(app.port(), "/tracez"));
  StatusOr<JsonValue> tracez_json = ParseJson(tracez);
  ASSERT_TRUE(tracez_json.ok()) << tracez;
  const JsonValue* entry = FindTrace(*tracez_json, trace_id);
  ASSERT_NE(entry, nullptr) << tracez;
  EXPECT_EQ(entry->Find("reason")->string, "sampled");

#ifndef QDCBIR_DISABLE_OBS
  const std::uint64_t total_ns = entry->U64Field("total_ns", 0);
  // The tree holds the session's phases: descent (feedback rounds),
  // finalize, and at least one per-leaf subquery span with leaf
  // attribution. Self times are consistent and sum within the wall time.
  std::vector<FlatSpan> spans;
  const JsonValue* roots = entry->Find("spans");
  ASSERT_NE(roots, nullptr);
  for (const JsonValue& root : roots->items) CollectSpans(root, &spans);
  std::size_t descents = 0, finalizes = 0, subqueries = 0,
              attributed_subqueries = 0;
  std::uint64_t self_sum = 0;
  for (const FlatSpan& span : spans) {
    EXPECT_LE(span.self_ns, span.duration_ns) << span.name;
    self_sum += span.self_ns;
    if (span.name == "qd.round.descent") ++descents;
    if (span.name == "qd.finalize") ++finalizes;
    if (span.name == "qd.finalize.subquery") {
      ++subqueries;
      if (span.has_leaf_annotation) ++attributed_subqueries;
    }
  }
  EXPECT_GE(descents, 1u);
  EXPECT_GE(finalizes, 1u);
  EXPECT_GE(subqueries, 1u);
  EXPECT_EQ(attributed_subqueries, subqueries);
  EXPECT_LE(self_sum, total_ns);
#endif

  // /metrics: the session-latency histogram carries a matching exemplar.
  const std::string metrics = BodyOf(Get(app.port(), "/metrics"));
  std::string prom_error;
  std::map<std::string, double> samples;
  std::vector<std::string> exemplar_ids;
  ASSERT_TRUE(obs::ValidatePrometheusText(metrics, &prom_error, &samples,
                                          &exemplar_ids))
      << prom_error;
  EXPECT_GE(samples["qdcbir_serve_session_latency_ns_count"], 1.0);
  bool found_exemplar = false;
  for (const std::string& id : exemplar_ids) {
    if (id == trace_id) found_exemplar = true;
  }
  EXPECT_TRUE(found_exemplar) << metrics;

  // /logz: the finalize log line is stamped with the trace id.
  EXPECT_NE(BodyOf(Get(app.port(), "/logz"))
                .find("\"trace\":\"" + trace_id + "\""),
            std::string::npos);

  // /varz: the spliced build object precedes the registry sections.
  const std::string varz = BodyOf(Get(app.port(), "/varz"));
  EXPECT_NE(varz.find("\"build\":{\"git\":"), std::string::npos);
  EXPECT_NE(varz.find("\"counters\""), std::string::npos);

  app.Stop();
}

TEST_F(ServeAppTest, SlowTriggerKeepsTraceWithHeadSamplingOff) {
  obs::TraceStore::Global().Clear();

  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  options.trace_sample_every = 0;  // head sampling off
  options.slow_trace_ms = 0.0;     // threshold 0: every session is "slow"
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  // No client traceparent: the server must mint an id of its own.
  StatusOr<JsonValue> query =
      ParseJson(BodyOf(Post(app.port(), "/api/query", "{\"seed\":3}")));
  ASSERT_TRUE(query.ok());
  const JsonValue* trace_field = query->Find("trace");
  ASSERT_NE(trace_field, nullptr);
  const std::string trace_id = trace_field->string;
  ASSERT_EQ(trace_id.size(), 32u);
  const std::uint64_t session_id = query->U64Field("session", 0);

  const JsonValue* images = query->Find("display")->items[0].Find("images");
  ASSERT_FALSE(images->items.empty());
  const std::string body =
      "{\"session\":" + std::to_string(session_id) + ",\"relevant\":[" +
      std::to_string(static_cast<std::uint64_t>(images->items[0].number)) +
      "],\"finalize\":10}";
  ASSERT_NE(Post(app.port(), "/api/feedback", body).find("200 OK"),
            std::string::npos);

  // The retroactive trigger retained the full tree as "slow".
  StatusOr<JsonValue> tracez = ParseJson(BodyOf(Get(app.port(), "/tracez")));
  ASSERT_TRUE(tracez.ok());
  const JsonValue* entry = FindTrace(*tracez, trace_id);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->Find("reason")->string, "slow");
#ifndef QDCBIR_DISABLE_OBS
  EXPECT_GT(entry->U64Field("span_count", 0), 0u);
#endif
  app.Stop();
}

TEST_F(ServeAppTest, TracingDisabledDropsTreesButKeepsTraceIds) {
  obs::TraceStore::Global().Clear();

  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  options.trace_sample_every = 0;  // both retention mechanisms off
  options.slow_trace_ms = -1.0;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  StatusOr<JsonValue> query =
      ParseJson(BodyOf(Post(app.port(), "/api/query", "{\"seed\":5}")));
  ASSERT_TRUE(query.ok());
  // Responses still carry a trace id for correlation...
  ASSERT_NE(query->Find("trace"), nullptr);
  const std::uint64_t session_id = query->U64Field("session", 0);
  const JsonValue* images = query->Find("display")->items[0].Find("images");
  ASSERT_FALSE(images->items.empty());
  const std::string body =
      "{\"session\":" + std::to_string(session_id) + ",\"relevant\":[" +
      std::to_string(static_cast<std::uint64_t>(images->items[0].number)) +
      "],\"finalize\":10}";
  ASSERT_NE(Post(app.port(), "/api/feedback", body).find("200 OK"),
            std::string::npos);
  // ...but nothing is published to /tracez.
  StatusOr<JsonValue> tracez = ParseJson(BodyOf(Get(app.port(), "/tracez")));
  ASSERT_TRUE(tracez.ok());
  EXPECT_EQ(FindTrace(*tracez, query->Find("trace")->string), nullptr);
  app.Stop();
}

std::map<std::string, double> ScrapeMetrics(int port) {
  std::map<std::string, double> samples;
  std::string prom_error;
  EXPECT_TRUE(obs::ValidatePrometheusText(BodyOf(Get(port, "/metrics")),
                                          &prom_error, &samples))
      << prom_error;
  return samples;
}

/// Drives the scripted session (seed 42, first-two-of-each-group feedback,
/// finalize 25) and returns the finalize response body.
std::string RunScriptedHttpSession(int port, const std::string& label) {
  const std::string query_body = BodyOf(Post(
      port, "/api/query", "{\"seed\":42,\"label\":\"" + label + "\"}"));
  StatusOr<JsonValue> query = ParseJson(query_body);
  EXPECT_TRUE(query.ok()) << query_body;
  if (!query.ok()) return "";
  const std::uint64_t session_id = query->U64Field("session", 0);
  const JsonValue* display = query->Find("display");
  EXPECT_NE(display, nullptr);
  std::string relevant = "[";
  bool first = true;
  for (const JsonValue& group : display->items) {
    const JsonValue* images = group.Find("images");
    if (images == nullptr) continue;
    for (std::size_t i = 0; i < images->items.size() && i < 2; ++i) {
      if (!first) relevant.push_back(',');
      first = false;
      relevant += std::to_string(
          static_cast<std::uint64_t>(images->items[i].number));
    }
  }
  relevant.push_back(']');
  return BodyOf(Post(port, "/api/feedback",
                     "{\"session\":" + std::to_string(session_id) +
                         ",\"relevant\":" + relevant + ",\"finalize\":25}"));
}

/// The deterministic part of a finalize body: results + groups + stats,
/// excluding the session id, trace id and wall-clock timings around it.
std::string ResultsSlice(const std::string& final_body) {
  const std::size_t begin = final_body.find("\"results\"");
  const std::size_t end = final_body.find(",\"rounds_ns\"");
  EXPECT_NE(begin, std::string::npos) << final_body;
  EXPECT_NE(end, std::string::npos) << final_body;
  if (begin == std::string::npos || end == std::string::npos) return "";
  return final_body.substr(begin, end - begin);
}

/// The /queryz record with the given label, or nullptr.
const JsonValue* FindAuditRecord(const JsonValue& queryz,
                                 const std::string& label) {
  const JsonValue* records = queryz.Find("records");
  if (records == nullptr) return nullptr;
  for (const JsonValue& record : records->items) {
    const JsonValue* field = record.Find("label");
    if (field != nullptr && field->string == label) return &record;
  }
  return nullptr;
}

TEST_F(ServeAppTest, RepeatedIdenticalQueriesServeFromCache) {
  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;  // cache_mb stays at its default: cache on
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  const std::map<std::string, double> before = ScrapeMetrics(app.port());
  const std::string cold = RunScriptedHttpSession(app.port(), "cache-cold");
  const std::string warm = RunScriptedHttpSession(app.port(), "cache-warm");

  // Cache on, cache cold, cache warm: byte-identical ranked output.
  ASSERT_FALSE(cold.empty());
  EXPECT_EQ(ResultsSlice(cold), ResultsSlice(warm));

  // The warm replay's subqueries hit the leaf-scan cache, and /metrics
  // says so.
  std::map<std::string, double> after = ScrapeMetrics(app.port());
  const auto delta = [&](const char* name) {
    const auto it = before.find(name);
    return after[name] - (it == before.end() ? 0.0 : it->second);
  };
  EXPECT_GE(delta("qdcbir_cache_hit"), 1.0);
  EXPECT_GE(delta("qdcbir_cache_miss"), 1.0);
  EXPECT_GE(delta("qdcbir_cache_leaf_scan_hit"), 1.0);
  EXPECT_GE(delta("qdcbir_cache_insertions"), 1.0);
  EXPECT_GT(after["qdcbir_cache_bytes"], 0.0);

  // /queryz attributes the hits to the warm session's audit record.
  StatusOr<JsonValue> queryz = ParseJson(BodyOf(Get(app.port(), "/queryz")));
  ASSERT_TRUE(queryz.ok());
  const JsonValue* warm_record = FindAuditRecord(*queryz, "cache-warm");
  ASSERT_NE(warm_record, nullptr);
  EXPECT_GT(warm_record->U64Field("cache_hits", 0), 0u);
  const JsonValue* cold_record = FindAuditRecord(*queryz, "cache-cold");
  ASSERT_NE(cold_record, nullptr);
  EXPECT_GT(cold_record->U64Field("cache_misses", 0), 0u);

  // /statusz surfaces the cache row for humans.
  EXPECT_NE(Get(app.port(), "/statusz").find("cache"), std::string::npos);
  app.Stop();
}

TEST_F(ServeAppTest, CacheDisabledStillServesIdenticalResults) {
  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  options.cache_mb = 0;  // cache off
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  const std::string a = RunScriptedHttpSession(app.port(), "nocache-a");
  const std::string b = RunScriptedHttpSession(app.port(), "nocache-b");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(ResultsSlice(a), ResultsSlice(b));

  StatusOr<JsonValue> queryz = ParseJson(BodyOf(Get(app.port(), "/queryz")));
  ASSERT_TRUE(queryz.ok());
  const JsonValue* record = FindAuditRecord(*queryz, "nocache-b");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->U64Field("cache_hits", 0), 0u);
  EXPECT_EQ(record->U64Field("cache_misses", 0), 0u);
  app.Stop();
}

TEST_F(ServeAppTest, ApiRepRendersRepresentativeAndCachesIt) {
  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  EXPECT_NE(Post(app.port(), "/api/rep", "").find("405"), std::string::npos);
  EXPECT_NE(Get(app.port(), "/api/rep").find("400"), std::string::npos);
  EXPECT_NE(Get(app.port(), "/api/rep?id=nope").find("400"),
            std::string::npos);
  EXPECT_NE(Get(app.port(), "/api/rep?id=999999").find("404"),
            std::string::npos);

  const std::map<std::string, double> before = ScrapeMetrics(app.port());
  const std::string first = Get(app.port(), "/api/rep?id=3");
  ASSERT_NE(first.find("200 OK"), std::string::npos);
  EXPECT_EQ(HeaderValue(first, "Content-Type"), "image/x-portable-pixmap");
  const std::string body = BodyOf(first);
  ASSERT_GE(body.size(), 2u);
  EXPECT_EQ(body.substr(0, 2), "P6");  // binary PPM magic

  // The second fetch is served from the representatives cache, byte-equal.
  const std::string second = Get(app.port(), "/api/rep?id=3");
  EXPECT_EQ(BodyOf(second), body);
  std::map<std::string, double> after = ScrapeMetrics(app.port());
  const auto it = before.find("qdcbir_cache_representatives_hit");
  EXPECT_GE(after["qdcbir_cache_representatives_hit"] -
                (it == before.end() ? 0.0 : it->second),
            1.0);
  app.Stop();
}

TEST_F(ServeAppTest, ReloadFlushesCacheAndRefusesWhileSessionsOpen) {
  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  // Warm the cache with a cold + hit pair.
  const std::string baseline =
      RunScriptedHttpSession(app.port(), "reload-warmup");
  ASSERT_FALSE(baseline.empty());
  RunScriptedHttpSession(app.port(), "reload-warm");

  EXPECT_NE(Get(app.port(), "/api/reload").find("405"), std::string::npos);

  // An open session pins the corpus: reload must refuse.
  StatusOr<JsonValue> open = ParseJson(
      BodyOf(Post(app.port(), "/api/query", "{\"seed\":9}")));
  ASSERT_TRUE(open.ok());
  const std::uint64_t open_id = open->U64Field("session", 0);
  const std::string refused = Post(app.port(), "/api/reload", "");
  EXPECT_NE(refused.find("409"), std::string::npos);
  EXPECT_NE(refused.find("sessions open"), std::string::npos);

  // Draining the session (finalize closes it) unblocks the reload.
  const JsonValue* images = open->Find("display")->items[0].Find("images");
  ASSERT_FALSE(images->items.empty());
  ASSERT_NE(
      Post(app.port(), "/api/feedback",
           "{\"session\":" + std::to_string(open_id) + ",\"relevant\":[" +
               std::to_string(
                   static_cast<std::uint64_t>(images->items[0].number)) +
               "],\"finalize\":10}")
          .find("200 OK"),
      std::string::npos);

  const std::map<std::string, double> before = ScrapeMetrics(app.port());
  const std::string accepted = Post(app.port(), "/api/reload", "");
  EXPECT_NE(accepted.find("202"), std::string::npos);
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  // The reload flushed the cache: the identical replay misses the
  // leaf-scan cache (no new hit) yet still returns byte-identical results.
  const std::string after_reload =
      RunScriptedHttpSession(app.port(), "reload-after");
  EXPECT_EQ(ResultsSlice(baseline), ResultsSlice(after_reload));
  std::map<std::string, double> after = ScrapeMetrics(app.port());
  const auto delta = [&](const char* name) {
    const auto it = before.find(name);
    return after[name] - (it == before.end() ? 0.0 : it->second);
  };
  EXPECT_GE(delta("qdcbir_cache_invalidation_flushes"), 1.0);
  EXPECT_GE(delta("qdcbir_cache_leaf_scan_miss"), 1.0);
  EXPECT_EQ(delta("qdcbir_cache_leaf_scan_hit"), 0.0);

  StatusOr<JsonValue> queryz = ParseJson(BodyOf(Get(app.port(), "/queryz")));
  ASSERT_TRUE(queryz.ok());
  const JsonValue* record = FindAuditRecord(*queryz, "reload-warm");
  ASSERT_NE(record, nullptr);
  EXPECT_GT(record->U64Field("cache_hits", 0), 0u);
  app.Stop();
}

TEST_F(ServeAppTest, EveryAdminRouteDeclaresItsContentType) {
  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  // An open session keeps /api/reload at 409 (a JSON error) instead of
  // kicking off a real reload mid-walk.
  const std::string query_body =
      BodyOf(Post(app.port(), "/api/query", "{\"seed\":7}"));
  ASSERT_TRUE(ParseJson(query_body).ok()) << query_body;

  const std::string json = "application/json; charset=utf-8";
  const std::string plain = "text/plain; charset=utf-8";
  // path -> {query/body suffix or "", POST body or nullopt, expected type}
  struct RouteProbe {
    std::string request_path;
    bool post = false;
    std::string expected_type;
  };
  const std::map<std::string, RouteProbe> probes = {
      {"/healthz", {"/healthz", false, plain}},
      {"/readyz", {"/readyz", false, plain}},
      {"/statusz", {"/statusz", false, "text/html; charset=utf-8"}},
      {"/varz", {"/varz", false, json}},
      {"/metrics",
       {"/metrics", false, "text/plain; version=0.0.4; charset=utf-8"}},
      {"/queryz", {"/queryz", false, json}},
      {"/indexz", {"/indexz", false, json}},
      {"/tracez", {"/tracez", false, json}},
      {"/logz", {"/logz", false, json}},
      {"/profilez", {"/profilez?seconds=0.05&hz=20", false, plain}},
      {"/api/query", {"/api/query", true, json}},
      {"/api/feedback", {"/api/feedback", true, json}},
      {"/api/rep", {"/api/rep", false, json}},  // no id: JSON error
      {"/api/reload", {"/api/reload", true, json}},
  };

  const std::vector<std::string> routes = app.HandledPaths();
  EXPECT_GE(routes.size(), probes.size());
  for (const std::string& route : routes) {
    const auto it = probes.find(route);
    ASSERT_NE(it, probes.end())
        << "route " << route << " has no Content-Type expectation; add one";
    const RouteProbe& probe = it->second;
    const std::string response =
        probe.post ? Post(app.port(), probe.request_path, "{}")
                   : Get(app.port(), probe.request_path);
    EXPECT_EQ(HeaderValue(response, "Content-Type"), probe.expected_type)
        << route;
  }
  app.Stop();
}

TEST_F(ServeAppTest, QueryzAndLogzHonorCountLimit) {
  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  RunScriptedHttpSession(app.port(), "limit-a");
  RunScriptedHttpSession(app.port(), "limit-b");

  // ?n=1 keeps only the newest record.
  StatusOr<JsonValue> queryz =
      ParseJson(BodyOf(Get(app.port(), "/queryz?n=1")));
  ASSERT_TRUE(queryz.ok());
  const JsonValue* records = queryz->Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->items.size(), 1u);
  const JsonValue* label = records->items[0].Find("label");
  ASSERT_NE(label, nullptr);
  EXPECT_EQ(label->string, "limit-b");

  // The default (no ?n=) still returns both.
  queryz = ParseJson(BodyOf(Get(app.port(), "/queryz")));
  ASSERT_TRUE(queryz.ok());
  EXPECT_NE(FindAuditRecord(*queryz, "limit-a"), nullptr);

  StatusOr<JsonValue> logz = ParseJson(BodyOf(Get(app.port(), "/logz?n=1")));
  ASSERT_TRUE(logz.ok());
  const JsonValue* entries = logz->Find("entries");
  ASSERT_NE(entries, nullptr);
  EXPECT_LE(entries->items.size(), 1u);

  // Malformed and non-positive limits answer 400, not a silent default.
  for (const char* bad :
       {"/queryz?n=abc", "/queryz?n=0", "/queryz?n=-1", "/logz?n=1x",
        "/logz?n=0"}) {
    const std::string response = Get(app.port(), bad);
    EXPECT_NE(response.find("400"), std::string::npos) << bad;
  }
  app.Stop();
}

TEST_F(ServeAppTest, WideEventsJoinSessionOutcome) {
  const std::string events_path =
      ::testing::TempDir() + "serve_wide_events.jsonl";
  std::remove(events_path.c_str());

  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  options.wide_events_path = events_path;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  RunScriptedHttpSession(app.port(), "wide-final");

  // The finalized session's audit record already carries the outcome the
  // wide event joins.
  StatusOr<JsonValue> queryz = ParseJson(BodyOf(Get(app.port(), "/queryz")));
  ASSERT_TRUE(queryz.ok());
  const JsonValue* record = FindAuditRecord(*queryz, "wide-final");
  ASSERT_NE(record, nullptr);
  const JsonValue* outcome = record->Find("outcome");
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(outcome->string, "finalized");

  // A second session left open is swept at Stop as abandoned.
  const std::string open_body = BodyOf(Post(
      app.port(), "/api/query", "{\"seed\":9,\"label\":\"wide-aband\"}"));
  ASSERT_TRUE(ParseJson(open_body).ok()) << open_body;
  app.Stop();

  std::ifstream in(events_path);
  ASSERT_TRUE(in.good()) << events_path;
  std::map<std::string, const JsonValue*> by_label;
  std::vector<JsonValue> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    StatusOr<JsonValue> parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    events.push_back(std::move(*parsed));
  }
  ASSERT_EQ(events.size(), 2u);
  for (const JsonValue& event : events) {
    const JsonValue* label = event.Find("label");
    ASSERT_NE(label, nullptr);
    by_label[label->string] = &event;
  }
  ASSERT_TRUE(by_label.count("wide-final"));
  ASSERT_TRUE(by_label.count("wide-aband"));

  const JsonValue& finalized = *by_label["wide-final"];
  EXPECT_EQ(finalized.Find("event")->string, "session");
  EXPECT_EQ(finalized.Find("outcome")->string, "finalized");
  EXPECT_EQ(finalized.Find("engine")->string, "qd");
  EXPECT_GE(finalized.U64Field("rounds", 0), 1u);
  EXPECT_GT(finalized.U64Field("results", 0), 0u);
  EXPECT_GT(finalized.U64Field("total_ns", 0), 0u);
  ASSERT_NE(finalized.Find("trace"), nullptr);
  EXPECT_EQ(finalized.Find("trace")->string.size(), 32u);
  // Events carry no SLO state; burn rates are computed from /metrics.
  for (const JsonValue& event : events) {
    for (const auto& [key, value] : event.fields) {
      EXPECT_NE(key.rfind("slo_", 0), 0u) << key;
    }
  }

  EXPECT_EQ(by_label["wide-aband"]->Find("outcome")->string, "abandoned");
}

/// The ids of every image in a `/api/query` or round display body.
std::vector<std::uint64_t> DisplayedIds(const JsonValue& body) {
  std::vector<std::uint64_t> ids;
  if (const JsonValue* display = body.Find("display")) {
    for (const JsonValue& group : display->items) {
      if (const JsonValue* images = group.Find("images")) {
        for (const JsonValue& image : images->items) {
          ids.push_back(static_cast<std::uint64_t>(image.number));
        }
      }
    }
  }
  return ids;
}

TEST_F(ServeAppTest, SessionOutcomesAddUpToSessionsOpened) {
  // bench_serve counts the sessions a server still holds as `qd.sessions`
  // minus the three `quality.sessions.*` outcome counters on /varz, so
  // every session must land in exactly one of them: a successful finalize
  // counts finalized (even after a failed round), a session left open
  // counts errored when a round failed and abandoned otherwise.
  const std::string events_path =
      ::testing::TempDir() + "serve_outcome_events.jsonl";
  std::remove(events_path.c_str());
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const auto count = [&registry](const char* name) {
    return registry.GetCounter(name).Value();
  };
  const std::uint64_t opened_before = count("qd.sessions");
  const std::uint64_t finalized_before = count("quality.sessions.finalized");
  const std::uint64_t abandoned_before = count("quality.sessions.abandoned");
  const std::uint64_t errored_before = count("quality.sessions.errored");

  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  options.wide_events_path = events_path;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();
  const int port = app.port();

  // Opens a session. `shown` is an image its display shows, `hidden` one
  // it does not: marking `hidden` relevant fails the round with 400.
  struct Opened {
    std::uint64_t session = 0;
    std::uint64_t shown = 0;
    std::uint64_t hidden = 0;
  };
  const auto open = [port](const std::string& label, std::uint64_t seed) {
    Opened opened;
    StatusOr<JsonValue> body = ParseJson(BodyOf(Post(
        port, "/api/query",
        "{\"seed\":" + std::to_string(seed) + ",\"label\":\"" + label +
            "\"}")));
    EXPECT_TRUE(body.ok()) << label;
    if (!body.ok()) return opened;
    const std::vector<std::uint64_t> shown = DisplayedIds(*body);
    EXPECT_FALSE(shown.empty()) << label;
    if (shown.empty()) return opened;
    opened.session = body->U64Field("session", 0);
    opened.shown = shown.front();
    while (std::find(shown.begin(), shown.end(), opened.hidden) !=
           shown.end()) {
      ++opened.hidden;
    }
    return opened;
  };
  // POSTs `/api/feedback` marking `pick`; returns the status line.
  const auto feedback = [port](std::uint64_t session, std::uint64_t pick,
                               const std::string& extra) {
    const std::string response =
        Post(port, "/api/feedback",
             "{\"session\":" + std::to_string(session) +
                 ",\"relevant\":[" + std::to_string(pick) + "]" + extra +
                 "}");
    return response.substr(0, response.find("\r\n"));
  };

  RunScriptedHttpSession(port, "outcome-final");

  const Opened errored = open("outcome-error", 11);
  EXPECT_EQ(feedback(errored.session, errored.hidden, ""),
            "HTTP/1.1 400 Bad Request");

  const Opened retried = open("outcome-retry", 12);
  EXPECT_EQ(feedback(retried.session, retried.hidden, ""),
            "HTTP/1.1 400 Bad Request");
  EXPECT_EQ(feedback(retried.session, retried.shown, ",\"finalize\":10"),
            "HTTP/1.1 200 OK");

  open("outcome-open", 13);
  app.Stop();

  EXPECT_EQ(count("qd.sessions") - opened_before, 4u);
  EXPECT_EQ(count("quality.sessions.finalized") - finalized_before, 2u);
  EXPECT_EQ(count("quality.sessions.abandoned") - abandoned_before, 1u);
  EXPECT_EQ(count("quality.sessions.errored") - errored_before, 1u);

  const std::map<std::string, std::string> expected = {
      {"outcome-final", "finalized"},
      {"outcome-error", "errored"},
      {"outcome-retry", "finalized"},
      {"outcome-open", "abandoned"}};
  // The /queryz document (the server is down, so rendered in process).
  StatusOr<JsonValue> queryz = ParseJson(obs::QueryLog::Global().RenderJson());
  ASSERT_TRUE(queryz.ok());
  std::map<std::string, std::string> event_outcomes;
  std::ifstream in(events_path);
  std::string line;
  while (std::getline(in, line)) {
    StatusOr<JsonValue> event = ParseJson(line);
    ASSERT_TRUE(event.ok()) << line;
    event_outcomes[event->Find("label")->string] =
        event->Find("outcome")->string;
  }
  EXPECT_EQ(event_outcomes, expected);
  for (const auto& [label, outcome] : expected) {
    const JsonValue* record = FindAuditRecord(*queryz, label);
    ASSERT_NE(record, nullptr) << label;
    EXPECT_EQ(record->Find("outcome")->string, outcome) << label;
  }
  std::remove(events_path.c_str());
}

TEST_F(ServeAppTest, ClientStringsReachDocumentsAsUtf8) {
  obs::TraceStore::Global().Clear();
  const std::string events_path =
      ::testing::TempDir() + "serve_utf8_events.jsonl";
  std::remove(events_path.c_str());
  ThreadPool pool(2);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  options.trace_sample_every = 1;
  options.wide_events_path = events_path;
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  // Raw bytes that are not UTF-8 and lone surrogate escapes answer 400.
  for (const std::string& body :
       {std::string("{\"seed\":1,\"label\":\"a\xff\"}"),
        std::string("{\"seed\":1,\"label\":\"a\xc3\"}"),
        std::string("{\"seed\":1,\"label\":\"\\ud83d\"}"),
        std::string("{\"seed\":1,\"label\":\"\\ude00\"}")}) {
    const std::string response = Post(app.port(), "/api/query", body);
    EXPECT_NE(response.find("400"), std::string::npos) << body;
    EXPECT_TRUE(obs::IsUtf8(response)) << body;
  }

  // A surrogate pair escape is one 4-byte character, kept whole.
  const std::string smile = "smile-\xf0\x9f\x98\x80";
  RunScriptedHttpSession(app.port(), "smile-\\ud83d\\ude00");
  const std::string tracez_body = BodyOf(Get(app.port(), "/tracez"));
  EXPECT_TRUE(obs::IsUtf8(tracez_body));
  StatusOr<JsonValue> tracez = ParseJson(tracez_body);
  ASSERT_TRUE(tracez.ok()) << tracez.status().message();
  const JsonValue* traces = tracez->Find("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_EQ(traces->items.size(), 1u) << tracez_body;
  EXPECT_EQ(traces->items[0].Find("label")->string, smile);
  app.Stop();

  std::ifstream in(events_path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line)) << events_path;
  EXPECT_TRUE(obs::IsUtf8(line));
  StatusOr<JsonValue> event = ParseJson(line);
  ASSERT_TRUE(event.ok()) << line;
  EXPECT_EQ(event->Find("label")->string, smile);
}

TEST_F(ServeAppTest, IndexzJoinsTreeWithLiveAccessStats) {
  ThreadPool pool(4);
  ServeOptions options;
  options.db_path = *db_path_;
  options.pool = &pool;
  options.trace_sample_every = 0;
  options.cache_mb = 0;  // cache off: both sessions must touch the index
  ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();

  EXPECT_NE(Get(app.port(), "/indexz?n=0").find("400"), std::string::npos);
  EXPECT_NE(Get(app.port(), "/indexz?n=abc").find("400"), std::string::npos);

  // Before any session: the tree geometry is full, the access join empty.
  StatusOr<JsonValue> cold = ParseJson(BodyOf(Get(app.port(), "/indexz")));
  ASSERT_TRUE(cold.ok());
  const JsonValue* tree = cold->Find("tree");
  ASSERT_NE(tree, nullptr);
  EXPECT_GT(tree->U64Field("leaves", 0), 1u);
  EXPECT_EQ(tree->U64Field("images", 0), 300u);
  const JsonValue* cold_access = cold->Find("access");
  ASSERT_NE(cold_access, nullptr);
  EXPECT_EQ(cold_access->U64Field("sessions", 1), 0u);

  RunScriptedHttpSession(app.port(), "indexz-a");
  RunScriptedHttpSession(app.port(), "indexz-b");

  StatusOr<JsonValue> warm = ParseJson(BodyOf(Get(app.port(), "/indexz")));
  ASSERT_TRUE(warm.ok());
  const JsonValue* access = warm->Find("access");
  ASSERT_NE(access, nullptr);
#ifdef QDCBIR_DISABLE_OBS
  // The per-leaf taps compile out, so the join stays as empty as before
  // the sessions, and so does the co-access table.
  EXPECT_EQ(access->U64Field("sessions", 1), 0u);
  EXPECT_EQ(access->Find("totals")->U64Field("scans", 1), 0u);
  EXPECT_TRUE(access->Find("hot_leaves")->items.empty());
  EXPECT_EQ(warm->Find("coaccess")->U64Field("sets", 1), 0u);
  app.Stop();
  return;
#endif
  EXPECT_GE(access->U64Field("sessions", 0), 2u);
  const JsonValue* totals = access->Find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_GT(totals->U64Field("scans", 0), 0u);
  EXPECT_GT(totals->U64Field("distance_evals", 0), 0u);
  const JsonValue* hot = access->Find("hot_leaves");
  ASSERT_NE(hot, nullptr);
  ASSERT_FALSE(hot->items.empty());
  EXPECT_GT(hot->items[0].U64Field("scans", 0), 0u);
  const JsonValue* skew = access->Find("skew");
  ASSERT_NE(skew, nullptr);
  EXPECT_GT(skew->U64Field("top_share_permille", 0), 0u);

  // Each scripted session localizes several subqueries, so the sessions'
  // touched-leaf sets produce at least one co-access pair.
  const JsonValue* coaccess = warm->Find("coaccess");
  ASSERT_NE(coaccess, nullptr);
  EXPECT_GE(coaccess->U64Field("sets", 0), 2u);
  const JsonValue* pairs = coaccess->Find("pairs");
  ASSERT_NE(pairs, nullptr);
  ASSERT_FALSE(pairs->items.empty());
  EXPECT_GT(pairs->items[0].U64Field("count", 0), 0u);

  // ?n= caps the hot-leaf and pair tables.
  StatusOr<JsonValue> capped =
      ParseJson(BodyOf(Get(app.port(), "/indexz?n=1")));
  ASSERT_TRUE(capped.ok());
  EXPECT_LE(capped->Find("access")->Find("hot_leaves")->items.size(), 1u);
  EXPECT_LE(capped->Find("coaccess")->Find("pairs")->items.size(), 1u);

  // /metrics carries both the label-free rollup and the per-leaf heatmap.
  const std::string metrics = BodyOf(Get(app.port(), "/metrics"));
  std::string prom_error;
  std::map<std::string, double> samples;
  ASSERT_TRUE(obs::ValidatePrometheusText(metrics, &prom_error, &samples))
      << prom_error;
  EXPECT_GE(samples["qdcbir_access_leaf_scans"], 1.0);
  EXPECT_GE(samples["qdcbir_index_tree_leaves"], 2.0);
  EXPECT_NE(metrics.find("qdcbir_index_leaf_scans{leaf=\""),
            std::string::npos);

  // The server keeps no metric history and evaluates no SLOs of its own.
  // Each retired surface (the flight recorder's history, the SLO engine's
  // slo) leaves no qdcbir_<name>_* family and no /<name>z link, and its
  // route answers 404. /statusz still links /indexz, and has neither the
  // recorder's row nor the slo row.
  const std::string statusz = BodyOf(Get(app.port(), "/statusz"));
  EXPECT_NE(statusz.find("/indexz"), std::string::npos);
  for (const std::string name : {"history", "slo"}) {
    const std::string path = "/" + name + "z";
    EXPECT_EQ(metrics.find("qdcbir_" + name + "_"), std::string::npos)
        << name;
    EXPECT_EQ(statusz.find(path), std::string::npos) << path;
    EXPECT_NE(Get(app.port(), path).find("404"), std::string::npos) << path;
  }
  EXPECT_EQ(statusz.find("flight_recorder"), std::string::npos);
  EXPECT_EQ(statusz.find("<td>slo</td>"), std::string::npos);
  app.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace qdcbir
