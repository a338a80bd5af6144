// Golden bytes of every JSON document the repository renders: the admin
// endpoints (/varz, /queryz, /tracez, /logz, /indexz,
// /profilez?format=json), a wide event, the /api bodies and a BENCH_*.json
// record. Inputs are fixed; fields that read a clock are zeroed before the
// comparison, so any change to field order, number format or escaping
// shows up as a byte diff.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "qdcbir/core/thread_pool.h"
#include "qdcbir/dataset/database_io.h"
#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/obs/build_info.h"
#include "qdcbir/obs/log.h"
#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/profiler.h"
#include "qdcbir/obs/query_log.h"
#include "qdcbir/obs/trace_tree.h"
#include "qdcbir/rfs/rfs_builder.h"
#include "qdcbir/rfs/rfs_introspect.h"
#include "qdcbir/rfs/rfs_serialization.h"
#include "qdcbir/serve/serve_app.h"

namespace qdcbir {
namespace {

/// `json` with the integer or decimal value of every field named in `keys`
/// (a regex alternation) replaced by 0.
std::string ZeroFields(const std::string& json, const std::string& keys) {
  const std::regex field("\"(" + keys + ")\":[0-9.]+");
  return std::regex_replace(json, field, "\"$1\":0");
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(JsonGoldenTest, MetricsSnapshot) {
  obs::MetricsRegistry registry;
  registry.GetCounter("qd.sessions").Add(3);
  registry.GetCounter("cache.hit").Add(12);
  registry.GetGauge("pool.queue").Set(5);
  registry.GetGauge("pool.queue").Set(2);
  obs::Histogram& latency = registry.GetHistogram("serve.latency_ns");
  for (const std::uint64_t v : {10u, 20u, 30u, 1000u, 5000u}) latency.Record(v);
  registry.GetHistogram("empty_ns");
  EXPECT_EQ(registry.SnapshotJson(),
            "{\"counters\":{\"cache.hit\":12,\"qd.sessions\":3},"
            "\"gauges\":{\"pool.queue\":{\"value\":2,\"max\":5}},"
            "\"histograms\":{\"empty_ns\":{\"count\":0,\"sum\":0,\"min\":0,"
            "\"max\":0,\"mean\":0,\"p50\":0,\"p90\":0,\"p95\":0,\"p99\":0},"
            "\"serve.latency_ns\":{\"count\":5,\"sum\":6060,\"min\":10,"
            "\"max\":5000,\"mean\":1212,\"p50\":31,\"p90\":4864,\"p95\":4864,"
            "\"p99\":4864}}}");
}

TEST(JsonGoldenTest, BuildInfo) {
  EXPECT_EQ(obs::BuildInfoJson(),
            std::string("{\"git\":\"") + obs::kBuildGitDescribe +
                "\",\"compiler\":\"" + obs::kBuildCompiler +
                "\",\"build_type\":\"" + obs::kBuildType + "\",\"obs\":\"" +
                obs::kBuildObs + "\"}");
}

TEST(JsonGoldenTest, Queryz) {
  obs::QueryLog log;
  obs::QueryAuditRecord record;
  record.set_engine("qd");
  record.set_label("bird \"flock\" \\ 2");
  record.seed = 11;
  record.rounds = 3;
  record.picks = 6;
  record.results = 25;
  record.subqueries = 4;
  record.boundary_expansions = 2;
  record.expanded_subqueries = 1;
  record.nodes_visited = 40;
  record.candidates_scored = 900;
  record.nodes_touched = 12;
  record.distinct_nodes_sampled = 9;
  record.rounds_ns = 1500;
  record.finalize_ns = 700;
  record.total_ns = 2200;
  record.trace_hi = 0x4bf92f3577b34da6ull;
  record.trace_lo = 0xa3ce929d0e0e4736ull;
  record.distance_evals = 1234;
  record.feature_bytes = 365000;
  record.leaves_visited = 17;
  record.tiles_gathered = 8;
  record.container_allocs = 5;
  record.alloc_bytes = 4096;
  record.cache_hits = 2;
  record.cache_misses = 3;
  record.quality_outcome = 0;
  log.Record(record);
  obs::QueryAuditRecord plain;
  plain.set_engine("global");
  plain.set_label("mv");
  plain.quality_outcome = 1;
  plain.quality_oracle_precision_permille_plus1 = 701;
  log.Record(plain);
  EXPECT_EQ(
      log.RenderJson(),
      "{\"capacity\":128,\"total_recorded\":2,\"records\":["
      "{\"sequence\":0,\"engine\":\"qd\",\"label\":\"bird \\\"flock\\\" "
      "\\\\ 2\",\"seed\":11,\"rounds\":3,\"picks\":6,\"results\":25,"
      "\"subqueries\":4,\"boundary_expansions\":2,\"expanded_subqueries\":1,"
      "\"nodes_visited\":40,\"candidates_scored\":900,\"nodes_touched\":12,"
      "\"distinct_nodes_sampled\":9,\"rounds_ns\":1500,\"finalize_ns\":700,"
      "\"total_ns\":2200,\"distance_evals\":1234,\"feature_bytes\":365000,"
      "\"leaves_visited\":17,\"tiles_gathered\":8,\"container_allocs\":5,"
      "\"alloc_bytes\":4096,\"cache_hits\":2,\"cache_misses\":3,"
      "\"outcome\":\"finalized\","
      "\"trace\":\"4bf92f3577b34da6a3ce929d0e0e4736\"},"
      "{\"sequence\":1,\"engine\":\"global\",\"label\":\"mv\",\"seed\":0,"
      "\"rounds\":0,\"picks\":0,\"results\":0,\"subqueries\":0,"
      "\"boundary_expansions\":0,\"expanded_subqueries\":0,"
      "\"nodes_visited\":0,\"candidates_scored\":0,\"nodes_touched\":0,"
      "\"distinct_nodes_sampled\":0,\"rounds_ns\":0,\"finalize_ns\":0,"
      "\"total_ns\":0,\"distance_evals\":0,\"feature_bytes\":0,"
      "\"leaves_visited\":0,\"tiles_gathered\":0,\"container_allocs\":0,"
      "\"alloc_bytes\":0,\"cache_hits\":0,\"cache_misses\":0,"
      "\"outcome\":\"abandoned\","
      "\"oracle_precision_permille\":700,\"trace\":\"\"}]}");
}

TEST(JsonGoldenTest, Tracez) {
  obs::TraceStore store;
  obs::CompletedTrace trace;
  trace.trace_id = "0123456789abcdef0123456789abcdef";
  trace.label = "golden \"label\"";
  trace.reason = "sampled";
  trace.total_ns = 900;
  trace.dropped_spans = 1;
  trace.spans = {
      {1, 0, "serve.api.feedback", 100, 1000, 7},
      {2, 1, "qd.finalize", 200, 700, 7},
      {3, 1, "qd.feedback", 150, 180, 8},
      {4, 99, "orphan", 300, 310, 9},
  };
  trace.annotations = {{2, "leaf", 42}, {2, "relevant", -3}};
  store.Publish(trace);
  obs::CompletedTrace slow;
  slow.trace_id = "fedcba9876543210fedcba9876543210";
  slow.label = "slow";
  slow.reason = "slow";
  slow.total_ns = 5;
  store.Publish(slow);
  EXPECT_EQ(
      store.RenderJson(),
      "{\"total_published\":2,\"traces\":["
      "{\"trace_id\":\"0123456789abcdef0123456789abcdef\",\"label\":\"golden "
      "\\\"label\\\"\",\"reason\":\"sampled\",\"total_ns\":900,"
      "\"span_count\":4,\"dropped_spans\":1,\"spans\":["
      "{\"name\":\"serve.api.feedback\",\"span_id\":1,\"tid\":7,"
      "\"start_ns\":100,\"duration_ns\":900,\"self_ns\":370,\"children\":["
      "{\"name\":\"qd.feedback\",\"span_id\":3,\"tid\":8,\"start_ns\":150,"
      "\"duration_ns\":30,\"self_ns\":30,\"children\":[]},"
      "{\"name\":\"qd.finalize\",\"span_id\":2,\"tid\":7,\"start_ns\":200,"
      "\"duration_ns\":500,\"self_ns\":500,\"annotations\":{\"leaf\":42,"
      "\"relevant\":-3},\"children\":[]}]},"
      "{\"name\":\"orphan\",\"span_id\":4,\"tid\":9,\"start_ns\":300,"
      "\"duration_ns\":10,\"self_ns\":10,\"children\":[]}]},"
      "{\"trace_id\":\"fedcba9876543210fedcba9876543210\",\"label\":\"slow\","
      "\"reason\":\"slow\",\"total_ns\":5,\"span_count\":0,"
      "\"dropped_spans\":0,\"spans\":[]}]}");
}

TEST(JsonGoldenTest, Logz) {
  obs::LogRing ring;
  ring.Write(obs::LogLevel::kInfo, "src/qdcbir/serve/serve_app.cc", 12,
             "serving 300 images from \"db.bin\"");
  ring.Write(obs::LogLevel::kDebug, "a/b/log.cc", 7, "tab\there", 4);
  EXPECT_EQ(ZeroFields(ring.RenderJson(), "unix_ms|mono_ns"),
            "{\"capacity\":256,\"total\":2,\"entries\":["
            "{\"sequence\":0,\"unix_ms\":0,\"mono_ns\":0,\"level\":\"info\","
            "\"trace\":\"\",\"site\":\"serve_app.cc:12\",\"message\":"
            "\"serving 300 images from \\\"db.bin\\\"\",\"suppressed\":0},"
            "{\"sequence\":1,\"unix_ms\":0,\"mono_ns\":0,\"level\":\"debug\","
            "\"trace\":\"\",\"site\":\"log.cc:7\",\"message\":\"tab\\there\","
            "\"suppressed\":4}]}");
}

TEST(JsonGoldenTest, Indexz) {
  IndexTreeSummary tree;
  tree.height = 2;
  tree.node_count = 3;
  tree.internal_count = 1;
  tree.leaf_count = 2;
  tree.total_images = 150;
  tree.feature_dim = 37;
  tree.leaf_representatives = 8;
  tree.min_fanout = 2;
  tree.max_fanout = 2;
  tree.mean_fanout = 2.0;
  tree.min_leaf_entries = 70;
  tree.max_leaf_entries = 80;
  tree.mean_leaf_entries = 75.0;
  tree.leaf_feature_bytes = 44400;
  tree.leaves = {{1, 70, 4, 20720, 0.123456789}, {2, 80, 4, 23680, 1.5}};
  IndexAccessJoin join;
  join.generation = 3;
  join.sessions = 9;
  join.access = {{1, {5, 350, 103600, 1, 4}},
                 {2, {2, 160, 47360, 0, 2}},
                 {obs::kTableScanLeaf, {1, 150, 44400, 0, 1}}};
  join.coaccess = {{1, 2, 4}};
  join.coaccess_sets = 6;
  join.coaccess_evictions = 0;
  join.coaccess_truncated = 1;
  EXPECT_EQ(
      RenderIndexzJson(tree, join, 1),
      "{\"generation\":3,\"tree\":{\"height\":2,\"nodes\":3,\"internal\":1,"
      "\"leaves\":2,\"images\":150,\"feature_dim\":37,"
      "\"leaf_representatives\":8,\"fanout\":{\"min\":2,\"max\":2,"
      "\"mean\":2},\"leaf_entries\":{\"min\":70,\"max\":80,\"mean\":75},"
      "\"leaf_feature_bytes\":44400},\"leaves\":[{\"id\":1,\"entries\":70,"
      "\"representatives\":4,\"feature_bytes\":20720,\"diagonal\":0.123457,"
      "\"access\":{\"scans\":5,\"distance_evals\":350,\"feature_bytes\":"
      "103600,\"cache_hits\":1,\"cache_misses\":4}},{\"id\":2,\"entries\":80,"
      "\"representatives\":4,\"feature_bytes\":23680,\"diagonal\":1.5,"
      "\"access\":{\"scans\":2,\"distance_evals\":160,\"feature_bytes\":"
      "47360,\"cache_hits\":0,\"cache_misses\":2}}],\"access\":{\"sessions\":"
      "9,\"totals\":{\"scans\":7,\"distance_evals\":510,\"feature_bytes\":"
      "150960,\"cache_hits\":1,\"cache_misses\":6},\"table_scan\":{\"scans\":"
      "1,\"distance_evals\":150,\"feature_bytes\":44400,\"cache_hits\":0,"
      "\"cache_misses\":1},\"hot_leaves\":[{\"id\":1,\"scans\":5}],\"skew\":"
      "{\"top_n\":1,\"top_share_permille\":714,\"gini_permille\":214}},"
      "\"coaccess\":{\"sets\":6,\"evictions\":0,\"leaves_truncated\":1,"
      "\"pairs\":[{\"a\":1,\"b\":2,\"count\":4}]}}");
}

obs::ProfileSample Sample(const char* span, std::uint64_t hi,
                          std::uint64_t lo) {
  obs::ProfileSample sample;
  sample.span = span;
  sample.trace_hi = hi;
  sample.trace_lo = lo;
  return sample;
}

TEST(JsonGoldenTest, ProfilezJson) {
  const std::vector<obs::ProfileSample> samples = {
      Sample("qd.feedback", 0xab, 0xcd), Sample("qd.feedback", 0xab, 0xcd),
      Sample("qd.feedback", 0, 0), Sample("serve.api.query", 0, 1),
      Sample(nullptr, 0, 0)};
  EXPECT_EQ(obs::Profiler::RenderJson(samples, 497, 2.0004, 3),
            "{\"hz\":497,\"seconds\":2.000,\"samples\":5,\"dropped\":3,"
            "\"spans\":{\"(no-span)\":1,\"qd.feedback\":3,"
            "\"serve.api.query\":1},\"traces\":{"
            "\"00000000000000000000000000000001\":1,"
            "\"00000000000000ab00000000000000cd\":2},\"stacks\":["
            "{\"stack\":\"qd.feedback\",\"count\":3},"
            "{\"stack\":\"(no-span)\",\"count\":1},"
            "{\"stack\":\"serve.api.query\",\"count\":1}]}");
}

TEST(JsonGoldenTest, BenchRecord) {
  const std::string path = ::testing::TempDir() + "BENCH_golden.json";
  std::remove(path.c_str());
  bench::BenchRecord record;
  record.bench = "fig10_query_time";
  record.config = "db=3000 \"qd\"";
  record.threads = 4;
  record.wall_seconds = 0.125;
  record.metrics = {{"median_ms", 1.5}, {"ratio", 1.0 / 3.0}};
  ASSERT_TRUE(bench::AppendBenchJson(path, {record}).ok());
  const std::string snapshot = obs::MetricsRegistry::Global().SnapshotJson();
  EXPECT_EQ(ReadAll(path),
            "{\"bench\":\"fig10_query_time\",\"config\":\"db=3000 "
            "\\\"qd\\\"\",\"threads\":4,\"wall_seconds\":0.125,"
            "\"median_ms\":1.5,\"ratio\":0.333333333,\"obs\":" +
                snapshot + "}\n");
  std::remove(path.c_str());
}

// ---- Documents the server renders over HTTP -------------------------------

std::string Exchange(int port, const std::string& request) {
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
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) break;
    response.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  const std::size_t head_end = response.find("\r\n\r\n");
  return head_end == std::string::npos ? "" : response.substr(head_end + 4);
}

std::string GetBody(int port, const std::string& path) {
  return Exchange(port, "GET " + path +
                            " HTTP/1.1\r\nConnection: close\r\n\r\n");
}

std::string PostBody(int port, const std::string& path,
                     const std::string& body,
                     const std::string& headers = "") {
  return Exchange(port, "POST " + path + " HTTP/1.1\r\nContent-Length: " +
                            std::to_string(body.size()) + "\r\n" + headers +
                            "Connection: close\r\n\r\n" + body);
}

class JsonGoldenServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogOptions catalog_options;
    catalog_options.num_categories = 12;
    SynthesizerOptions options;
    options.total_images = 300;
    options.image_width = 32;
    options.image_height = 32;
    const ImageDatabase db =
        DatabaseSynthesizer::Synthesize(
            Catalog::Build(catalog_options).value(), options)
            .value();
    RfsBuildOptions build;
    build.tree.max_entries = 40;
    build.tree.min_entries = 16;
    const std::string blob = RfsSerializer::Serialize(
        RfsBuilder::Build(db.feature_store(), build).value());
    db_path_ = ::testing::TempDir() + "json_golden.qdb";
    ASSERT_TRUE(DatabaseIo::SaveDatabase(db, db_path_, &blob).ok());
  }

  static std::string db_path_;
};

std::string JsonGoldenServeTest::db_path_;

// The wide event's leaves_touched counts the session's per-leaf access
// rows, which compile out under -DQDCBIR_OBS=OFF.
#ifdef QDCBIR_DISABLE_OBS
#define GOLDEN_LEAVES_TOUCHED "0"
#else
#define GOLDEN_LEAVES_TOUCHED "2"
#endif

TEST_F(JsonGoldenServeTest, ApiBodiesAndWideEvent) {
  const std::string events_path =
      ::testing::TempDir() + "json_golden_events.jsonl";
  std::filesystem::remove(events_path);
  ThreadPool pool(2);
  serve::ServeOptions options;
  options.db_path = db_path_;
  options.pool = &pool;
  options.display_size = 6;
  options.wide_events_path = events_path;
  serve::ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();
  const int port = app.port();

  const std::string traceparent =
      "traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
      "\r\n";
  EXPECT_EQ(PostBody(port, "/api/query", "{\"seed\":7,\"label\":\"golden\"}",
                     traceparent),
            "{\"trace\":\"4bf92f3577b34da6a3ce929d0e0e4736\",\"session\":1,"
            "\"round\":0,\"display\":[{\"node\":11,\"images\":[162,"
            "213,58,262,114,157]}]}\n");
  EXPECT_EQ(PostBody(port, "/api/feedback",
                     "{\"session\":1,\"relevant\":[162,213]}"),
            "{\"trace\":\"4bf92f3577b34da6a3ce929d0e0e4736\",\"session\":1,"
            "\"round\":1,\"display\":[{\"node\":8,\"images\":[173,"
            "162,288]},{\"node\":10,\"images\":[64,213]}]}\n");
  EXPECT_EQ(ZeroFields(PostBody(port, "/api/feedback",
                                "{\"session\":1,\"relevant\":[162,64],"
                                "\"finalize\":5}"),
                       "rounds_ns|finalize_ns"),
            "{\"trace\":\"4bf92f3577b34da6a3ce929d0e0e4736\",\"session\":1,"
            "\"results\":[162,161,218,215,64],\"groups\":[{\"leaf\":8,"
            "\"search_node\":8,\"relevant_count\":1,\"images\":[162,"
            "161]},{\"leaf\":10,\"search_node\":10,\"relevant_count\":2,"
            "\"images\":[218,215,64]}],\"stats\":{\"subqueries\":2,"
            "\"boundary_expansions\":0,\"expanded_subqueries\":0,\"knn_nodes_v"
            "isited\":2,\"knn_candidates\":53,\"nodes_touched\":5,"
            "\"distinct_nodes_sampled\":3},\"rounds_ns\":0,"
            "\"finalize_ns\":0}\n");
  EXPECT_EQ(PostBody(port, "/api/feedback", "{\"session\":99}"),
            "{\"error\":\"no such session\"}\n");
  EXPECT_EQ(PostBody(port, "/api/query", "{\"seed\":1.5}"),
            "{\"error\":\"\\\"display_size\\\" and \\\"seed\\\" must be "
            "integers in [0, 2^53]\"}\n");
  // A rejected round on a traced session: the error body carries the trace.
  (void)PostBody(port, "/api/query", "{\"seed\":8}", traceparent);
  EXPECT_EQ(
      PostBody(port, "/api/feedback", "{\"session\":2,\"relevant\":[1]}"),
      "{\"trace\":\"4bf92f3577b34da6a3ce929d0e0e4736\",\"error\":\"InvalidArgu"
      "ment: relevant image was not in any display this round\"}\n");
  // Stop() sweeps the open session 2 into an errored wide event.
  app.Stop();

  // A wide event is the session's audit record (the /queryz schema, with
  // the full label) plus the serve-side extras. The cold
  // finalize misses the leaf-scan cache once per subquery.
  EXPECT_EQ(ZeroFields(ReadAll(events_path),
                       "unix_ms|sequence|rounds_ns|finalize_ns|total_ns"),
            "{\"event\":\"session\",\"unix_ms\":0,\"session\":1,\"sequence\":0"
            ",\"engine\":\"qd\",\"label\":\"golden\",\"seed\":7,\"rounds\":2,"
            "\"picks\":4,\"results\":5,\"subqueries\":2,\"boundary_expansions\""
            ":0,\"expanded_subqueries\":0,\"nodes_visited\":2,\"candidates_sco"
            "red\":53,\"nodes_touched\":5,\"distinct_nodes_sampled\":3,"
            "\"rounds_ns\":0,\"finalize_ns\":0,\"total_ns\":0,\"distance_evals"
            "\":53,\"feature_bytes\":15688,\"leaves_visited\":2,\"tiles_gather"
            "ed\":0,\"container_allocs\":0,\"alloc_bytes\":0,\"cache_hits\":0,"
            "\"cache_misses\":2,\"outcome\":\"final"
            "ized\",\"trace\":\"4bf92f3577b34da6a3ce929d0e0e4736\","
            "\"display_size\":6,\"boundary_threshold\":0.4,\"cache_mb\":64,"
            "\"load_generation\":1,\"leaves_touched\":" GOLDEN_LEAVES_TOUCHED
            "}\n"
            "{\"event\":\"session\",\"unix_ms\":0,\"session\":2,\"sequence\":0"
            ",\"engine\":\"qd\",\"label\":\"http\",\"seed\":8,\"rounds\":0,"
            "\"picks\":0,\"results\":0,\"subqueries\":0,\"boundary_expansions\""
            ":0,\"expanded_subqueries\":0,\"nodes_visited\":0,\"candidates_sco"
            "red\":0,\"nodes_touched\":1,\"distinct_nodes_sampled\":1,"
            "\"rounds_ns\":0,\"finalize_ns\":0,\"total_ns\":0,\"distance_evals"
            "\":0,\"feature_bytes\":0,\"leaves_visited\":0,\"tiles_gathered\":"
            "0,\"container_allocs\":0,\"alloc_bytes\":0,\"cache_hits\":0,"
            "\"cache_misses\":0,"
            "\"outcome\":\"errored\",\"trace\":\"4bf92f3577b34da6a3ce929d0e0e4"
            "736\",\"display_size\":6,\"boundary_threshold\":0.4,\"cache_mb\":"
            "64,\"load_generation\":1,\"leaves_touched\":0"
            "}\n");
  std::filesystem::remove(events_path);
}

#undef GOLDEN_LEAVES_TOUCHED

TEST_F(JsonGoldenServeTest, VarzSplicesBuildInfoIntoTheRegistrySnapshot) {
  ThreadPool pool(2);
  serve::ServeOptions options;
  options.db_path = db_path_;
  options.pool = &pool;
  serve::ServeApp app(std::move(options));
  std::string error;
  ASSERT_TRUE(app.Start(&error)) << error;
  ASSERT_TRUE(app.WaitUntilReady(30000)) << app.load_error();
  (void)GetBody(app.port(), "/varz");
  const std::string body = GetBody(app.port(), "/varz");
  const std::string expected =
      "{\"build\":" + obs::BuildInfoJson() + "," +
      obs::MetricsRegistry::Global().SnapshotJson().substr(1) + "\n";
  // Values move between the scrape and the local snapshot; names, order and
  // layout must not.
  const std::regex number(":[0-9.e+-]+");
  EXPECT_EQ(std::regex_replace(body, number, ":0"),
            std::regex_replace(expected, number, ":0"));
  app.Stop();
}

}  // namespace
}  // namespace qdcbir
