// Tests of the Chrome-trace recorder and its validator: a traced QD
// session must produce a file the validator accepts with at least one
// span per engine phase; spans straddling Start/Stop must be dropped from
// the flush; and the validator must reject structurally broken traces.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/obs/trace.h"
#include "qdcbir/query/qd_engine.h"
#include "qdcbir/rfs/rfs_builder.h"

namespace qdcbir {
namespace obs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class TraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogOptions catalog_options;
    catalog_options.num_categories = 16;
    Catalog catalog = Catalog::Build(catalog_options).value();
    SynthesizerOptions options;
    options.total_images = 400;
    options.image_width = 32;
    options.image_height = 32;
    db_ = new ImageDatabase(
        DatabaseSynthesizer::Synthesize(catalog, options).value());

    RfsBuildOptions build;
    build.tree.max_entries = 40;
    build.tree.min_entries = 16;
    rfs_ = new RfsTree(RfsBuilder::Build(db_->features(), build).value());
  }
  static void TearDownTestSuite() {
    delete rfs_;
    delete db_;
  }

  /// One scripted QD session: two feedback rounds with a resample each,
  /// then Finalize — touching every instrumented engine phase.
  static void RunScriptedSession() {
    QdOptions options;
    options.seed = 99;
    QdSession session(rfs_, options);
    std::vector<DisplayGroup> display = session.Start();
    for (int round = 0; round < 2; ++round) {
      display = session.Resample();
      std::vector<ImageId> picks;
      for (const DisplayGroup& group : display) {
        for (std::size_t i = 0; i < group.images.size() && i < 2; ++i) {
          picks.push_back(group.images[i]);
        }
      }
      display = session.Feedback(picks).value();
    }
    ASSERT_TRUE(session.Finalize(40).ok());
  }

  static const ImageDatabase* db_;
  static const RfsTree* rfs_;
};

const ImageDatabase* TraceTest::db_ = nullptr;
const RfsTree* TraceTest::rfs_ = nullptr;

TEST_F(TraceTest, QdSessionProducesValidTraceWithAllPhases) {
#ifdef QDCBIR_DISABLE_OBS
  GTEST_SKIP() << "QDCBIR_SPAN compiles out under -DQDCBIR_OBS=OFF";
#endif
  const std::string path = ::testing::TempDir() + "/qd_session_trace.json";
  Tracer& tracer = Tracer::Global();
  std::string error;
  ASSERT_TRUE(tracer.Start(path, &error)) << error;
  RunScriptedSession();
  EXPECT_GT(tracer.buffered_events(), 0u);
  ASSERT_TRUE(tracer.Stop(&error)) << error;

  const std::string json = ReadFile(path);
  ASSERT_FALSE(json.empty());
  std::map<std::string, std::size_t> begin_counts;
  ASSERT_TRUE(ValidateChromeTrace(json, &error, &begin_counts)) << error;

  // Every instrumented phase of the session must appear at least once.
  for (const char* phase :
       {"qd.round.sampling", "qd.round.descent", "qd.finalize",
        "qd.finalize.subquery", "qd.finalize.merge"}) {
    EXPECT_GE(begin_counts[phase], 1u) << "missing phase span: " << phase;
  }
}

TEST_F(TraceTest, StartWhileRunningFails) {
  const std::string path = ::testing::TempDir() + "/trace_double_start.json";
  Tracer& tracer = Tracer::Global();
  std::string error;
  ASSERT_TRUE(tracer.Start(path, &error)) << error;
  EXPECT_FALSE(tracer.Start(path, &error));
  ASSERT_TRUE(tracer.Stop(&error)) << error;
  EXPECT_FALSE(tracer.Stop(&error));  // already stopped
}

TEST_F(TraceTest, StraddlingSpansAreDroppedFromFlush) {
  const std::string path = ::testing::TempDir() + "/trace_straddle.json";
  Tracer& tracer = Tracer::Global();
  std::string error;
  ASSERT_TRUE(tracer.Start(path, &error)) << error;
  static const char* const kOrphanEnd = "straddle.pre_start";
  static const char* const kBalanced = "straddle.balanced";
  static const char* const kOpen = "straddle.still_open";
  tracer.End(kOrphanEnd);    // span began before Start — lone "E"
  tracer.Begin(kBalanced);
  tracer.End(kBalanced);
  tracer.Begin(kOpen);       // still open at Stop — lone "B"
  ASSERT_TRUE(tracer.Stop(&error)) << error;

  const std::string json = ReadFile(path);
  std::map<std::string, std::size_t> begin_counts;
  ASSERT_TRUE(ValidateChromeTrace(json, &error, &begin_counts)) << error;
  EXPECT_EQ(begin_counts["straddle.balanced"], 1u);
  EXPECT_EQ(begin_counts.count("straddle.still_open"), 0u);
  EXPECT_EQ(json.find("straddle.pre_start"), std::string::npos);
}

TEST(ValidateChromeTraceTest, AcceptsMinimalHandcraftedTrace) {
  const std::string json =
      "{\"traceEvents\":[\n"
      "{\"name\":\"a\",\"cat\":\"x\",\"ph\":\"B\",\"ts\":0.0,"
      "\"pid\":1,\"tid\":1},\n"
      "{\"name\":\"b\",\"ph\":\"B\",\"ts\":1.0,\"pid\":1,\"tid\":1},\n"
      "{\"name\":\"b\",\"ph\":\"E\",\"ts\":2.0,\"pid\":1,\"tid\":1},\n"
      "{\"name\":\"a\",\"ph\":\"E\",\"ts\":3.0,\"pid\":1,\"tid\":1}\n"
      "]}";
  std::string error;
  std::map<std::string, std::size_t> begin_counts;
  EXPECT_TRUE(ValidateChromeTrace(json, &error, &begin_counts)) << error;
  EXPECT_EQ(begin_counts["a"], 1u);
  EXPECT_EQ(begin_counts["b"], 1u);
}

TEST(ValidateChromeTraceTest, RejectsUnbalancedTrace) {
  const std::string json =
      "{\"traceEvents\":["
      "{\"name\":\"a\",\"ph\":\"B\",\"ts\":0.0,\"tid\":1}"
      "]}";
  std::string error;
  EXPECT_FALSE(ValidateChromeTrace(json, &error, nullptr));
  EXPECT_NE(error.find("unbalanced"), std::string::npos) << error;
}

TEST(ValidateChromeTraceTest, RejectsMismatchedNesting) {
  const std::string json =
      "{\"traceEvents\":["
      "{\"name\":\"a\",\"ph\":\"B\",\"ts\":0.0,\"tid\":1},"
      "{\"name\":\"b\",\"ph\":\"B\",\"ts\":1.0,\"tid\":1},"
      "{\"name\":\"a\",\"ph\":\"E\",\"ts\":2.0,\"tid\":1},"
      "{\"name\":\"b\",\"ph\":\"E\",\"ts\":3.0,\"tid\":1}"
      "]}";
  std::string error;
  EXPECT_FALSE(ValidateChromeTrace(json, &error, nullptr));
  EXPECT_NE(error.find("nesting"), std::string::npos) << error;
}

TEST(ValidateChromeTraceTest, RejectsMissingRequiredField) {
  const std::string json =
      "{\"traceEvents\":["
      "{\"name\":\"a\",\"ph\":\"B\",\"ts\":0.0}"  // no tid
      "]}";
  std::string error;
  EXPECT_FALSE(ValidateChromeTrace(json, &error, nullptr));
  EXPECT_NE(error.find("tid"), std::string::npos) << error;
}

TEST(ValidateChromeTraceTest, RejectsRegressingTimestamps) {
  const std::string json =
      "{\"traceEvents\":["
      "{\"name\":\"a\",\"ph\":\"B\",\"ts\":5.0,\"tid\":1},"
      "{\"name\":\"a\",\"ph\":\"E\",\"ts\":1.0,\"tid\":1}"
      "]}";
  std::string error;
  EXPECT_FALSE(ValidateChromeTrace(json, &error, nullptr));
  EXPECT_NE(error.find("regress"), std::string::npos) << error;
}

TEST(ValidateChromeTraceTest, RejectsMissingEventsArray) {
  std::string error;
  EXPECT_FALSE(ValidateChromeTrace("{\"foo\":[]}", &error, nullptr));
}

}  // namespace
}  // namespace obs
}  // namespace qdcbir
