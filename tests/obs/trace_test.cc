// A QD session under a recording trace context must leave at least one
// span per engine phase in its span tree, and the Chrome-trace validator
// (which gates bench_serve's client-side trace) must reject structurally
// broken traces.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/obs/trace.h"
#include "qdcbir/obs/trace_context.h"
#include "qdcbir/obs/trace_tree.h"
#include "qdcbir/query/qd_engine.h"
#include "qdcbir/rfs/rfs_builder.h"

namespace qdcbir {
namespace obs {
namespace {

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
    rfs_ = new RfsTree(RfsBuilder::Build(db_->feature_store(), build).value());
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

TEST_F(TraceTest, QdSessionRecordsEveryPhaseInItsSpanTree) {
#ifdef QDCBIR_DISABLE_OBS
  GTEST_SKIP() << "QDCBIR_SPAN compiles out under -DQDCBIR_OBS=OFF";
#endif
  TraceContext context = NewTraceContext();
  context.buffer = std::make_shared<TraceBuffer>();
  {
    const ScopedTraceContext scoped(context);
    RunScriptedSession();
  }
  std::map<std::string, std::size_t> counts;
  for (const SpanRecord& span : context.buffer->spans()) ++counts[span.name];
  EXPECT_EQ(context.buffer->dropped(), 0u);

  // Every instrumented phase of the session must appear at least once.
  for (const char* phase :
       {"qd.round.sampling", "qd.round.descent", "qd.finalize",
        "qd.finalize.subquery", "qd.finalize.merge"}) {
    EXPECT_GE(counts[phase], 1u) << "missing phase span: " << phase;
  }
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
