#include "qdcbir/eval/session_runner.h"

#include <gtest/gtest.h>

#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/features/extractor.h"
#include "qdcbir/query/fagin_engine.h"
#include "qdcbir/query/mars_engine.h"
#include "qdcbir/query/mv_engine.h"
#include "qdcbir/query/qcluster_engine.h"
#include "qdcbir/query/qpm_engine.h"
#include "qdcbir/rfs/rfs_builder.h"

namespace qdcbir {
namespace {

class SessionRunnerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogOptions catalog_options;
    catalog_options.num_categories = 30;
    Catalog catalog = Catalog::Build(catalog_options).value();
    SynthesizerOptions options;
    options.total_images = 900;
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

  static QueryGroundTruth Gt(const char* query) {
    return BuildGroundTruth(*db_, db_->catalog().FindQuery(query).value())
        .value();
  }

  static const ImageDatabase* db_;
  static const RfsTree* rfs_;
};

const ImageDatabase* SessionRunnerTest::db_ = nullptr;
const RfsTree* SessionRunnerTest::rfs_ = nullptr;

TEST_F(SessionRunnerTest, QdProtocolProducesCompleteOutcome) {
  const QueryGroundTruth gt = Gt("bird");
  ProtocolOptions protocol;
  protocol.seed = 7;
  const RunOutcome outcome =
      SessionRunner::RunQd(*rfs_, gt, QdOptions{}, protocol).value();

  EXPECT_EQ(outcome.rounds.size(), 3u);
  EXPECT_EQ(outcome.iteration_seconds.size(), 3u);
  EXPECT_EQ(outcome.final_results.size(), gt.size());
  EXPECT_GT(outcome.final_gtir, 0.0);
  EXPECT_GE(outcome.final_precision, 0.0);
  EXPECT_LE(outcome.final_precision, 1.0);
  // Paper protocol: retrieved == |ground truth| makes precision == recall.
  EXPECT_NEAR(outcome.final_precision, outcome.final_recall, 1e-9);
  EXPECT_GT(outcome.total_seconds, 0.0);
}

TEST_F(SessionRunnerTest, QdRoundsReportGtirProgression) {
  const QueryGroundTruth gt = Gt("bird");
  ProtocolOptions protocol;
  protocol.seed = 11;
  const RunOutcome outcome =
      SessionRunner::RunQd(*rfs_, gt, QdOptions{}, protocol).value();
  // Interim rounds define GTIR but not precision (QD runs no k-NN yet).
  EXPECT_FALSE(outcome.rounds[0].precision_defined);
  EXPECT_FALSE(outcome.rounds[1].precision_defined);
  EXPECT_TRUE(outcome.rounds[2].precision_defined);
  // GTIR never decreases across rounds (marks accumulate).
  EXPECT_LE(outcome.rounds[0].gtir, outcome.rounds[1].gtir + 1e-9);
}

TEST_F(SessionRunnerTest, QdStatsReportLocalizedWork) {
  const QueryGroundTruth gt = Gt("car");
  ProtocolOptions protocol;
  protocol.seed = 13;
  const RunOutcome outcome =
      SessionRunner::RunQd(*rfs_, gt, QdOptions{}, protocol).value();
  EXPECT_GT(outcome.qd_stats.localized_subqueries, 0u);
  // Localized k-NN inspects far fewer candidates than a full scan per round.
  EXPECT_LT(outcome.qd_stats.knn_candidates, 3 * db_->size());
  EXPECT_FALSE(outcome.qd_result.groups.empty());
}

TEST_F(SessionRunnerTest, EngineProtocolProducesCompleteOutcome) {
  const QueryGroundTruth gt = Gt("bird");
  ProtocolOptions protocol;
  protocol.seed = 17;
  MvEngine engine(db_);
  const RunOutcome outcome =
      SessionRunner::RunEngine(engine, gt, protocol).value();
  EXPECT_EQ(outcome.rounds.size(), 3u);
  EXPECT_EQ(outcome.final_results.size(), gt.size());
  EXPECT_EQ(outcome.global_stats.feedback_rounds, 3u);
  EXPECT_GT(outcome.global_stats.global_knn_computations, 0u);
}

TEST_F(SessionRunnerTest, RetrievalSizeOverride) {
  const QueryGroundTruth gt = Gt("rose");
  ProtocolOptions protocol;
  protocol.retrieval_size = 10;
  protocol.seed = 19;
  const RunOutcome outcome =
      SessionRunner::RunQd(*rfs_, gt, QdOptions{}, protocol).value();
  EXPECT_EQ(outcome.final_results.size(), 10u);
}

TEST_F(SessionRunnerTest, DeterministicForFixedSeeds) {
  const QueryGroundTruth gt = Gt("horse");
  ProtocolOptions protocol;
  protocol.seed = 23;
  const RunOutcome a =
      SessionRunner::RunQd(*rfs_, gt, QdOptions{}, protocol).value();
  const RunOutcome b =
      SessionRunner::RunQd(*rfs_, gt, QdOptions{}, protocol).value();
  EXPECT_EQ(a.final_results, b.final_results);
  EXPECT_EQ(a.final_precision, b.final_precision);
}

TEST_F(SessionRunnerTest, DifferentSeedsVaryDisplays) {
  // Different protocol seeds shuffle what the simulated user browses. (The
  // final outcome may still coincide once every relevant representative has
  // been found, so the displays — not the results — are compared.)
  QdOptions o1, o2;
  o1.seed = 29;
  o2.seed = 31;
  QdSession s1(rfs_, o1), s2(rfs_, o2);
  const auto d1 = s1.Start();
  const auto d2 = s2.Start();
  ASSERT_FALSE(d1.empty());
  ASSERT_FALSE(d2.empty());
  EXPECT_NE(d1[0].images, d2[0].images);
}

TEST_F(SessionRunnerTest, NoisyOracleStillCompletes) {
  const QueryGroundTruth gt = Gt("bird");
  ProtocolOptions protocol;
  protocol.seed = 37;
  protocol.oracle.miss_rate = 0.2;
  protocol.oracle.false_mark_rate = 0.01;
  const StatusOr<RunOutcome> outcome =
      SessionRunner::RunQd(*rfs_, gt, QdOptions{}, protocol);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->final_results.size(), gt.size());
}

TEST_F(SessionRunnerTest, QpmEngineRunsUnderProtocol) {
  const QueryGroundTruth gt = Gt("rose");
  ProtocolOptions protocol;
  protocol.seed = 41;
  QpmEngine engine(db_);
  const StatusOr<RunOutcome> outcome =
      SessionRunner::RunEngine(engine, gt, protocol);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GT(outcome->final_precision, 0.0);
}

TEST_F(SessionRunnerTest, EveryBaselineEngineCompletesTheProtocol) {
  const QueryGroundTruth gt = Gt("car");
  ProtocolOptions protocol;
  protocol.seed = 43;
  MarsEngine mars(db_);
  QclusterEngine qcluster(db_);
  FaginEngine fagin(db_);
  for (FeedbackEngine* engine :
       std::initializer_list<FeedbackEngine*>{&mars, &qcluster, &fagin}) {
    const StatusOr<RunOutcome> outcome =
        SessionRunner::RunEngine(*engine, gt, protocol);
    ASSERT_TRUE(outcome.ok())
        << engine->Name() << ": " << outcome.status().ToString();
    EXPECT_EQ(outcome->final_results.size(), gt.size()) << engine->Name();
    EXPECT_GT(outcome->global_stats.candidates_scanned, 0u)
        << engine->Name();
    EXPECT_EQ(outcome->rounds.size(), 3u) << engine->Name();
  }
}

TEST_F(SessionRunnerTest, QdFeatureWeightsRunUnderProtocol) {
  const QueryGroundTruth gt = Gt("rose");
  ProtocolOptions protocol;
  protocol.seed = 47;
  QdOptions options;
  options.feature_weights = MakeGroupWeights(3.0, 1.0, 1.0);
  const StatusOr<RunOutcome> outcome =
      SessionRunner::RunQd(*rfs_, gt, options, protocol);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->final_results.size(), gt.size());
  EXPECT_GT(outcome->qd_stats.knn_nodes_visited, 0u);
}

}  // namespace
}  // namespace qdcbir
