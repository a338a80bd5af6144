// End-to-end integration tests: synthetic database -> features -> RFS ->
// interactive sessions -> metrics. These exercise the paper's headline
// claims at reduced scale:
//   1. QD achieves full GTIR on multi-sub-concept queries where MV does not.
//   2. QD's precision beats MV's on scattered-concept queries.
//   3. Feedback processing touches no k-NN until the final round.
//   4. The serialized RFS reproduces identical retrieval results.

#include <gtest/gtest.h>

#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/eval/session_runner.h"
#include "qdcbir/query/mv_engine.h"
#include "qdcbir/rfs/rfs_builder.h"
#include "qdcbir/rfs/rfs_serialization.h"

namespace qdcbir {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogOptions catalog_options;
    catalog_options.num_categories = 50;
    Catalog catalog = Catalog::Build(catalog_options).value();
    SynthesizerOptions options;
    options.total_images = 2000;
    options.image_width = 40;
    options.image_height = 40;
    db_ = new ImageDatabase(
        DatabaseSynthesizer::Synthesize(catalog, options).value());

    RfsBuildOptions build;
    build.tree.max_entries = 50;
    build.tree.min_entries = 20;
    // The paper's 5% representative fraction is calibrated for 15k images /
    // 150 categories; at this reduced scale the same coverage (a few
    // representatives per sub-concept) needs a larger fraction.
    build.representatives.fraction = 0.12;
    build.representatives.min_per_node = 4;
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

  static RunOutcome RunQd(const QueryGroundTruth& gt, std::uint64_t seed) {
    ProtocolOptions protocol;
    protocol.seed = seed;
    return SessionRunner::RunQd(*rfs_, gt, QdOptions{}, protocol).value();
  }

  static RunOutcome RunMv(const QueryGroundTruth& gt, std::uint64_t seed) {
    ProtocolOptions protocol;
    protocol.seed = seed;
    MvEngine engine(db_);
    return SessionRunner::RunEngine(engine, gt, protocol).value();
  }

  static const ImageDatabase* db_;
  static const RfsTree* rfs_;
};

const ImageDatabase* IntegrationTest::db_ = nullptr;
const RfsTree* IntegrationTest::rfs_ = nullptr;

TEST_F(IntegrationTest, RfsInvariantsAtScale) {
  EXPECT_TRUE(rfs_->CheckInvariants().ok())
      << rfs_->CheckInvariants().ToString();
  const RfsTree::Stats stats = rfs_->ComputeStats();
  EXPECT_GE(stats.height, 2);
  EXPECT_GT(stats.representative_fraction, 0.03);
}

TEST_F(IntegrationTest, QdCoversAllBirdSubconcepts) {
  // Paper Table 1, "Bird": QD reaches GTIR 1 while MV stalls at 1/3.
  const QueryGroundTruth gt = Gt("bird");
  const RunOutcome qd = RunQd(gt, 1);
  EXPECT_DOUBLE_EQ(qd.final_gtir, 1.0);
}

TEST_F(IntegrationTest, QdBeatsMvOnScatteredConcepts) {
  // Averaged over several scattered-concept queries and seeds, QD wins on
  // both precision and GTIR (the paper's central claim).
  double qd_precision = 0.0, mv_precision = 0.0;
  double qd_gtir = 0.0, mv_gtir = 0.0;
  int runs = 0;
  for (const char* query : {"bird", "car", "a_person"}) {
    const QueryGroundTruth gt = Gt(query);
    for (std::uint64_t seed : {1ull, 2ull}) {
      const RunOutcome qd = RunQd(gt, seed);
      const RunOutcome mv = RunMv(gt, seed);
      qd_precision += qd.final_precision;
      mv_precision += mv.final_precision;
      qd_gtir += qd.final_gtir;
      mv_gtir += mv.final_gtir;
      ++runs;
    }
  }
  qd_precision /= runs;
  mv_precision /= runs;
  qd_gtir /= runs;
  mv_gtir /= runs;
  EXPECT_GT(qd_gtir, mv_gtir);
  EXPECT_GT(qd_precision, mv_precision);
}

TEST_F(IntegrationTest, QdFeedbackRoundsAreCheaperThanGlobalScans) {
  // The efficiency claim: QD feedback rounds sample representatives only;
  // the baselines scan the whole database every round.
  const QueryGroundTruth gt = Gt("car");
  const RunOutcome qd = RunQd(gt, 3);
  const RunOutcome mv = RunMv(gt, 3);
  // MV scanned the database at least once per round per channel.
  EXPECT_GE(mv.global_stats.candidates_scanned, db_->size());
  // QD's total k-NN candidate work is a fraction of one database scan per
  // subquery (localized leaves, possibly expanded).
  EXPECT_LT(qd.qd_stats.knn_candidates,
            mv.global_stats.candidates_scanned);
}

TEST_F(IntegrationTest, SerializedRfsGivesIdenticalSessions) {
  const std::string blob = RfsSerializer::Serialize(*rfs_);
  const RfsTree restored = RfsSerializer::Deserialize(blob).value();
  const QueryGroundTruth gt = Gt("rose");
  ProtocolOptions protocol;
  protocol.seed = 5;
  const RunOutcome a =
      SessionRunner::RunQd(*rfs_, gt, QdOptions{}, protocol).value();
  const RunOutcome b =
      SessionRunner::RunQd(restored, gt, QdOptions{}, protocol).value();
  EXPECT_EQ(a.final_results, b.final_results);
}

TEST_F(IntegrationTest, AllElevenQueriesRunToCompletion) {
  for (const QueryConceptSpec& spec : db_->catalog().queries()) {
    const QueryGroundTruth gt = BuildGroundTruth(*db_, spec).value();
    ProtocolOptions protocol;
    protocol.seed = 7;
    const StatusOr<RunOutcome> outcome =
        SessionRunner::RunQd(*rfs_, gt, QdOptions{}, protocol);
    ASSERT_TRUE(outcome.ok()) << spec.name << ": "
                              << outcome.status().ToString();
    EXPECT_EQ(outcome->final_results.size(), gt.size()) << spec.name;
    EXPECT_GT(outcome->final_gtir, 0.0) << spec.name;
  }
}

TEST_F(IntegrationTest, SubsampledDatabaseStillSupportsSessions) {
  // The scalability sweep path: subsample -> rebuild RFS -> run.
  const ImageDatabase small =
      DatabaseSynthesizer::Subsample(*db_, 800).value();
  RfsBuildOptions build;
  build.tree.max_entries = 40;
  build.tree.min_entries = 16;
  const RfsTree tree = RfsBuilder::Build(small.feature_store(), build).value();
  const QueryGroundTruth gt =
      BuildGroundTruth(small, small.catalog().FindQuery("bird").value())
          .value();
  ProtocolOptions protocol;
  protocol.seed = 9;
  const StatusOr<RunOutcome> outcome =
      SessionRunner::RunQd(tree, gt, QdOptions{}, protocol);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GT(outcome->final_gtir, 0.3);
}

}  // namespace
}  // namespace qdcbir
