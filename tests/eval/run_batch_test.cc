// Batched session execution (`SessionRunner::RunQdBatch` /
// `RunEngineBatch`): concurrent oracle-driven sessions model multi-user
// load, and every job must match the sequential single-session run with
// the same derived seed, at any pool size.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "qdcbir/core/thread_pool.h"
#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/eval/session_runner.h"
#include "qdcbir/query/mv_engine.h"
#include "qdcbir/rfs/rfs_builder.h"

namespace qdcbir {
namespace {

class RunBatchTest : public ::testing::Test {
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

const ImageDatabase* RunBatchTest::db_ = nullptr;
const RfsTree* RunBatchTest::rfs_ = nullptr;

TEST_F(RunBatchTest, QdBatchMatchesSequentialSessions) {
  const QueryGroundTruth bird = Gt("bird");
  const QueryGroundTruth car = Gt("car");
  const QueryGroundTruth rose = Gt("rose");
  const std::vector<const QueryGroundTruth*> gts = {&bird, &car,  &rose,
                                                    &bird, &rose, &car};
  ProtocolOptions protocol;
  protocol.seed = 100;

  ThreadPool pool(4);
  const std::vector<StatusOr<RunOutcome>> batch =
      SessionRunner::RunQdBatch(*rfs_, gts, QdOptions{}, protocol, &pool);
  ASSERT_EQ(batch.size(), gts.size());

  for (std::size_t job = 0; job < gts.size(); ++job) {
    ASSERT_TRUE(batch[job].ok()) << batch[job].status().ToString();
    ProtocolOptions job_protocol = protocol;
    job_protocol.seed = protocol.seed + job;
    const RunOutcome reference =
        SessionRunner::RunQd(*rfs_, *gts[job], QdOptions{}, job_protocol)
            .value();
    EXPECT_EQ(batch[job]->final_results, reference.final_results)
        << "job " << job;
    EXPECT_EQ(batch[job]->final_precision, reference.final_precision);
    EXPECT_EQ(batch[job]->final_recall, reference.final_recall);
    EXPECT_EQ(batch[job]->qd_stats.localized_subqueries,
              reference.qd_stats.localized_subqueries);
  }
}

TEST_F(RunBatchTest, QdBatchIdenticalAcrossPoolSizes) {
  const QueryGroundTruth bird = Gt("bird");
  const QueryGroundTruth horse = Gt("horse");
  const std::vector<const QueryGroundTruth*> gts = {&bird, &horse, &bird,
                                                    &horse};
  ProtocolOptions protocol;
  protocol.seed = 31;

  ThreadPool sequential(1);
  ThreadPool wide(8);
  const auto batch1 = SessionRunner::RunQdBatch(*rfs_, gts, QdOptions{},
                                                protocol, &sequential);
  const auto batch8 =
      SessionRunner::RunQdBatch(*rfs_, gts, QdOptions{}, protocol, &wide);
  ASSERT_EQ(batch1.size(), batch8.size());
  for (std::size_t job = 0; job < batch1.size(); ++job) {
    ASSERT_TRUE(batch1[job].ok());
    ASSERT_TRUE(batch8[job].ok());
    EXPECT_EQ(batch1[job]->final_results, batch8[job]->final_results);
  }
}

TEST_F(RunBatchTest, EngineBatchMatchesSequentialRuns) {
  const QueryGroundTruth bird = Gt("bird");
  const QueryGroundTruth car = Gt("car");
  const std::vector<const QueryGroundTruth*> gts = {&bird, &car, &bird};
  ProtocolOptions protocol;
  protocol.seed = 7;

  ThreadPool pool(4);
  const auto batch = SessionRunner::RunEngineBatch(
      [&](std::size_t) -> std::unique_ptr<FeedbackEngine> {
        return std::make_unique<MvEngine>(db_);
      },
      gts, protocol, &pool);
  ASSERT_EQ(batch.size(), gts.size());

  for (std::size_t job = 0; job < gts.size(); ++job) {
    ASSERT_TRUE(batch[job].ok()) << batch[job].status().ToString();
    ProtocolOptions job_protocol = protocol;
    job_protocol.seed = protocol.seed + job;
    MvEngine reference_engine(db_);
    const RunOutcome reference =
        SessionRunner::RunEngine(reference_engine, *gts[job], job_protocol)
            .value();
    EXPECT_EQ(batch[job]->final_results, reference.final_results)
        << "job " << job;
    EXPECT_EQ(batch[job]->final_precision, reference.final_precision);
  }
}

TEST_F(RunBatchTest, NullEngineFactoryReportsError) {
  const QueryGroundTruth bird = Gt("bird");
  const std::vector<const QueryGroundTruth*> gts = {&bird};
  ThreadPool pool(2);
  const auto batch = SessionRunner::RunEngineBatch(
      [](std::size_t) { return std::unique_ptr<FeedbackEngine>(); }, gts,
      ProtocolOptions{}, &pool);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_FALSE(batch[0].ok());
}

TEST_F(RunBatchTest, EmptyBatchIsEmpty) {
  ThreadPool pool(2);
  EXPECT_TRUE(SessionRunner::RunQdBatch(*rfs_, {}, QdOptions{},
                                        ProtocolOptions{}, &pool)
                  .empty());
}

}  // namespace
}  // namespace qdcbir
