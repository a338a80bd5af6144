#include "qdcbir/query/fagin_engine.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "qdcbir/dataset/synthesizer.h"

namespace qdcbir {
namespace {

class FaginEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogOptions catalog_options;
    catalog_options.num_categories = 25;
    Catalog catalog = Catalog::Build(catalog_options).value();
    SynthesizerOptions options;
    options.total_images = 700;
    options.image_width = 28;
    options.image_height = 28;
    options.extract_viewpoint_channels = false;
    db_ = new ImageDatabase(
        DatabaseSynthesizer::Synthesize(catalog, options).value());
  }
  static void TearDownTestSuite() { delete db_; }

  static std::vector<ImageId> SubConceptImages(const char* name) {
    return db_->ImagesOfSubConcept(
        db_->catalog().FindSubConcept(name).value());
  }

  static const ImageDatabase* db_;
};

const ImageDatabase* FaginEngineTest::db_ = nullptr;

/// Brute-force aggregate ranking matching the engine's score definition.
std::vector<ImageId> BruteAggregateTopK(const ImageDatabase& db,
                                        const FeatureVector& centroid,
                                        std::size_t k) {
  struct Scored {
    ImageId id;
    double score;
  };
  std::vector<Scored> all;
  const FeatureLayout layout = kPaperLayout;
  for (std::size_t i = 0; i < db.size(); ++i) {
    const FeatureRow x = db.feature(i);
    auto group = [&](std::size_t b, std::size_t e) {
      double s = 0.0;
      for (std::size_t d = b; d < e; ++d) {
        s += (x[d] - centroid[d]) * (x[d] - centroid[d]);
      }
      return std::sqrt(s);
    };
    all.push_back(
        Scored{static_cast<ImageId>(i),
               group(layout.color_begin, layout.color_end) +
                   group(layout.texture_begin, layout.texture_end) +
                   group(layout.edge_begin, layout.edge_end)});
  }
  std::sort(all.begin(), all.end(), [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.id < b.id;
  });
  std::vector<ImageId> ids;
  for (std::size_t i = 0; i < k && i < all.size(); ++i) {
    ids.push_back(all[i].id);
  }
  return ids;
}

TEST_F(FaginEngineTest, FinalizeWithoutFeedbackFails) {
  FaginEngine engine(db_);
  engine.Start();
  EXPECT_EQ(engine.Finalize(10).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(FaginEngineTest, ThresholdAlgorithmMatchesBruteForceAggregate) {
  FaginEngine engine(db_);
  engine.Start();
  const std::vector<ImageId> eagles = SubConceptImages("eagle");
  ASSERT_GE(eagles.size(), 2u);
  ASSERT_TRUE(engine.Feedback({eagles[0], eagles[1]}).ok());
  const Ranking result = engine.Finalize(20).value();

  FeatureVector centroid(db_->feature_dim());
  centroid += db_->feature(eagles[0]);
  centroid += db_->feature(eagles[1]);
  centroid *= 0.5;
  const std::vector<ImageId> expected =
      BruteAggregateTopK(*db_, centroid, 20);

  ASSERT_EQ(result.size(), expected.size());
  for (std::size_t i = 0; i < result.size(); ++i) {
    EXPECT_EQ(result[i].id, expected[i]) << "rank " << i;
  }
}

TEST_F(FaginEngineTest, EarlyTerminationBeatsFullAccessCount) {
  FaginEngine engine(db_);
  engine.Start();
  const std::vector<ImageId> roses = SubConceptImages("red_rose");
  ASSERT_TRUE(engine.Feedback({roses[0], roses[1]}).ok());
  engine.Finalize(10).value();
  // TA must stop before performing the worst-case 3 sorted + 2 random
  // accesses for every object in the database.
  EXPECT_LT(engine.last_ta_accesses(), 5 * db_->size());
  EXPECT_GT(engine.last_ta_accesses(), 0u);
}

TEST_F(FaginEngineTest, RetrievesTheRelevantSubconcept) {
  FaginEngine engine(db_);
  engine.Start();
  const std::vector<ImageId> sails = SubConceptImages("sailing");
  ASSERT_GE(sails.size(), 3u);
  ASSERT_TRUE(engine.Feedback({sails[0], sails[1], sails[2]}).ok());
  const Ranking result = engine.Finalize(sails.size()).value();
  const std::set<ImageId> sail_set(sails.begin(), sails.end());
  std::size_t hits = 0;
  for (const KnnMatch& m : result) {
    if (sail_set.count(m.id) > 0) ++hits;
  }
  EXPECT_GT(hits * 2, result.size());
}

TEST_F(FaginEngineTest, ResultsSortedAndDistinct) {
  FaginEngine engine(db_);
  engine.Start();
  const std::vector<ImageId> eagles = SubConceptImages("eagle");
  ASSERT_TRUE(engine.Feedback({eagles[0]}).ok());
  const Ranking result = engine.Finalize(50).value();
  EXPECT_EQ(result.size(), 50u);
  std::set<ImageId> seen;
  for (std::size_t i = 0; i < result.size(); ++i) {
    EXPECT_TRUE(seen.insert(result[i].id).second);
    if (i > 0) {
      EXPECT_LE(result[i - 1].distance_squared, result[i].distance_squared);
    }
  }
}

}  // namespace
}  // namespace qdcbir
