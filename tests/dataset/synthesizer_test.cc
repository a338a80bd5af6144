#include "qdcbir/dataset/synthesizer.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "qdcbir/cluster/cluster_stats.h"
#include "qdcbir/core/stats.h"

namespace qdcbir {
namespace {

class SynthesizerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogOptions catalog_options;
    catalog_options.num_categories = 40;
    catalog_ = new Catalog(Catalog::Build(catalog_options).value());
    SynthesizerOptions options;
    options.total_images = 1200;
    options.image_width = 32;
    options.image_height = 32;
    db_ = new ImageDatabase(
        DatabaseSynthesizer::Synthesize(*catalog_, options).value());
  }
  static void TearDownTestSuite() {
    delete db_;
    delete catalog_;
  }
  static const Catalog* catalog_;
  static const ImageDatabase* db_;
};

const Catalog* SynthesizerTest::catalog_ = nullptr;
const ImageDatabase* SynthesizerTest::db_ = nullptr;

TEST_F(SynthesizerTest, ExactImageCount) {
  EXPECT_EQ(db_->size(), 1200u);
  EXPECT_EQ(db_->records().size(), 1200u);
  EXPECT_EQ(db_->features().size(), 1200u);
}

TEST_F(SynthesizerTest, RejectsBadOptions) {
  SynthesizerOptions options;
  options.total_images = 0;
  EXPECT_FALSE(DatabaseSynthesizer::Synthesize(*catalog_, options).ok());
  options = SynthesizerOptions();
  options.image_width = 4;
  EXPECT_FALSE(DatabaseSynthesizer::Synthesize(*catalog_, options).ok());
}

TEST_F(SynthesizerTest, FeaturesAre37Dimensional) {
  EXPECT_EQ(db_->feature_dim(), kPaperFeatureDim);
}

TEST_F(SynthesizerTest, EverySubconceptHasImages) {
  for (const SubConceptSpec& s : catalog_->subconcepts()) {
    EXPECT_FALSE(db_->ImagesOfSubConcept(s.id).empty()) << s.name;
  }
}

TEST_F(SynthesizerTest, RecordsAreConsistent) {
  for (const ImageRecord& rec : db_->records()) {
    EXPECT_EQ(catalog_->subconcept(rec.subconcept).category, rec.category);
    const auto ids = db_->ImagesOfSubConcept(rec.subconcept);
    EXPECT_NE(std::find(ids.begin(), ids.end(), rec.id), ids.end());
  }
}

TEST_F(SynthesizerTest, FeaturesAreNormalized) {
  for (std::size_t d = 0; d < db_->feature_dim(); ++d) {
    std::vector<double> column;
    for (ImageId i = 0; i < db_->size(); ++i) {
      column.push_back(db_->feature(i)[d]);
    }
    EXPECT_NEAR(Mean(column), 0.0, 1e-6) << "dim " << d;
    const double sd = StdDev(column);
    // Constant dimensions normalize to zero, all others to unit scale.
    EXPECT_TRUE(sd < 1e-6 || std::abs(sd - 1.0) < 1e-6) << "dim " << d;
  }
}

TEST_F(SynthesizerTest, ChannelFeaturesPresentAndDistinct) {
  ASSERT_TRUE(db_->has_channel_features());
  const FeatureRow original =
      db_->channel_feature(ViewpointChannel::kOriginal, 0);
  const FeatureRow gray = db_->channel_feature(ViewpointChannel::kGray, 0);
  EXPECT_EQ(original.size(), gray.size());
  EXPECT_FALSE(std::ranges::equal(original, gray));
}

TEST_F(SynthesizerTest, RenderIsDeterministic) {
  const Image a = db_->Render(5);
  const Image b = db_->Render(5);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.width(), 32);
}

TEST_F(SynthesizerTest, LabelsAreHumanReadable) {
  const std::string label = db_->LabelOf(0);
  EXPECT_NE(label.find('/'), std::string::npos);
}

TEST_F(SynthesizerTest, SubconceptsFormSeparatedClusters) {
  // The dataset reproduces the paper's premise: sub-concepts cluster.
  std::vector<FeatureVector> points;
  std::vector<int> labels;
  labels.reserve(db_->size());
  for (const ImageRecord& rec : db_->records()) {
    points.emplace_back(db_->feature(rec.id));
    labels.push_back(static_cast<int>(rec.subconcept));
  }
  const ClusterSeparationStats stats = ComputeSeparation(points, labels);
  EXPECT_GT(stats.mean_inter_centroid_dist,
            3.0 * stats.mean_intra_radius);
}

TEST_F(SynthesizerTest, DeterministicAcrossRuns) {
  SynthesizerOptions options;
  options.total_images = 100;
  options.image_width = 24;
  options.image_height = 24;
  options.extract_viewpoint_channels = false;
  const ImageDatabase a =
      DatabaseSynthesizer::Synthesize(*catalog_, options).value();
  const ImageDatabase b =
      DatabaseSynthesizer::Synthesize(*catalog_, options).value();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(a.feature(i), b.feature(i)));
  }
}

TEST_F(SynthesizerTest, SubsampleKeepsStratification) {
  const ImageDatabase sub =
      DatabaseSynthesizer::Subsample(*db_, 600).value();
  EXPECT_EQ(sub.size(), 600u);
  // Every sub-concept survives.
  for (const SubConceptSpec& s : catalog_->subconcepts()) {
    EXPECT_FALSE(sub.ImagesOfSubConcept(s.id).empty()) << s.name;
  }
  // Ids are dense and records consistent.
  for (std::size_t i = 0; i < sub.size(); ++i) {
    EXPECT_EQ(sub.record(i).id, i);
  }
}

TEST_F(SynthesizerTest, SubsampleRejectsBadSizes) {
  EXPECT_FALSE(DatabaseSynthesizer::Subsample(*db_, 0).ok());
  EXPECT_FALSE(DatabaseSynthesizer::Subsample(*db_, db_->size() + 1).ok());
}

TEST_F(SynthesizerTest, SubsampleKeepsChannelFeatures) {
  const ImageDatabase sub =
      DatabaseSynthesizer::Subsample(*db_, 300).value();
  EXPECT_TRUE(sub.has_channel_features());
  EXPECT_EQ(sub.channel_features(ViewpointChannel::kGray).size(), 300u);
}

}  // namespace
}  // namespace qdcbir
