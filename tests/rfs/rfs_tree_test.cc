#include "qdcbir/rfs/rfs_tree.h"

#include <set>

#include <gtest/gtest.h>

#include "qdcbir/core/rng.h"
#include "qdcbir/rfs/rfs_builder.h"

namespace qdcbir {
namespace {

std::vector<FeatureVector> ClusteredPoints(std::size_t clusters,
                                           std::size_t per_cluster,
                                           std::size_t dim,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FeatureVector> out;
  for (std::size_t c = 0; c < clusters; ++c) {
    FeatureVector center(dim);
    for (std::size_t d = 0; d < dim; ++d) center[d] = rng.UniformDouble(-50, 50);
    for (std::size_t i = 0; i < per_cluster; ++i) {
      FeatureVector p = center;
      for (std::size_t d = 0; d < dim; ++d) p[d] += rng.Gaussian(0.0, 0.5);
      out.push_back(std::move(p));
    }
  }
  return out;
}

RfsBuildOptions SmallOptions() {
  RfsBuildOptions options;
  options.tree.max_entries = 16;
  options.tree.min_entries = 6;
  return options;
}

class RfsTreeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tree_ = new RfsTree(
        RfsBuilder::Build(ClusteredPoints(20, 30, 6, 3), SmallOptions())
            .value());
  }
  static void TearDownTestSuite() {
    delete tree_;
    tree_ = nullptr;
  }
  static const RfsTree* tree_;
};

const RfsTree* RfsTreeTest::tree_ = nullptr;

TEST_F(RfsTreeTest, BuildRejectsEmptyInput) {
  EXPECT_FALSE(
      RfsBuilder::Build(std::vector<FeatureVector>{}, SmallOptions()).ok());
  EXPECT_FALSE(RfsBuilder::Build(FeatureStore::Empty(), SmallOptions()).ok());
  // Images without features, and images of mixed dimensionality.
  for (const std::vector<FeatureVector>& points :
       {std::vector<FeatureVector>(5),
        std::vector<FeatureVector>{FeatureVector{1.0},
                                   FeatureVector{1.0, 2.0}}}) {
    const StatusOr<RfsTree> rfs = RfsBuilder::Build(points, SmallOptions());
    ASSERT_FALSE(rfs.ok());
    EXPECT_EQ(rfs.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(RfsTreeTest, InvariantsHold) {
  const Status s = tree_->CheckInvariants();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_F(RfsTreeTest, EveryNodeHasInfoAndRepresentatives) {
  const auto levels = tree_->index().NodesByLevel();
  for (const auto& level_nodes : levels) {
    for (const NodeId id : level_nodes) {
      ASSERT_TRUE(tree_->has_info(id));
      EXPECT_FALSE(tree_->info(id).representatives.empty());
    }
  }
}

TEST_F(RfsTreeTest, RootSubtreeSizeIsDatabaseSize) {
  EXPECT_EQ(tree_->info(tree_->root()).subtree_size, 600u);
  EXPECT_EQ(tree_->num_images(), 600u);
}

TEST_F(RfsTreeTest, InternalRepresentativesComeFromChildren) {
  const RfsTree::NodeInfo& root = tree_->info(tree_->root());
  if (root.children.empty()) GTEST_SKIP() << "tree has a single leaf";
  for (std::size_t i = 0; i < root.representatives.size(); ++i) {
    const NodeId origin = root.rep_origin[i];
    EXPECT_NE(std::find(root.children.begin(), root.children.end(), origin),
              root.children.end());
    // The representative is also a representative of the origin child
    // (bottom-up aggregation).
    const auto& child_reps = tree_->info(origin).representatives;
    EXPECT_NE(std::find(child_reps.begin(), child_reps.end(),
                        root.representatives[i]),
              child_reps.end());
  }
}

TEST_F(RfsTreeTest, OriginOfRepresentativeAgreesWithStoredOrigin) {
  const RfsTree::NodeInfo& root = tree_->info(tree_->root());
  for (std::size_t i = 0; i < root.representatives.size(); ++i) {
    const NodeId origin =
        tree_->OriginOfRepresentative(tree_->root(),
                                      root.representatives[i]).value();
    EXPECT_EQ(origin, root.rep_origin[i]);
  }
}

TEST_F(RfsTreeTest, OriginOfNonRepresentativeFails) {
  // Find an image that is not a root representative.
  const RfsTree::NodeInfo& root = tree_->info(tree_->root());
  const std::set<ImageId> reps(root.representatives.begin(),
                               root.representatives.end());
  for (ImageId id = 0; id < tree_->num_images(); ++id) {
    if (reps.count(id) == 0) {
      EXPECT_EQ(
          tree_->OriginOfRepresentative(tree_->root(), id).status().code(),
          StatusCode::kNotFound);
      break;
    }
  }
}

TEST_F(RfsTreeTest, LeafOfMapsEveryImage) {
  for (ImageId id = 0; id < tree_->num_images(); ++id) {
    const NodeId leaf = tree_->LeafOf(id);
    ASSERT_NE(leaf, kInvalidNodeId);
    const auto members = tree_->index().CollectSubtree(leaf);
    EXPECT_NE(std::find(members.begin(), members.end(), id), members.end());
  }
}

TEST_F(RfsTreeTest, SampleRepresentativesRespectsCount) {
  Rng rng(5);
  const auto sample = tree_->SampleRepresentatives(tree_->root(), 4, rng);
  EXPECT_LE(sample.size(), 4u);
  const std::set<ImageId> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), sample.size());
}

TEST_F(RfsTreeTest, RepresentativeFractionNearTarget) {
  const RfsTree::Stats stats = tree_->ComputeStats();
  // 5% target with a floor of 3 per node; small leaves inflate it a little.
  EXPECT_GT(stats.representative_fraction, 0.02);
  EXPECT_LT(stats.representative_fraction, 0.30);
  EXPECT_EQ(stats.total_images, 600u);
  EXPECT_EQ(stats.leaf_representatives, tree_->CountLeafRepresentatives());
}

TEST_F(RfsTreeTest, DiagonalAndCenterMatchIndexRects) {
  const auto levels = tree_->index().NodesByLevel();
  for (const auto& level_nodes : levels) {
    for (const NodeId id : level_nodes) {
      const Rect rect = tree_->index().NodeRect(id);
      EXPECT_EQ(tree_->info(id).center, rect.Center());
      EXPECT_DOUBLE_EQ(tree_->info(id).diagonal, rect.Diagonal());
    }
  }
}

TEST(RfsBuilderTest, InsertionBuildAlsoWorks) {
  RfsBuildOptions options;
  options.tree.max_entries = 12;
  options.tree.min_entries = 5;
  options.strategy = RfsBuildStrategy::kInsertion;
  const RfsTree tree =
      RfsBuilder::Build(ClusteredPoints(8, 25, 4, 7), options).value();
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
  EXPECT_EQ(tree.num_images(), 200u);
}

TEST(RfsBuilderTest, RepresentativeFractionKnobWorks) {
  const auto points = ClusteredPoints(10, 40, 4, 9);
  RfsBuildOptions low = SmallOptions();
  low.representatives.fraction = 0.02;
  low.representatives.min_per_node = 1;
  RfsBuildOptions high = SmallOptions();
  high.representatives.fraction = 0.15;
  high.representatives.min_per_node = 1;
  const RfsTree tree_low = RfsBuilder::Build(points, low).value();
  const RfsTree tree_high = RfsBuilder::Build(points, high).value();
  EXPECT_LT(tree_low.CountLeafRepresentatives(),
            tree_high.CountLeafRepresentatives());
}

TEST(RfsBuilderTest, SingleLeafDatabase) {
  const RfsTree tree =
      RfsBuilder::Build(ClusteredPoints(1, 10, 3, 11), SmallOptions())
          .value();
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_FALSE(tree.info(tree.root()).representatives.empty());
}

}  // namespace
}  // namespace qdcbir
