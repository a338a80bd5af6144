#include "qdcbir/rfs/clustered_bulk_load.h"

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "qdcbir/core/distance.h"
#include "qdcbir/core/rng.h"

namespace qdcbir {
namespace {

struct Blobs {
  std::vector<FeatureVector> points;
  std::vector<ImageId> ids;
  std::vector<int> blob_of;  ///< blob index per point
};

Blobs MakeBlobs(int blobs, int per_blob, std::uint64_t seed) {
  Rng rng(seed);
  Blobs out;
  for (int b = 0; b < blobs; ++b) {
    FeatureVector center{rng.UniformDouble(-100, 100),
                         rng.UniformDouble(-100, 100),
                         rng.UniformDouble(-100, 100)};
    for (int i = 0; i < per_blob; ++i) {
      FeatureVector p = center;
      for (std::size_t d = 0; d < 3; ++d) p[d] += rng.Gaussian(0.0, 0.5);
      out.ids.push_back(static_cast<ImageId>(out.points.size()));
      out.points.push_back(std::move(p));
      out.blob_of.push_back(b);
    }
  }
  return out;
}

std::shared_ptr<const FeatureStore> StoreOf(std::vector<FeatureVector> rows) {
  return std::make_shared<const FeatureStore>(std::move(rows));
}

RStarTreeOptions SmallNodes() {
  RStarTreeOptions options;
  options.max_entries = 40;
  options.min_entries = 16;
  return options;
}

TEST(ClusteredBulkLoadTest, RejectsBadInputs) {
  EXPECT_FALSE(ClusteredTreeBuilder::Build(nullptr, {0}).ok());
  const Blobs blobs = MakeBlobs(2, 10, 1);
  const auto store = StoreOf(blobs.points);
  EXPECT_FALSE(ClusteredTreeBuilder::Build(store, {}).ok());
  EXPECT_EQ(ClusteredTreeBuilder::Build(store, {0, 20}).status().code(),
            StatusCode::kInvalidArgument);
  ClusteredBulkLoadOptions bad;
  bad.fill_factor = 0.0;
  EXPECT_FALSE(
      ClusteredTreeBuilder::Build(store, blobs.ids, RStarTreeOptions(), bad)
          .ok());
}

TEST(ClusteredBulkLoadTest, InvariantsAndCompleteness) {
  const Blobs blobs = MakeBlobs(12, 30, 3);
  const RStarTree tree =
      ClusteredTreeBuilder::Build(StoreOf(blobs.points), blobs.ids,
                                  SmallNodes())
          .value();
  EXPECT_EQ(tree.size(), blobs.points.size());
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
  const auto all = tree.CollectSubtree(tree.root());
  EXPECT_EQ(std::set<ImageId>(all.begin(), all.end()).size(),
            blobs.points.size());
}

TEST(ClusteredBulkLoadTest, SmallInputBecomesSingleLeaf) {
  const Blobs blobs = MakeBlobs(1, 10, 5);
  const RStarTree tree =
      ClusteredTreeBuilder::Build(StoreOf(blobs.points), blobs.ids,
                                  SmallNodes())
          .value();
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(ClusteredBulkLoadTest, LeavesKeepTightClustersIntact) {
  // The builder's purpose: a tight visual cluster should land (almost)
  // entirely inside one leaf. Blobs of 30 fit well under max_entries 40.
  const Blobs blobs = MakeBlobs(10, 30, 7);
  const RStarTree tree =
      ClusteredTreeBuilder::Build(StoreOf(blobs.points), blobs.ids,
                                  SmallNodes())
          .value();

  // Map every point to its leaf.
  std::map<ImageId, NodeId> leaf_of;
  const auto levels = tree.NodesByLevel();
  for (const NodeId leaf : levels[0]) {
    for (const ImageId id : tree.CollectSubtree(leaf)) {
      leaf_of[id] = leaf;
    }
  }
  // For each blob, count the dominant leaf's share.
  int intact_blobs = 0;
  for (int b = 0; b < 10; ++b) {
    std::map<NodeId, int> counts;
    for (std::size_t i = 0; i < blobs.points.size(); ++i) {
      if (blobs.blob_of[i] == b) counts[leaf_of[blobs.ids[i]]] += 1;
    }
    int dominant = 0;
    for (const auto& [leaf, count] : counts) dominant = std::max(dominant, count);
    if (dominant >= 24) ++intact_blobs;  // >= 80% of the blob in one leaf
  }
  EXPECT_GE(intact_blobs, 8);  // at least 8 of 10 blobs stay whole
}

TEST(ClusteredBulkLoadTest, KnnMatchesBruteForce) {
  const Blobs blobs = MakeBlobs(8, 40, 9);
  const RStarTree tree =
      ClusteredTreeBuilder::Build(StoreOf(blobs.points), blobs.ids,
                                  SmallNodes())
          .value();
  Rng rng(11);
  for (int q = 0; q < 5; ++q) {
    FeatureVector query{rng.UniformDouble(-100, 100),
                        rng.UniformDouble(-100, 100),
                        rng.UniformDouble(-100, 100)};
    std::vector<double> dists;
    for (const auto& p : blobs.points) dists.push_back(SquaredL2(p, query));
    std::sort(dists.begin(), dists.end());
    const auto matches = tree.KnnSearch(query, 10);
    ASSERT_EQ(matches.size(), 10u);
    for (std::size_t i = 0; i < matches.size(); ++i) {
      EXPECT_NEAR(matches[i].distance_squared, dists[i], 1e-9);
    }
  }
}

TEST(ClusteredBulkLoadTest, DeterministicForFixedSeed) {
  const Blobs blobs = MakeBlobs(6, 25, 13);
  const auto store = StoreOf(blobs.points);
  const RStarTree a =
      ClusteredTreeBuilder::Build(store, blobs.ids, SmallNodes()).value();
  const RStarTree b =
      ClusteredTreeBuilder::Build(store, blobs.ids, SmallNodes()).value();
  EXPECT_EQ(a.height(), b.height());
  EXPECT_EQ(a.ComputeStats().node_count, b.ComputeStats().node_count);
  const auto ma = a.KnnSearch(blobs.points[0], 5);
  const auto mb = b.KnnSearch(blobs.points[0], 5);
  ASSERT_EQ(ma.size(), mb.size());
  for (std::size_t i = 0; i < ma.size(); ++i) EXPECT_EQ(ma[i].id, mb[i].id);
}

TEST(ClusteredBulkLoadTest, SupportsSubsequentDynamicUpdates) {
  const Blobs blobs = MakeBlobs(6, 30, 15);
  // The store also holds the 50 rows inserted after the build.
  std::vector<FeatureVector> rows = blobs.points;
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    rows.push_back(FeatureVector{rng.Gaussian(), rng.Gaussian(),
                                 rng.Gaussian()});
  }
  RStarTree tree =
      ClusteredTreeBuilder::Build(StoreOf(std::move(rows)), blobs.ids,
                                  SmallNodes())
          .value();
  for (ImageId id = 0; id < 40; ++id) ASSERT_TRUE(tree.Delete(id).ok());
  for (ImageId id = 180; id < 230; ++id) ASSERT_TRUE(tree.Insert(id).ok());
  EXPECT_EQ(tree.size(), 180u - 40u + 50u);
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
}

class ClusteredLoadSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(ClusteredLoadSizeTest, InvariantsAcrossSizes) {
  Rng rng(100 + GetParam());
  std::vector<FeatureVector> points;
  std::vector<ImageId> ids;
  for (int i = 0; i < GetParam(); ++i) {
    points.push_back(FeatureVector{rng.Gaussian(), rng.Gaussian()});
    ids.push_back(static_cast<ImageId>(i));
  }
  RStarTreeOptions options;
  options.max_entries = 10;
  options.min_entries = 4;
  const RStarTree tree =
      ClusteredTreeBuilder::Build(StoreOf(std::move(points)), ids, options)
          .value();
  EXPECT_EQ(tree.size(), ids.size());
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << GetParam() << ": " << tree.CheckInvariants().ToString();
}

INSTANTIATE_TEST_SUITE_P(Sizes, ClusteredLoadSizeTest,
                         ::testing::Values(1, 9, 10, 11, 21, 55, 100, 333));

}  // namespace
}  // namespace qdcbir
