#include "qdcbir/index/str_bulk_load.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "qdcbir/core/distance.h"
#include "qdcbir/core/rng.h"

namespace qdcbir {
namespace {

std::vector<FeatureVector> RandomPoints(std::size_t n, std::size_t dim,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FeatureVector> out;
  for (std::size_t i = 0; i < n; ++i) {
    FeatureVector v(dim);
    for (std::size_t d = 0; d < dim; ++d) v[d] = rng.UniformDouble(0.0, 100.0);
    out.push_back(std::move(v));
  }
  return out;
}

std::shared_ptr<const FeatureStore> StoreOf(std::vector<FeatureVector> rows) {
  return std::make_shared<const FeatureStore>(std::move(rows));
}

std::vector<ImageId> Iota(std::size_t n) {
  std::vector<ImageId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<ImageId>(i);
  return ids;
}

TEST(BulkLoadTest, RejectsBadInputs) {
  EXPECT_FALSE(BulkLoadRStarTree(nullptr, Iota(1)).ok());
  const auto store = StoreOf(RandomPoints(5, 2, 1));
  EXPECT_FALSE(BulkLoadRStarTree(store, {}).ok());
  EXPECT_EQ(BulkLoadRStarTree(store, {0, 5}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(
      BulkLoadRStarTree(store, Iota(5), RStarTreeOptions(), 0.0).ok());
  EXPECT_FALSE(
      BulkLoadRStarTree(store, Iota(5), RStarTreeOptions(), 1.5).ok());
}

TEST(BulkLoadTest, SinglePoint) {
  // One row of a larger store: the tree indexes only the ids it is given.
  const auto points = RandomPoints(43, 2, 1);
  const RStarTree tree = BulkLoadRStarTree(StoreOf(points), {42}).value();
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  const auto matches = tree.KnnSearch(points[0], 1);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].id, 42u);
}

class BulkLoadSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(BulkLoadSizeTest, InvariantsAndCompleteness) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  RStarTreeOptions options;
  options.max_entries = 16;
  options.min_entries = 6;
  const RStarTree tree =
      BulkLoadRStarTree(StoreOf(RandomPoints(n, 5, 100 + n)), Iota(n), options)
          .value();
  EXPECT_EQ(tree.size(), n);
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
  const auto all = tree.CollectSubtree(tree.root());
  EXPECT_EQ(std::set<ImageId>(all.begin(), all.end()).size(), n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BulkLoadSizeTest,
                         ::testing::Values(1, 2, 15, 16, 17, 100, 257, 1000));

TEST(BulkLoadTest, KnnMatchesBruteForce) {
  const auto points = RandomPoints(600, 6, 31);
  const RStarTree tree = BulkLoadRStarTree(StoreOf(points), Iota(600)).value();
  Rng rng(5);
  for (int q = 0; q < 10; ++q) {
    FeatureVector query(6);
    for (int d = 0; d < 6; ++d) query[d] = rng.UniformDouble(0.0, 100.0);
    const auto actual = tree.KnnSearch(query, 15);
    // Brute-force comparison.
    std::vector<double> dists;
    for (const auto& p : points) dists.push_back(SquaredL2(p, query));
    std::sort(dists.begin(), dists.end());
    ASSERT_EQ(actual.size(), 15u);
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_NEAR(actual[i].distance_squared, dists[i], 1e-9);
    }
  }
}

TEST(BulkLoadTest, ProducesHighOccupancy) {
  RStarTreeOptions options;
  options.max_entries = 50;
  options.min_entries = 20;
  const RStarTree tree = BulkLoadRStarTree(StoreOf(RandomPoints(2000, 4, 37)),
                                           Iota(2000), options, 0.85)
                             .value();
  const RStarTree::Stats stats = tree.ComputeStats();
  EXPECT_GT(stats.avg_leaf_occupancy, 0.6);
}

TEST(BulkLoadTest, TreeSupportsSubsequentInsertsAndDeletes) {
  // The store holds the 200 bulk-loaded rows and 100 inserted afterwards.
  auto rows = RandomPoints(200, 3, 41);
  for (FeatureVector& p : RandomPoints(100, 3, 43)) rows.push_back(std::move(p));
  RStarTreeOptions options;
  options.max_entries = 10;
  options.min_entries = 4;
  RStarTree tree =
      BulkLoadRStarTree(StoreOf(std::move(rows)), Iota(200), options).value();

  // Mixed workload on top of the bulk-loaded structure.
  for (ImageId id = 200; id < 300; ++id) ASSERT_TRUE(tree.Insert(id).ok());
  for (ImageId id = 0; id < 50; ++id) ASSERT_TRUE(tree.Delete(id).ok());
  EXPECT_EQ(tree.size(), 250u);
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
}

TEST(BulkLoadTest, PaperScaleConfiguration) {
  // 15k points with the paper's 70..100 node capacity builds a shallow tree
  // (the paper reports 3 levels at this scale).
  RStarTreeOptions options;
  options.max_entries = 100;
  options.min_entries = 70;
  const RStarTree tree =
      BulkLoadRStarTree(StoreOf(RandomPoints(5000, 8, 47)), Iota(5000), options)
          .value();
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_LE(tree.height(), 3);
}

}  // namespace
}  // namespace qdcbir
