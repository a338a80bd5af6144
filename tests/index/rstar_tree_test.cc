#include "qdcbir/index/rstar_tree.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>

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
    for (std::size_t d = 0; d < dim; ++d) v[d] = rng.UniformDouble(-10.0, 10.0);
    out.push_back(std::move(v));
  }
  return out;
}

std::shared_ptr<const FeatureStore> StoreOf(std::vector<FeatureVector> rows) {
  return std::make_shared<const FeatureStore>(std::move(rows));
}

std::vector<KnnMatch> BruteKnn(const std::vector<FeatureVector>& points,
                               const FeatureVector& q, std::size_t k) {
  std::vector<KnnMatch> all;
  for (std::size_t i = 0; i < points.size(); ++i) {
    all.push_back(KnnMatch{static_cast<ImageId>(i), SquaredL2(points[i], q)});
  }
  std::sort(all.begin(), all.end(), [](const KnnMatch& a, const KnnMatch& b) {
    return a.distance_squared < b.distance_squared;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

RStarTreeOptions SmallNodes() {
  RStarTreeOptions options;
  options.max_entries = 8;
  options.min_entries = 3;
  return options;
}

/// A tree indexing every row of `points`, inserted in row order.
RStarTree InsertAll(std::vector<FeatureVector> points,
                    const RStarTreeOptions& options = SmallNodes()) {
  RStarTree tree(StoreOf(std::move(points)), options);
  for (ImageId id = 0; id < tree.store()->size(); ++id) {
    EXPECT_TRUE(tree.Insert(id).ok()) << "insert " << id;
  }
  return tree;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(RStarOptionsTest, Validation) {
  RStarTreeOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.max_entries = 2;
  EXPECT_FALSE(options.Validate().ok());
  options = RStarTreeOptions();
  options.min_entries = 1;
  EXPECT_FALSE(options.Validate().ok());
  options = RStarTreeOptions();
  options.min_entries = options.max_entries + 1;
  EXPECT_FALSE(options.Validate().ok());
  options = RStarTreeOptions();
  options.reinsert_fraction = 0.0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(RStarTreeTest, EmptyTree) {
  RStarTree tree(StoreOf(RandomPoints(3, 2, 1)), SmallNodes());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.dim(), 2u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_TRUE(tree.KnnSearch(FeatureVector{0.0, 0.0}, 5).empty());
}

TEST(RStarTreeTest, InsertRejectsIdsOutsideTheStore) {
  RStarTree tree(StoreOf(RandomPoints(3, 2, 1)), SmallNodes());
  EXPECT_EQ(tree.Insert(3).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tree.Insert(kInvalidImageId).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tree.size(), 0u);
}

TEST(RStarTreeTest, SmallInsertAndExactSearch) {
  const auto points = RandomPoints(5, 2, 1);
  const RStarTree tree = InsertAll(points);
  EXPECT_EQ(tree.size(), 5u);
  EXPECT_EQ(tree.height(), 1);  // fits in the root leaf
  const auto matches = tree.KnnSearch(points[3], 1);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].id, 3u);
  EXPECT_EQ(matches[0].distance_squared, 0.0);
}

// An entry is a reference, a child id and an image id; the geometry lives
// on the nodes and in the store.
static_assert(sizeof(RStarTree::Entry) == 8);

TEST(RStarTreeTest, LeafEntriesAreStoreRows) {
  const RStarTree tree = InsertAll(RandomPoints(100, 3, 3));
  const auto levels = tree.NodesByLevel();
  ASSERT_GT(levels[0].size(), 1u);
  for (const NodeId leaf : levels[0]) {
    const Rect& mbr = tree.node(leaf).rect;
    EXPECT_TRUE(mbr == tree.NodeRect(leaf)) << "leaf " << leaf;
    for (const RStarTree::Entry& e : tree.node(leaf).entries) {
      EXPECT_TRUE(mbr.ContainsPoint(tree.point(e.data)));
      EXPECT_EQ(e.child, kInvalidNodeId);
      EXPECT_EQ(tree.point(e.data).data(),
                tree.store()->row(e.data).data());
    }
  }
}

TEST(RStarTreeTest, GrowsAndKeepsInvariants) {
  RStarTree tree(StoreOf(RandomPoints(300, 3, 2)), SmallNodes());
  for (ImageId i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree.Insert(i).ok());
    if (i % 50 == 0) {
      ASSERT_TRUE(tree.CheckInvariants().ok())
          << tree.CheckInvariants().ToString() << " at insert " << i;
    }
  }
  EXPECT_EQ(tree.size(), 300u);
  EXPECT_GT(tree.height(), 1);
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
}

class KnnEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(KnnEquivalenceTest, KnnMatchesBruteForce) {
  const auto [n, dim, k] = GetParam();
  const auto points = RandomPoints(n, dim, 42 + n + dim);
  const RStarTree tree = InsertAll(points);
  Rng rng(7);
  for (int q = 0; q < 10; ++q) {
    FeatureVector query(dim);
    for (int d = 0; d < dim; ++d) query[d] = rng.UniformDouble(-12.0, 12.0);
    const auto expected = BruteKnn(points, query, k);
    const auto actual = tree.KnnSearch(query, k);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
      // Ids may differ on exact distance ties; distances must match.
      EXPECT_NEAR(actual[i].distance_squared, expected[i].distance_squared,
                  1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KnnEquivalenceTest,
    ::testing::Values(std::make_tuple(50, 2, 5), std::make_tuple(200, 2, 10),
                      std::make_tuple(200, 8, 10), std::make_tuple(500, 4, 25),
                      std::make_tuple(300, 16, 7),
                      std::make_tuple(1000, 3, 50)));

TEST(RStarTreeTest, LeafDistancesAreDegenerateRectMinDistBitForBit) {
  // Coordinates on a coarse grid, with whole rows repeated: many exact
  // duplicates and distance ties. The index reads leaf points from the
  // store, yet every distance it reports must be the bits of
  // `Rect(point).MinDistSquared`, and its ranking a sort by that key with
  // ties broken by id.
  Rng rng(29);
  std::vector<FeatureVector> points;
  for (int i = 0; i < 400; ++i) {
    if (i > 0 && rng.UniformDouble() < 0.25) {
      points.push_back(points[rng.UniformInt(points.size())]);
      continue;
    }
    FeatureVector p(5);
    for (std::size_t d = 0; d < 5; ++d) {
      p[d] = 0.1 * static_cast<double>(rng.UniformInt(7));
    }
    points.push_back(std::move(p));
  }
  const RStarTree tree = InsertAll(points);
  ASSERT_GT(tree.height(), 2);

  const auto check = [&](NodeId subtree, const FeatureVector& query,
                         std::size_t k) {
    std::vector<std::pair<double, ImageId>> expected;
    for (const ImageId id : tree.CollectSubtree(subtree)) {
      expected.emplace_back(Rect(points[id]).MinDistSquared(query), id);
    }
    std::sort(expected.begin(), expected.end());
    expected.resize(std::min(k, expected.size()));
    const auto actual = tree.KnnSearchInSubtree(subtree, query, k);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
      EXPECT_TRUE(SameBits(actual[i].distance_squared, expected[i].first))
          << i;
      EXPECT_EQ(actual[i].id, expected[i].second) << i;
    }
  };
  std::vector<NodeId> subtrees = {tree.root()};
  for (const RStarTree::Entry& e : tree.node(tree.root()).entries) {
    subtrees.push_back(e.child);
  }
  for (int q = 0; q < 20; ++q) {
    // Half the queries are rows themselves, so zero distances tie too.
    const FeatureVector query =
        q % 2 == 0 ? points[rng.UniformInt(points.size())]
                   : RandomPoints(1, 5, 300 + q)[0];
    for (const NodeId subtree : subtrees) {
      check(subtree, query, 1 + rng.UniformInt(60));
    }
  }
}

TEST(RStarTreeTest, RangeSearchMatchesLinearScan) {
  const auto points = RandomPoints(400, 3, 9);
  const RStarTree tree = InsertAll(points);
  const Rect range({-3.0, -3.0, -3.0}, {3.0, 3.0, 3.0});
  std::set<ImageId> expected;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (range.ContainsPoint(points[i])) {
      expected.insert(static_cast<ImageId>(i));
    }
  }
  const auto found = tree.RangeSearch(range);
  const std::set<ImageId> actual(found.begin(), found.end());
  EXPECT_EQ(actual, expected);
}

TEST(RStarTreeTest, KnnWithKLargerThanSize) {
  const RStarTree tree = InsertAll(RandomPoints(10, 2, 11));
  EXPECT_EQ(tree.KnnSearch(FeatureVector{0.0, 0.0}, 100).size(), 10u);
}

TEST(RStarTreeTest, KnnResultsSortedAscending) {
  const auto points = RandomPoints(150, 4, 13);
  const RStarTree tree = InsertAll(points);
  const auto matches = tree.KnnSearch(points[0], 20);
  for (std::size_t i = 1; i < matches.size(); ++i) {
    EXPECT_LE(matches[i - 1].distance_squared, matches[i].distance_squared);
  }
}

TEST(RStarTreeTest, SubtreeSearchOnlySeesSubtree) {
  const RStarTree tree = InsertAll(RandomPoints(400, 2, 15));
  // Pick a child of the root; every result must come from its subtree.
  const auto& root = tree.node(tree.root());
  ASSERT_FALSE(root.IsLeaf());
  const NodeId child = root.entries.front().child;
  const auto members = tree.CollectSubtree(child);
  const std::set<ImageId> member_set(members.begin(), members.end());
  const auto matches =
      tree.KnnSearchInSubtree(child, FeatureVector{0.0, 0.0}, 50);
  EXPECT_FALSE(matches.empty());
  for (const KnnMatch& m : matches) {
    EXPECT_TRUE(member_set.count(m.id) > 0);
  }
}

TEST(RStarTreeTest, CollectSubtreeFromRootReturnsAll) {
  const RStarTree tree = InsertAll(RandomPoints(120, 2, 17));
  const auto all = tree.CollectSubtree(tree.root());
  EXPECT_EQ(all.size(), 120u);
  const std::set<ImageId> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), 120u);
}

TEST(RStarTreeTest, NodesByLevelPartitionsNodes) {
  const RStarTree tree = InsertAll(RandomPoints(300, 3, 19));
  const auto levels = tree.NodesByLevel();
  EXPECT_EQ(static_cast<int>(levels.size()), tree.height());
  EXPECT_EQ(levels.back().size(), 1u);  // root level
  for (std::size_t level = 0; level < levels.size(); ++level) {
    for (const NodeId id : levels[level]) {
      EXPECT_EQ(tree.node(id).level, static_cast<int>(level));
    }
  }
}

TEST(RStarTreeTest, DeleteRemovesAndKeepsInvariants) {
  RStarTree tree = InsertAll(RandomPoints(200, 2, 21));
  // Delete half the points.
  for (ImageId i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Delete(i).ok()) << "delete " << i;
    if (i % 25 == 0) {
      ASSERT_TRUE(tree.CheckInvariants().ok())
          << tree.CheckInvariants().ToString();
    }
  }
  EXPECT_EQ(tree.size(), 100u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  // Deleted points are gone; the rest are findable.
  EXPECT_FALSE(tree.Delete(0).ok());
  const auto matches = tree.KnnSearch(tree.point(150), 1);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].id, 150u);
}

TEST(RStarTreeTest, DeleteToEmpty) {
  RStarTree tree = InsertAll(RandomPoints(50, 2, 23));
  for (ImageId i = 0; i < 50; ++i) ASSERT_TRUE(tree.Delete(i).ok());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.KnnSearch(FeatureVector{0.0, 0.0}, 5).empty());
}

TEST(RStarTreeTest, DeleteNotFound) {
  RStarTree tree(StoreOf({FeatureVector{1.0, 1.0}, FeatureVector{2.0, 2.0}}),
                 SmallNodes());
  ASSERT_TRUE(tree.Insert(0).ok());
  EXPECT_EQ(tree.Delete(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree.Delete(2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(RStarTreeTest, DuplicatePointsAreSupported) {
  const FeatureVector p{1.0, 1.0};
  const RStarTree tree = InsertAll(std::vector<FeatureVector>(30, p));
  EXPECT_EQ(tree.size(), 30u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.KnnSearch(p, 30).size(), 30u);
}

TEST(RStarTreeTest, StatsReflectStructure) {
  const RStarTree tree = InsertAll(RandomPoints(300, 2, 25));
  const RStarTree::Stats stats = tree.ComputeStats();
  EXPECT_EQ(stats.height, tree.height());
  EXPECT_GT(stats.leaf_count, 0u);
  EXPECT_GE(stats.node_count, stats.leaf_count);
  EXPECT_GT(stats.avg_leaf_occupancy, 0.3);
  EXPECT_LE(stats.avg_leaf_occupancy, 1.0);
}

TEST(RStarTreeTest, PaperNodeCapacityConfiguration) {
  // The paper's 70..100 node size: the split minimum clamps internally.
  RStarTreeOptions options;
  options.max_entries = 100;
  options.min_entries = 70;
  ASSERT_TRUE(options.Validate().ok());
  const RStarTree tree = InsertAll(RandomPoints(1000, 4, 27), options);
  EXPECT_TRUE(tree.CheckInvariants().ok())
      << tree.CheckInvariants().ToString();
  EXPECT_GE(tree.height(), 2);
}

}  // namespace
}  // namespace qdcbir
