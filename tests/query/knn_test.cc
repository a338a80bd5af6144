#include "qdcbir/query/knn.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "qdcbir/core/rng.h"

namespace qdcbir {
namespace {

FeatureStore LinePoints(std::size_t n) {
  // Points at x = 0, 1, 2, ... on a line: distances are predictable.
  std::vector<FeatureVector> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(FeatureVector{static_cast<double>(i), 0.0});
  }
  return FeatureStore(out);
}

TEST(BruteForceKnnTest, FindsExactNeighbors) {
  const auto table = LinePoints(10);
  const Ranking r = BruteForceKnn(table, FeatureVector{3.2, 0.0}, 3);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].id, 3u);
  EXPECT_EQ(r[1].id, 4u);
  EXPECT_EQ(r[2].id, 2u);
}

TEST(BruteForceKnnTest, KZeroReturnsEmpty) {
  EXPECT_TRUE(BruteForceKnn(LinePoints(5), FeatureVector{0.0, 0.0}, 0).empty());
}

TEST(BruteForceKnnTest, KLargerThanTableReturnsAll) {
  const Ranking r = BruteForceKnn(LinePoints(4), FeatureVector{0.0, 0.0}, 10);
  EXPECT_EQ(r.size(), 4u);
}

TEST(BruteForceKnnTest, ResultsSortedAscending) {
  Rng rng(3);
  std::vector<FeatureVector> table;
  for (int i = 0; i < 200; ++i) {
    table.push_back(
        FeatureVector{rng.UniformDouble(-5, 5), rng.UniformDouble(-5, 5)});
  }
  const Ranking r =
      BruteForceKnn(FeatureStore(table), FeatureVector{0.0, 0.0}, 50);
  for (std::size_t i = 1; i < r.size(); ++i) {
    EXPECT_LE(r[i - 1].distance_squared, r[i].distance_squared);
  }
}

TEST(BruteForceKnnSubsetTest, OnlyConsidersCandidates) {
  const auto table = LinePoints(10);
  const std::vector<ImageId> candidates = {7, 8, 9};
  const Ranking r =
      BruteForceKnnSubset(table, candidates, FeatureVector{0.0, 0.0}, 2);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].id, 7u);
  EXPECT_EQ(r[1].id, 8u);
}

TEST(BruteForceKnnSubsetTest, EmptyCandidates) {
  EXPECT_TRUE(
      BruteForceKnnSubset(LinePoints(5), {}, FeatureVector{0.0, 0.0}, 3)
          .empty());
}

TEST(BruteForceKnnWithMetricTest, WeightedMetricChangesRanking) {
  // Two points: (2, 0) and (0, 3). Plain L2 prefers the first; weighting
  // the x dimension heavily prefers the second.
  const FeatureStore table(std::vector<FeatureVector>{
      FeatureVector{2.0, 0.0}, FeatureVector{0.0, 3.0}});
  const FeatureVector query{0.0, 0.0};
  L2Distance plain;
  EXPECT_EQ(BruteForceKnnWithMetric(table, query, 1, plain)[0].id, 0u);
  WeightedL2Distance weighted({100.0, 0.1});
  EXPECT_EQ(BruteForceKnnWithMetric(table, query, 1, weighted)[0].id, 1u);
}

TEST(MergeRankingsTest, DeduplicatesKeepingBestDistance) {
  const Ranking a = {{1, 4.0}, {2, 9.0}};
  const Ranking b = {{2, 1.0}, {3, 16.0}};
  const Ranking merged = MergeRankings({a, b}, 10);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].id, 2u);  // best distance 1.0 wins
  EXPECT_DOUBLE_EQ(merged[0].distance_squared, 1.0);
  EXPECT_EQ(merged[1].id, 1u);
  EXPECT_EQ(merged[2].id, 3u);
}

TEST(MergeRankingsTest, TruncatesToK) {
  const Ranking a = {{1, 1.0}, {2, 2.0}, {3, 3.0}};
  EXPECT_EQ(MergeRankings({a}, 2).size(), 2u);
}

TEST(MergeRankingsTest, EmptyInputs) {
  EXPECT_TRUE(MergeRankings({}, 5).empty());
  EXPECT_TRUE(MergeRankings({Ranking{}, Ranking{}}, 5).empty());
}

std::vector<FeatureVector> RandomTable(std::size_t n, std::size_t dim,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FeatureVector> out;
  for (std::size_t i = 0; i < n; ++i) {
    FeatureVector v(dim);
    for (std::size_t d = 0; d < dim; ++d) v[d] = rng.UniformDouble(-3.0, 3.0);
    out.push_back(std::move(v));
  }
  return out;
}

TEST(BruteForceKnnBlockedTest, MatchesPerVectorScanBitwise) {
  // Parity across a size that exercises full and tail blocks.
  for (const std::size_t n : {1u, 8u, 9u, 100u, 103u}) {
    const auto table = RandomTable(n, 11, 41);
    const FeatureBlockTable blocks(table);
    FeatureVector query(11);
    for (std::size_t d = 0; d < 11; ++d) query[d] = 0.1 * double(d) - 0.5;
    const Ranking legacy = BruteForceKnn(FeatureStore(table), query, 20);
    const Ranking blocked = BruteForceKnnBlocked(blocks, query, 20);
    ASSERT_EQ(legacy.size(), blocked.size()) << "n=" << n;
    for (std::size_t i = 0; i < legacy.size(); ++i) {
      EXPECT_EQ(legacy[i].id, blocked[i].id) << "n=" << n;
      EXPECT_EQ(legacy[i].distance_squared, blocked[i].distance_squared)
          << "n=" << n;  // bitwise, per the kernel parity contract
    }
  }
}

TEST(BruteForceWeightedKnnBlockedTest, MatchesMetricScanBitwise) {
  for (const std::size_t n : {1u, 8u, 9u, 100u, 103u}) {
    const auto table = RandomTable(n, 9, 43);
    const FeatureBlockTable blocks(table);
    FeatureVector query(9);
    std::vector<double> weights(9);
    Rng rng(5);
    for (std::size_t d = 0; d < 9; ++d) {
      query[d] = rng.UniformDouble(-1.0, 1.0);
      weights[d] = d % 3 == 0 ? 0.0 : rng.UniformDouble(0.0, 2.0);
    }
    const WeightedL2Distance metric(weights);
    const Ranking legacy =
        BruteForceKnnWithMetric(FeatureStore(table), query, 15, metric);
    const Ranking blocked =
        BruteForceWeightedKnnBlocked(blocks, query, weights, 15);
    ASSERT_EQ(legacy.size(), blocked.size()) << "n=" << n;
    for (std::size_t i = 0; i < legacy.size(); ++i) {
      EXPECT_EQ(legacy[i].id, blocked[i].id) << "n=" << n;
      EXPECT_EQ(legacy[i].distance_squared, blocked[i].distance_squared)
          << "n=" << n;
    }
  }
}

TEST(BruteForceKnnBlockedTest, EmptyTableAndKZero) {
  const FeatureBlockTable empty;
  EXPECT_TRUE(BruteForceKnnBlocked(empty, FeatureVector{}, 3).empty());
  const auto table = RandomTable(5, 4, 2);
  const FeatureBlockTable blocks(table);
  EXPECT_TRUE(BruteForceKnnBlocked(blocks, FeatureVector(4), 0).empty());
}

}  // namespace
}  // namespace qdcbir
