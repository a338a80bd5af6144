#include "qdcbir/core/feature_block.h"

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "qdcbir/core/feature_vector.h"
#include "qdcbir/core/rng.h"

namespace qdcbir {
namespace {

std::vector<FeatureVector> RandomFeatures(std::size_t n, std::size_t dim,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FeatureVector> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    FeatureVector v(dim);
    for (std::size_t d = 0; d < dim; ++d) v[d] = rng.UniformDouble(-1.0, 1.0);
    out.push_back(std::move(v));
  }
  return out;
}

TEST(FeatureBlockTableTest, EmptyTable) {
  FeatureBlockTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.dim(), 0u);
  EXPECT_EQ(table.num_blocks(), 0u);
  EXPECT_EQ(table.MemoryBytes(), 0u);

  FeatureBlockTable from_empty{std::vector<FeatureVector>{}};
  EXPECT_TRUE(from_empty.empty());
}

TEST(FeatureBlockTableTest, LayoutIsDimensionMajorWithinBlocks) {
  const std::size_t n = 3 * kBlockWidth + 5;  // forces a padded tail block
  const std::size_t dim = 7;
  const std::vector<FeatureVector> features = RandomFeatures(n, dim, 17);
  const FeatureBlockTable table(features);

  EXPECT_EQ(table.size(), n);
  EXPECT_EQ(table.dim(), dim);
  EXPECT_EQ(table.num_blocks(), 4u);
  for (std::size_t b = 0; b < table.num_blocks(); ++b) {
    const double* block = table.block(b);
    // Every block starts on a cache line.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(block) % 64, 0u)
        << "block " << b;
    for (std::size_t d = 0; d < dim; ++d) {
      for (std::size_t lane = 0; lane < kBlockWidth; ++lane) {
        const std::size_t i = b * kBlockWidth + lane;
        const double expect = i < n ? features[i][d] : 0.0;
        EXPECT_EQ(block[d * kBlockWidth + lane], expect)
            << "b=" << b << " d=" << d << " lane=" << lane;
      }
    }
  }
}

TEST(FeatureBlockTableTest, LanesCoversFullAndTailBlocks) {
  const FeatureBlockTable table(RandomFeatures(kBlockWidth + 3, 4, 5));
  ASSERT_EQ(table.num_blocks(), 2u);
  EXPECT_EQ(table.lanes(0), kBlockWidth);
  EXPECT_EQ(table.lanes(1), 3u);
}

TEST(FeatureBlockTableTest, AtMatchesSourceVectors) {
  const std::vector<FeatureVector> features = RandomFeatures(21, 9, 23);
  const FeatureBlockTable table(features);
  for (std::size_t i = 0; i < features.size(); ++i) {
    for (std::size_t d = 0; d < features[i].dim(); ++d) {
      EXPECT_EQ(table.at(i, d), features[i][d]);
    }
  }
}

TEST(FeatureBlockTableTest, CopyAndMovePreserveContents) {
  const std::vector<FeatureVector> features = RandomFeatures(11, 5, 7);
  FeatureBlockTable table(features);

  FeatureBlockTable copy(table);
  EXPECT_EQ(copy.size(), table.size());
  EXPECT_EQ(copy.at(10, 4), features[10][4]);

  FeatureBlockTable assigned;
  assigned = copy;
  EXPECT_EQ(assigned.at(3, 2), features[3][2]);

  FeatureBlockTable moved(std::move(copy));
  EXPECT_EQ(moved.at(10, 4), features[10][4]);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)

  assigned = std::move(moved);
  EXPECT_EQ(assigned.at(10, 4), features[10][4]);
}

TEST(FeatureBlockTableTest, MemoryBytesAccountsForPadding) {
  const FeatureBlockTable table(RandomFeatures(9, 3, 1));
  // 9 vectors -> 2 blocks of 8 lanes * 3 dims * 8 bytes, rounded to 64.
  EXPECT_GE(table.MemoryBytes(), 2 * 3 * kBlockWidth * sizeof(double));
  EXPECT_EQ(table.MemoryBytes() % 64, 0u);
}

}  // namespace
}  // namespace qdcbir
