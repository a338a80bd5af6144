#include "qdcbir/core/feature_store.h"

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

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

TEST(FeatureStoreTest, RowsAreOneRowMajorBlock) {
  const std::vector<FeatureVector> rows = RandomFeatures(29, 37, 7);
  const FeatureStore store(rows);
  ASSERT_EQ(store.size(), 29u);
  ASSERT_EQ(store.dim(), 37u);
  // The block is the rows and nothing else: no per-row header or padding.
  EXPECT_EQ(store.values().size_bytes(), 29u * 37u * sizeof(double));
  EXPECT_EQ(store.values().data(), store.row(0).data());
  for (ImageId i = 0; i < store.size(); ++i) {
    ASSERT_EQ(store.row(i).size(), store.dim());
    EXPECT_EQ(std::memcmp(store.row(i).data(), rows[i].data(),
                          store.dim() * sizeof(double)),
              0)
        << "row " << i;
    if (i + 1 < store.size()) {
      EXPECT_EQ(store.row(i + 1).data(), store.row(i).data() + store.dim());
    }
  }

  // An adopted block is served in place.
  auto block = std::make_unique_for_overwrite<double[]>(3 * 2);
  const double* at = block.get();
  const FeatureStore adopted(std::move(block), 3, 2);
  EXPECT_EQ(adopted.row(2).data(), at + 4);
  EXPECT_EQ(adopted.values().size(), 6u);
}

TEST(FeatureStoreTest, ConcurrentFirstBlocksCallsBuildOneTable) {
  // 3 full blocks plus a padded tail block.
  const std::vector<FeatureVector> rows = RandomFeatures(29, 37, 11);
  const FeatureStore store(rows);

  constexpr int kThreads = 8;
  std::atomic<int> waiting{kThreads};
  std::vector<const FeatureBlockTable*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Release every thread at once so the first calls overlap.
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      seen[t] = &store.blocks();
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  const FeatureBlockTable& built = *seen[0];
  const FeatureBlockTable expected(rows);
  ASSERT_EQ(built.size(), expected.size());
  ASSERT_EQ(built.dim(), expected.dim());
  ASSERT_EQ(built.num_blocks(), expected.num_blocks());
  for (std::size_t b = 0; b < expected.num_blocks(); ++b) {
    EXPECT_EQ(std::memcmp(built.block(b), expected.block(b),
                          expected.dim() * kBlockWidth * sizeof(double)),
              0)
        << "block " << b;
  }
  EXPECT_EQ(&store.blocks(), seen[0]);
}

TEST(FeatureStoreTest, GatherTileMatchesTheBlockedTableBitForBit) {
  struct Case {
    std::size_t rows;
    std::vector<ImageId> ids;
  };
  const Case cases[] = {
      // Repeated ids and three zero-padded lanes.
      {40, {39, 0, 17, 17, 8}},
      // Every lane filled, drawing on the padded tail block (ids 24..28).
      {29, {28, 24, 3, 27, 16, 25, 26, 9}},
      // No ids: an all-zero tile.
      {29, {}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.rows);
    const std::vector<FeatureVector> rows = RandomFeatures(c.rows, 6, 3);
    const FeatureStore store(rows);
    const std::size_t dim = store.dim();

    std::vector<double> tile(dim * kBlockWidth, -1.0);
    store.GatherTile(c.ids.data(), c.ids.size(), tile.data());

    const FeatureBlockTable& blocks = store.blocks();
    std::vector<double> expected(dim * kBlockWidth, 0.0);
    for (std::size_t lane = 0; lane < c.ids.size(); ++lane) {
      for (std::size_t d = 0; d < dim; ++d) {
        expected[d * kBlockWidth + lane] = blocks.at(c.ids[lane], d);
        EXPECT_EQ(rows[c.ids[lane]][d], blocks.at(c.ids[lane], d));
      }
    }
    EXPECT_EQ(std::memcmp(tile.data(), expected.data(),
                          tile.size() * sizeof(double)),
              0);
  }
}

}  // namespace
}  // namespace qdcbir
