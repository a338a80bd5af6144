// Randomized property tests of the R*-tree: long mixed insert/delete
// workloads with invariant checks and brute-force result comparison at
// every step boundary. Failures print the seed for replay.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "qdcbir/core/distance.h"
#include "qdcbir/core/rng.h"
#include "qdcbir/index/rstar_tree.h"

namespace qdcbir {
namespace {

struct FuzzConfig {
  std::uint64_t seed;
  std::size_t dim;
  std::size_t max_entries;
  std::size_t min_entries;
  int operations;
};

class RStarFuzzTest : public ::testing::TestWithParam<FuzzConfig> {};

TEST_P(RStarFuzzTest, MixedWorkloadKeepsInvariantsAndAnswers) {
  const FuzzConfig config = GetParam();
  Rng rng(config.seed);

  auto random_point = [&] {
    FeatureVector p(config.dim);
    for (std::size_t d = 0; d < config.dim; ++d) {
      p[d] = rng.UniformDouble(-50.0, 50.0);
    }
    return p;
  };

  // Every point the run may insert, drawn up front: row `id` of the store
  // is the point of image `id`.
  std::vector<FeatureVector> rows;
  for (int i = 0; i < config.operations; ++i) rows.push_back(random_point());
  const auto store = std::make_shared<const FeatureStore>(std::move(rows));

  RStarTreeOptions options;
  options.max_entries = config.max_entries;
  options.min_entries = config.min_entries;
  RStarTree tree(store, options);

  // Reference state: the indexed ids.
  std::set<ImageId> reference;
  ImageId next_id = 0;

  for (int op = 0; op < config.operations; ++op) {
    const bool do_insert =
        reference.empty() || rng.UniformDouble() < 0.65;
    if (do_insert) {
      const ImageId id = next_id++;
      ASSERT_TRUE(tree.Insert(id).ok()) << "seed " << config.seed;
      reference.insert(id);
    } else {
      // Delete a random existing entry.
      const std::size_t pick = rng.UniformInt(reference.size());
      auto it = reference.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(pick));
      ASSERT_TRUE(tree.Delete(*it).ok())
          << "seed " << config.seed << " op " << op;
      reference.erase(it);
    }

    if (op % 50 == 49 || op == config.operations - 1) {
      ASSERT_EQ(tree.size(), reference.size()) << "seed " << config.seed;
      const Status invariants = tree.CheckInvariants();
      ASSERT_TRUE(invariants.ok())
          << "seed " << config.seed << " op " << op << ": "
          << invariants.ToString();

      if (!reference.empty()) {
        // k-NN must agree with a brute-force scan of the reference.
        const FeatureVector q = random_point();
        const std::size_t k = 1 + rng.UniformInt(10);
        std::vector<double> expected;
        for (const ImageId id : reference) {
          expected.push_back(SquaredL2(store->row(id), q));
        }
        std::sort(expected.begin(), expected.end());
        expected.resize(std::min(k, expected.size()));
        const auto actual = tree.KnnSearch(q, k);
        ASSERT_EQ(actual.size(), expected.size()) << "seed " << config.seed;
        for (std::size_t i = 0; i < actual.size(); ++i) {
          ASSERT_NEAR(actual[i].distance_squared, expected[i], 1e-9)
              << "seed " << config.seed << " op " << op;
        }

        // Range query agrees too.
        std::vector<double> lo(config.dim), hi(config.dim);
        for (std::size_t d = 0; d < config.dim; ++d) {
          const double a = rng.UniformDouble(-50.0, 50.0);
          const double b = rng.UniformDouble(-50.0, 50.0);
          lo[d] = std::min(a, b);
          hi[d] = std::max(a, b);
        }
        const Rect range(lo, hi);
        std::set<ImageId> expected_ids;
        for (const ImageId id : reference) {
          if (range.ContainsPoint(store->row(id))) expected_ids.insert(id);
        }
        const auto found = tree.RangeSearch(range);
        const std::set<ImageId> actual_ids(found.begin(), found.end());
        ASSERT_EQ(actual_ids, expected_ids) << "seed " << config.seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, RStarFuzzTest,
    ::testing::Values(FuzzConfig{1, 2, 8, 3, 600},
                      FuzzConfig{2, 4, 8, 3, 600},
                      FuzzConfig{3, 2, 16, 6, 600},
                      FuzzConfig{4, 8, 10, 4, 400},
                      FuzzConfig{5, 3, 6, 2, 800},
                      FuzzConfig{6, 5, 12, 5, 500}),
    [](const ::testing::TestParamInfo<FuzzConfig>& info) {
      return "seed" + std::to_string(info.param.seed) + "_dim" +
             std::to_string(info.param.dim) + "_cap" +
             std::to_string(info.param.max_entries);
    });

}  // namespace
}  // namespace qdcbir
