// Introspection walk: the tree-shape summary must agree with the tree's
// own invariants (leaf/node counts, image totals, fanout bounds), and the
// /indexz JSON + text digests must render the join consistently.

#include "qdcbir/rfs/rfs_introspect.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

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
    for (std::size_t d = 0; d < dim; ++d) {
      center[d] = rng.UniformDouble(-50, 50);
    }
    for (std::size_t i = 0; i < per_cluster; ++i) {
      FeatureVector p = center;
      for (std::size_t d = 0; d < dim; ++d) p[d] += rng.Gaussian(0.0, 0.5);
      out.push_back(std::move(p));
    }
  }
  return out;
}

class RfsIntrospectTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kImages = 20 * 30;
  static constexpr std::size_t kDim = 6;

  static void SetUpTestSuite() {
    RfsBuildOptions options;
    options.tree.max_entries = 16;
    options.tree.min_entries = 6;
    tree_ = new RfsTree(
        RfsBuilder::Build(ClusteredPoints(20, 30, kDim, 3), options).value());
  }
  static void TearDownTestSuite() {
    delete tree_;
    tree_ = nullptr;
  }
  static const RfsTree* tree_;
};

const RfsTree* RfsIntrospectTest::tree_ = nullptr;

TEST_F(RfsIntrospectTest, SummaryMatchesTreeGeometry) {
  const IndexTreeSummary summary = SummarizeIndexTree(*tree_);
  EXPECT_GT(summary.height, 0);
  EXPECT_GT(summary.leaf_count, 1u);
  EXPECT_EQ(summary.node_count, summary.internal_count + summary.leaf_count);
  EXPECT_EQ(summary.total_images, kImages);
  EXPECT_EQ(summary.feature_dim, kDim);
  EXPECT_EQ(summary.leaves.size(), summary.leaf_count);

  EXPECT_LE(summary.min_fanout, summary.max_fanout);
  EXPECT_GE(summary.mean_fanout, static_cast<double>(summary.min_fanout));
  EXPECT_LE(summary.mean_fanout, static_cast<double>(summary.max_fanout));
  EXPECT_LE(summary.min_leaf_entries, summary.max_leaf_entries);

  // Per-leaf rows: unique ids, ascending, entries summing to the corpus,
  // feature bytes consistent with entries × dim × sizeof(double).
  std::set<NodeId> ids;
  std::size_t entries = 0;
  std::uint64_t bytes = 0;
  NodeId prev = 0;
  bool first = true;
  for (const IndexLeafShape& leaf : summary.leaves) {
    EXPECT_TRUE(ids.insert(leaf.id).second);
    if (!first) {
      EXPECT_GT(leaf.id, prev);
    }
    first = false;
    prev = leaf.id;
    EXPECT_GE(leaf.entries, summary.min_leaf_entries);
    EXPECT_LE(leaf.entries, summary.max_leaf_entries);
    EXPECT_GT(leaf.representatives, 0u);
    EXPECT_EQ(leaf.feature_bytes, leaf.entries * kDim * sizeof(double));
    EXPECT_GE(leaf.diagonal, 0.0);
    entries += leaf.entries;
    bytes += leaf.feature_bytes;
  }
  EXPECT_EQ(entries, kImages);
  EXPECT_EQ(bytes, summary.leaf_feature_bytes);
}

TEST_F(RfsIntrospectTest, OfflineJsonRendersTreeWithZeroAccess) {
  const IndexTreeSummary summary = SummarizeIndexTree(*tree_);
  const std::string json = RenderIndexzJson(summary, IndexAccessJoin{}, 8);
  EXPECT_NE(json.find("\"tree\":{"), std::string::npos);
  EXPECT_NE(json.find("\"leaves\":["), std::string::npos);
  EXPECT_NE(json.find("\"access\":{"), std::string::npos);
  EXPECT_NE(json.find("\"coaccess\":{"), std::string::npos);
  EXPECT_NE(json.find("\"generation\":0"), std::string::npos);
  EXPECT_NE(json.find("\"sessions\":0"), std::string::npos);
  EXPECT_NE(
      json.find("\"leaves\":" + std::to_string(summary.leaf_count)),
      std::string::npos);
  EXPECT_NE(json.find("\"images\":" + std::to_string(kImages)),
            std::string::npos);
  EXPECT_NE(json.find("\"pairs\":[]"), std::string::npos);
}

TEST_F(RfsIntrospectTest, JoinedJsonReportsHotLeavesAndCoaccess) {
  const IndexTreeSummary summary = SummarizeIndexTree(*tree_);
  ASSERT_GE(summary.leaves.size(), 2u);
  const NodeId hot = summary.leaves[0].id;
  const NodeId warm = summary.leaves[1].id;

  IndexAccessJoin join;
  join.generation = 3;
  join.sessions = 2;
  join.access.push_back(
      {static_cast<obs::AccessLeafId>(hot), {9, 90, 720, 1, 8}});
  join.access.push_back(
      {static_cast<obs::AccessLeafId>(warm), {4, 40, 320, 0, 4}});
  join.access.push_back({obs::kTableScanLeaf, {1, 600, 4800, 0, 1}});
  join.coaccess.push_back({static_cast<obs::AccessLeafId>(hot),
                           static_cast<obs::AccessLeafId>(warm), 2});
  join.coaccess_sets = 2;

  const std::string json = RenderIndexzJson(summary, join, 8);
  EXPECT_NE(json.find("\"generation\":3"), std::string::npos);
  EXPECT_NE(json.find("\"sessions\":2"), std::string::npos);
  // The hot-leaf table leads with the heaviest scanner.
  const std::size_t hot_pos = json.find("\"hot_leaves\":[");
  ASSERT_NE(hot_pos, std::string::npos);
  EXPECT_NE(json.find("{\"id\":" + std::to_string(hot) + ",\"scans\":9}",
                      hot_pos),
            std::string::npos);
  // The table-scan bucket stays separate from tree leaves.
  EXPECT_NE(json.find("\"table_scan\":{"), std::string::npos);
  EXPECT_NE(json.find("\"skew\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gini_permille\":"), std::string::npos);
  // Co-access pair with both endpoints and the count.
  EXPECT_NE(json.find("{\"a\":" + std::to_string(hot) +
                      ",\"b\":" + std::to_string(warm) + ",\"count\":2}"),
            std::string::npos);
}

TEST_F(RfsIntrospectTest, TextDigestCarriesTheHeadlineNumbers) {
  const IndexTreeSummary summary = SummarizeIndexTree(*tree_);
  const std::string text = RenderIndexTreeText(summary);
  EXPECT_NE(text.find(std::to_string(summary.leaf_count)), std::string::npos);
  EXPECT_NE(text.find(std::to_string(summary.total_images)),
            std::string::npos);
  EXPECT_NE(text.find(std::to_string(summary.height)), std::string::npos);
}

}  // namespace
}  // namespace qdcbir
