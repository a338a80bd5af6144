#include "qdcbir/query/qd_engine.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "qdcbir/core/distance.h"
#include "qdcbir/core/rng.h"
#include "qdcbir/query/multipoint.h"
#include "qdcbir/rfs/rfs_builder.h"

namespace qdcbir {
namespace {

/// Builds `clusters` tight, well-separated clusters of `per_cluster` points.
/// Image ids are laid out consecutively: cluster c owns
/// [c * per_cluster, (c+1) * per_cluster).
RfsTree MakeClusteredTree(std::size_t clusters, std::size_t per_cluster,
                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FeatureVector> points;
  for (std::size_t c = 0; c < clusters; ++c) {
    // Cluster centers on a coarse grid so clusters are far apart.
    const double cx = static_cast<double>(c % 4) * 40.0;
    const double cy = static_cast<double>(c / 4) * 40.0;
    for (std::size_t i = 0; i < per_cluster; ++i) {
      points.push_back(FeatureVector{cx + rng.Gaussian(0.0, 0.4),
                                     cy + rng.Gaussian(0.0, 0.4),
                                     rng.Gaussian(0.0, 0.4)});
    }
  }
  RfsBuildOptions options;
  options.tree.max_entries = 16;
  options.tree.min_entries = 6;
  options.representatives.fraction = 0.10;
  return RfsBuilder::Build(std::move(points), options).value();
}

/// Picks displayed images whose id belongs to [lo, hi).
std::vector<ImageId> PickInRange(const std::vector<DisplayGroup>& display,
                                 ImageId lo, ImageId hi, std::size_t max_picks) {
  std::vector<ImageId> picks;
  for (const DisplayGroup& g : display) {
    for (const ImageId id : g.images) {
      if (id >= lo && id < hi && picks.size() < max_picks) picks.push_back(id);
    }
  }
  return picks;
}

QdOptions TestOptions() {
  QdOptions options;
  options.display_size = 21;
  options.seed = 5;
  return options;
}

/// Drops the picks outside the first pick's leaf, so the session has one
/// subquery.
void KeepFirstPicksLeaf(const RfsTree& tree, std::vector<ImageId>* picks) {
  const NodeId leaf = tree.LeafOf(picks->front());
  const auto elsewhere = [&](ImageId id) { return tree.LeafOf(id) != leaf; };
  picks->erase(std::remove_if(picks->begin(), picks->end(), elsewhere),
               picks->end());
}

/// QD's result for a one-subquery session by definition: the `k` of
/// `candidates` nearest the picks' centroid, nearest first, ties by id.
/// A brute-force scan with scalar distances; no index, cache or kernels.
std::vector<ImageId> ReferenceKnn(const RfsTree& tree,
                                  const std::vector<ImageId>& picks,
                                  const std::vector<ImageId>& candidates,
                                  std::size_t k) {
  std::vector<FeatureVector> points;
  for (const ImageId id : picks) points.emplace_back(tree.feature(id));
  const FeatureVector centroid = MultipointQuery(std::move(points)).Centroid();
  std::vector<std::pair<double, ImageId>> scored;
  for (const ImageId id : candidates) {
    scored.emplace_back(SquaredL2(tree.feature(id), centroid), id);
  }
  std::sort(scored.begin(), scored.end());
  std::vector<ImageId> ids;
  for (std::size_t i = 0; i < scored.size() && i < k; ++i) {
    ids.push_back(scored[i].second);
  }
  return ids;
}

TEST(QdSessionTest, FeedbackBeforeStartFails) {
  const RfsTree tree = MakeClusteredTree(4, 30, 1);
  QdSession session(&tree, TestOptions());
  EXPECT_EQ(session.Feedback({0}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(QdSessionTest, StartDisplaysRootRepresentatives) {
  const RfsTree tree = MakeClusteredTree(4, 30, 2);
  QdSession session(&tree, TestOptions());
  const auto display = session.Start();
  ASSERT_FALSE(display.empty());
  EXPECT_EQ(display[0].node, tree.root());
  const auto& root_reps = tree.info(tree.root()).representatives;
  const std::set<ImageId> reps(root_reps.begin(), root_reps.end());
  for (const ImageId id : display[0].images) {
    EXPECT_TRUE(reps.count(id) > 0);
  }
  EXPECT_EQ(session.round(), 0);
}

TEST(QdSessionTest, HugeDisplaySizeShowsEveryRootRepresentative) {
  const RfsTree tree = MakeClusteredTree(4, 30, 2);
  const std::size_t subtree = tree.info(tree.root()).subtree_size;
  ASSERT_GE(subtree, 2u);
  // 1 + ceil(2^64 / subtree): the spare slots times the subtree size is at
  // least 2^64, the first display size whose slot product wraps.
  QdOptions options = TestOptions();
  options.display_size =
      std::numeric_limits<std::uint64_t>::max() / subtree + 2;
  QdSession session(&tree, options);
  const auto display = session.Start();
  ASSERT_EQ(display.size(), 1u);
  const auto& root_reps = tree.info(tree.root()).representatives;
  ASSERT_GT(root_reps.size(), 1u);
  const std::set<ImageId> shown(display[0].images.begin(),
                                display[0].images.end());
  EXPECT_EQ(shown, std::set<ImageId>(root_reps.begin(), root_reps.end()));
}

TEST(QdSessionTest, FinalizeWithoutFeedbackFails) {
  const RfsTree tree = MakeClusteredTree(4, 30, 3);
  QdSession session(&tree, TestOptions());
  session.Start();
  EXPECT_EQ(session.Finalize(10).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(QdSessionTest, FinalizeRejectsZeroK) {
  const RfsTree tree = MakeClusteredTree(2, 40, 4);
  QdSession session(&tree, TestOptions());
  auto display = session.Start();
  // Browse until a relevant pick from cluster 0 shows up.
  std::vector<ImageId> picks;
  for (int browse = 0; browse < 50 && picks.empty(); ++browse) {
    picks = PickInRange(display, 0, 40, 1);
    if (picks.empty()) display = session.Resample();
  }
  ASSERT_FALSE(picks.empty());
  ASSERT_TRUE(session.Feedback(picks).ok());
  EXPECT_EQ(session.Finalize(0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QdSessionTest, FeedbackRejectsUndisplayedImage) {
  const RfsTree tree = MakeClusteredTree(4, 30, 5);
  QdSession session(&tree, TestOptions());
  session.Start();
  // An id that cannot have been displayed: collect the display and pick an
  // absent id.
  EXPECT_EQ(session.Feedback({kInvalidImageId}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QdSessionTest, ResampleAccumulatesValidPicks) {
  const RfsTree tree = MakeClusteredTree(4, 30, 6);
  QdSession session(&tree, TestOptions());
  auto first = session.Start();
  auto second = session.Resample();
  EXPECT_EQ(session.round(), 0);  // resampling does not advance the round
  // Picks from the *first* display are still valid after resampling.
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(first[0].images.empty());
  EXPECT_TRUE(session.Feedback({first[0].images[0]}).ok());
}

TEST(QdSessionTest, DecompositionNarrowsFrontier) {
  const RfsTree tree = MakeClusteredTree(8, 30, 7);
  QdSession session(&tree, TestOptions());
  auto display = session.Start();
  ASSERT_EQ(session.frontier().size(), 1u);

  // Mark everything from clusters 0 and 1 across a few browses.
  std::vector<ImageId> picks;
  for (int browse = 0; browse < 60 && picks.size() < 4; ++browse) {
    for (const ImageId id : PickInRange(display, 0, 60, 4 - picks.size())) {
      picks.push_back(id);
    }
    display = session.Resample();
  }
  ASSERT_FALSE(picks.empty());
  const auto next = session.Feedback(picks);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(session.round(), 1);
  // The frontier moved off the root.
  for (const NodeId node : session.frontier()) {
    EXPECT_NE(node, tree.root());
  }
}

TEST(QdSessionTest, EmptyFeedbackKeepsFrontier) {
  const RfsTree tree = MakeClusteredTree(4, 30, 8);
  QdSession session(&tree, TestOptions());
  session.Start();
  const auto frontier_before = session.frontier();
  ASSERT_TRUE(session.Feedback({}).ok());
  EXPECT_EQ(session.frontier(), frontier_before);
  EXPECT_EQ(session.round(), 1);
}

/// Full session helper: marks images of the given id ranges for `rounds`
/// rounds, then finalizes with result size k.
StatusOr<QdResult> RunScriptedSession(const RfsTree& tree, ImageId lo,
                                      ImageId hi, int rounds, std::size_t k,
                                      QdSession* session_out = nullptr) {
  static QdSession* leak = nullptr;  // keep it simple: local session
  (void)leak;
  QdSession session(&tree, TestOptions());
  auto display = session.Start();
  for (int r = 0; r < rounds; ++r) {
    std::vector<ImageId> picks;
    std::set<ImageId> seen;
    for (int browse = 0; browse < 80 && picks.size() < 6; ++browse) {
      for (const ImageId id : PickInRange(display, lo, hi, 6 - picks.size())) {
        if (seen.insert(id).second) picks.push_back(id);
      }
      if (picks.size() >= 6) break;
      display = session.Resample();
    }
    StatusOr<std::vector<DisplayGroup>> next = session.Feedback(picks);
    if (!next.ok()) return next.status();
    display = std::move(next).value();
  }
  StatusOr<QdResult> result = session.Finalize(k);
  if (session_out != nullptr) *session_out = std::move(session);
  return result;
}

TEST(QdSessionTest, RetrievesFromMultipleDistantClusters) {
  // Relevant = clusters 0 and 1 (ids 0..59), far apart in feature space.
  const RfsTree tree = MakeClusteredTree(8, 30, 9);
  const QdResult result =
      RunScriptedSession(tree, 0, 60, 3, 40).value();

  EXPECT_GE(result.groups.size(), 2u);
  // Results come from both clusters.
  const auto flat = result.Flatten();
  int from_first = 0, from_second = 0;
  for (const ImageId id : flat) {
    if (id < 30) {
      ++from_first;
    } else if (id < 60) {
      ++from_second;
    }
  }
  EXPECT_GT(from_first, 5);
  EXPECT_GT(from_second, 5);
}

TEST(QdSessionTest, ResultSizeMatchesK) {
  const RfsTree tree = MakeClusteredTree(8, 30, 10);
  const QdResult result = RunScriptedSession(tree, 0, 60, 3, 24).value();
  EXPECT_EQ(result.TotalImages(), 24u);
  // No duplicates across groups.
  const auto flat = result.Flatten();
  const std::set<ImageId> unique(flat.begin(), flat.end());
  EXPECT_EQ(unique.size(), flat.size());
}

TEST(QdSessionTest, GroupsOrderedByRankingScore) {
  const RfsTree tree = MakeClusteredTree(8, 30, 11);
  const QdResult result = RunScriptedSession(tree, 0, 90, 3, 30).value();
  for (std::size_t i = 1; i < result.groups.size(); ++i) {
    EXPECT_LE(result.groups[i - 1].ranking_score,
              result.groups[i].ranking_score);
  }
}

TEST(QdSessionTest, GroupImagesSortedBySimilarity) {
  const RfsTree tree = MakeClusteredTree(6, 30, 12);
  const QdResult result = RunScriptedSession(tree, 0, 60, 3, 30).value();
  for (const ResultGroup& g : result.groups) {
    for (std::size_t i = 1; i < g.images.size(); ++i) {
      EXPECT_LE(g.images[i - 1].distance_squared,
                g.images[i].distance_squared);
    }
  }
}

TEST(QdSessionTest, FlattenBySimilarityIsGloballySorted) {
  const RfsTree tree = MakeClusteredTree(6, 30, 13);
  QdResult result = RunScriptedSession(tree, 0, 60, 3, 30).value();
  const auto flat = result.FlattenBySimilarity();
  EXPECT_EQ(flat.size(), result.TotalImages());
}

TEST(QdSessionTest, BoundaryThresholdZeroForcesExpansion) {
  const RfsTree tree = MakeClusteredTree(8, 30, 14);
  QdOptions options = TestOptions();
  options.boundary_threshold = 0.0;  // any nonzero offset expands
  QdSession session(&tree, options);
  auto display = session.Start();
  std::vector<ImageId> picks;
  for (int browse = 0; browse < 80 && picks.empty(); ++browse) {
    picks = PickInRange(display, 0, 30, 2);
    if (picks.empty()) display = session.Resample();
  }
  ASSERT_FALSE(picks.empty());
  KeepFirstPicksLeaf(tree, &picks);
  ASSERT_TRUE(session.Feedback(picks).ok());
  const QdResult result = session.Finalize(10).value();
  // With threshold 0 every query image is "near the boundary": the search
  // expands all the way to the root.
  EXPECT_GT(session.stats().boundary_expansions, 0u);
  for (const ResultGroup& g : result.groups) {
    EXPECT_EQ(g.search_node, tree.root());
  }
  // So the one subquery is a global k-NN from the picks' centroid.
  std::vector<ImageId> every_image(tree.num_images());
  for (std::size_t id = 0; id < every_image.size(); ++id) {
    every_image[id] = static_cast<ImageId>(id);
  }
  EXPECT_EQ(result.Flatten(), ReferenceKnn(tree, picks, every_image, 10));
}

TEST(QdSessionTest, HighThresholdAvoidsExpansion) {
  const RfsTree tree = MakeClusteredTree(8, 30, 15);
  QdOptions options = TestOptions();
  options.boundary_threshold = 10.0;  // effectively never expand
  QdSession session(&tree, options);
  auto display = session.Start();
  std::vector<ImageId> picks;
  for (int browse = 0; browse < 80 && picks.empty(); ++browse) {
    picks = PickInRange(display, 0, 30, 2);
    if (picks.empty()) display = session.Resample();
  }
  ASSERT_FALSE(picks.empty());
  KeepFirstPicksLeaf(tree, &picks);
  ASSERT_TRUE(session.Feedback(picks).ok());
  const QdResult result = session.Finalize(10).value();
  EXPECT_EQ(session.stats().boundary_expansions, 0u);
  // So the one subquery is a k-NN over its leaf from the picks' centroid.
  const NodeId leaf = tree.LeafOf(picks.front());
  EXPECT_EQ(result.Flatten(),
            ReferenceKnn(tree, picks, tree.index().CollectSubtree(leaf), 10));
}

TEST(QdSessionTest, StatsTrackSessionActivity) {
  const RfsTree tree = MakeClusteredTree(8, 30, 16);
  QdSession session(&tree, TestOptions());
  auto display = session.Start();
  std::vector<ImageId> picks;
  for (int browse = 0; browse < 80 && picks.size() < 3; ++browse) {
    for (const ImageId id : PickInRange(display, 0, 60, 3 - picks.size())) {
      picks.push_back(id);
    }
    display = session.Resample();
  }
  ASSERT_FALSE(picks.empty());
  ASSERT_TRUE(session.Feedback(picks).ok());
  const QdResult result = session.Finalize(12).value();
  const QdSessionStats& stats = session.stats();
  EXPECT_EQ(stats.feedback_rounds, 1u);
  EXPECT_GT(stats.nodes_touched, 0u);
  EXPECT_EQ(stats.localized_subqueries, result.groups.size());
  EXPECT_GT(stats.knn_candidates, 0u);
}

TEST(QdSessionTest, DisplayAllocationIsProportionalToSubtreeSize) {
  // After decomposition, larger subtrees get more display slots; every
  // active subquery gets at least one.
  const RfsTree tree = MakeClusteredTree(8, 30, 20);
  QdOptions options = TestOptions();
  options.display_size = 21;
  QdSession session(&tree, options);
  auto display = session.Start();
  std::vector<ImageId> picks;
  for (int browse = 0; browse < 80 && picks.size() < 6; ++browse) {
    for (const ImageId id : PickInRange(display, 0, 120, 6 - picks.size())) {
      if (std::find(picks.begin(), picks.end(), id) == picks.end()) {
        picks.push_back(id);
      }
    }
    display = session.Resample();
  }
  ASSERT_GE(picks.size(), 2u);
  const auto next = session.Feedback(picks);
  ASSERT_TRUE(next.ok());
  std::size_t total = 0;
  for (const DisplayGroup& g : *next) {
    EXPECT_GE(g.images.size(), 1u);
    total += g.images.size();
  }
  EXPECT_LE(total, options.display_size + next->size());
}

TEST(QdSessionTest, ExpansionClimbsMultipleLevelsWhenNeeded) {
  // With a moderate threshold, marks near a leaf's edge expand one or more
  // levels; the search node must always be an ancestor of the leaf.
  const RfsTree tree = MakeClusteredTree(8, 30, 21);
  QdOptions options = TestOptions();
  options.boundary_threshold = 0.05;  // aggressive expansion
  QdSession session(&tree, options);
  auto display = session.Start();
  std::vector<ImageId> picks;
  for (int browse = 0; browse < 80 && picks.size() < 3; ++browse) {
    for (const ImageId id : PickInRange(display, 0, 30, 3 - picks.size())) {
      if (std::find(picks.begin(), picks.end(), id) == picks.end()) {
        picks.push_back(id);
      }
    }
    display = session.Resample();
  }
  ASSERT_FALSE(picks.empty());
  ASSERT_TRUE(session.Feedback(picks).ok());
  const QdResult result = session.Finalize(15).value();
  for (const ResultGroup& g : result.groups) {
    // search_node is an ancestor-or-self of the leaf.
    NodeId walk = g.leaf;
    bool found = walk == g.search_node;
    while (!found && tree.info(walk).parent != kInvalidNodeId) {
      walk = tree.info(walk).parent;
      found = walk == g.search_node;
    }
    EXPECT_TRUE(found) << "search node " << g.search_node
                       << " is not an ancestor of leaf " << g.leaf;
  }
}

TEST(QdSessionTest, KSmallerThanSubqueriesKeepsStrongestGroups) {
  // Marks land in several distinct clusters but only 2 results are
  // requested: the subqueries with the most relevant marks win.
  const RfsTree tree = MakeClusteredTree(8, 30, 22);
  QdSession session(&tree, TestOptions());
  auto display = session.Start();
  std::vector<ImageId> picks;
  for (int browse = 0; browse < 120 && picks.size() < 8; ++browse) {
    for (const ImageId id : PickInRange(display, 0, 120, 8 - picks.size())) {
      if (std::find(picks.begin(), picks.end(), id) == picks.end()) {
        picks.push_back(id);
      }
    }
    display = session.Resample();
  }
  ASSERT_GE(picks.size(), 3u);
  ASSERT_TRUE(session.Feedback(picks).ok());
  const QdResult result = session.Finalize(2).value();
  EXPECT_LE(result.groups.size(), 2u);
  EXPECT_EQ(result.TotalImages(), 2u);
}

TEST(QdSessionTest, StartResetsState) {
  const RfsTree tree = MakeClusteredTree(4, 30, 17);
  QdSession session(&tree, TestOptions());
  auto display = session.Start();
  ASSERT_FALSE(display.empty());
  ASSERT_FALSE(display[0].images.empty());
  ASSERT_TRUE(session.Feedback({display[0].images[0]}).ok());
  EXPECT_EQ(session.round(), 1);
  session.Start();
  EXPECT_EQ(session.round(), 0);
  EXPECT_EQ(session.frontier().size(), 1u);
  EXPECT_EQ(session.Finalize(5).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace qdcbir
