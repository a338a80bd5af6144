#include "qdcbir/rfs/representative_selector.h"

#include <set>

#include <gtest/gtest.h>

#include "qdcbir/core/rng.h"

namespace qdcbir {
namespace {

struct CandidateSet {
  std::vector<RepresentativeCandidate> candidates;
  std::vector<FeatureVector> features;  // indexed by image id
};

/// Builds `blobs` blobs of `per_blob` candidates each; candidates of blob b
/// carry origin node id b.
CandidateSet MakeBlobs(int blobs, int per_blob, std::uint64_t seed) {
  Rng rng(seed);
  CandidateSet set;
  ImageId next_id = 0;
  for (int b = 0; b < blobs; ++b) {
    for (int i = 0; i < per_blob; ++i) {
      set.features.push_back(FeatureVector{b * 20.0 + rng.Gaussian(0.0, 0.3),
                                           rng.Gaussian(0.0, 0.3)});
      set.candidates.push_back(
          RepresentativeCandidate{next_id++, static_cast<NodeId>(b)});
    }
  }
  return set;
}

TEST(RepresentativeCountTest, FollowsFractionWithFloor) {
  RepresentativeOptions options;
  options.fraction = 0.05;
  options.min_per_node = 3;
  EXPECT_EQ(RepresentativeCount(100, 100, options), 5u);
  EXPECT_EQ(RepresentativeCount(20, 20, options), 3u);   // floor kicks in
  EXPECT_EQ(RepresentativeCount(1000, 40, options), 40u);  // capped
}

TEST(SelectRepresentativesTest, RejectsEmptyCandidates) {
  RepresentativeOptions options;
  EXPECT_FALSE(
      SelectRepresentatives({}, *FeatureStore::Empty(), 3, options).ok());
}

TEST(SelectRepresentativesTest, SelectsOnePerSubcluster) {
  const CandidateSet set = MakeBlobs(3, 20, 5);
  RepresentativeOptions options;
  const SelectedRepresentatives selected =
      SelectRepresentatives(set.candidates, FeatureStore(set.features), 3,
                            options)
          .value();
  ASSERT_EQ(selected.images.size(), 3u);
  // One representative per blob (blobs are well separated).
  std::set<NodeId> origins(selected.origins.begin(), selected.origins.end());
  EXPECT_EQ(origins.size(), 3u);
}

TEST(SelectRepresentativesTest, RepresentativesAreRealCandidates) {
  const CandidateSet set = MakeBlobs(4, 10, 7);
  RepresentativeOptions options;
  const SelectedRepresentatives selected =
      SelectRepresentatives(set.candidates, FeatureStore(set.features), 6,
                            options)
          .value();
  std::set<ImageId> candidate_ids;
  for (const RepresentativeCandidate& c : set.candidates) {
    candidate_ids.insert(c.image);
  }
  for (std::size_t i = 0; i < selected.images.size(); ++i) {
    EXPECT_TRUE(candidate_ids.count(selected.images[i]) > 0);
    // The recorded origin matches the candidate's origin.
    const RepresentativeCandidate& c = set.candidates[selected.images[i]];
    EXPECT_EQ(selected.origins[i], c.origin);
  }
}

TEST(SelectRepresentativesTest, NoDuplicates) {
  const CandidateSet set = MakeBlobs(2, 5, 9);
  RepresentativeOptions options;
  const SelectedRepresentatives selected =
      SelectRepresentatives(set.candidates, FeatureStore(set.features), 10,
                            options)
          .value();
  std::set<ImageId> unique(selected.images.begin(), selected.images.end());
  EXPECT_EQ(unique.size(), selected.images.size());
}

TEST(SelectRepresentativesTest, TargetLargerThanCandidatesClamps) {
  const CandidateSet set = MakeBlobs(1, 4, 11);
  RepresentativeOptions options;
  const SelectedRepresentatives selected =
      SelectRepresentatives(set.candidates, FeatureStore(set.features), 100,
                            options)
          .value();
  EXPECT_LE(selected.images.size(), 4u);
  EXPECT_GE(selected.images.size(), 1u);
}

TEST(SelectRepresentativesTest, ProportionalToDensity) {
  // Blob 0 has 4x the candidates of blob 1; with 10 representatives it
  // should receive clearly more.
  Rng rng(13);
  CandidateSet set;
  ImageId next_id = 0;
  for (int i = 0; i < 80; ++i) {
    set.features.push_back(
        FeatureVector{rng.Gaussian(0.0, 1.0), rng.Gaussian(0.0, 1.0)});
    set.candidates.push_back(RepresentativeCandidate{next_id++, 0});
  }
  for (int i = 0; i < 20; ++i) {
    set.features.push_back(
        FeatureVector{rng.Gaussian(50.0, 1.0), rng.Gaussian(0.0, 1.0)});
    set.candidates.push_back(RepresentativeCandidate{next_id++, 1});
  }
  RepresentativeOptions options;
  const SelectedRepresentatives selected =
      SelectRepresentatives(set.candidates, FeatureStore(set.features), 10,
                            options)
          .value();
  int from_large = 0, from_small = 0;
  for (const NodeId origin : selected.origins) {
    (origin == 0 ? from_large : from_small) += 1;
  }
  EXPECT_GT(from_large, from_small);
  EXPECT_GT(from_small, 0);  // the small blob is still represented
}

TEST(SelectRepresentativesTest, IdenticalCandidatesYieldSingleton) {
  CandidateSet set;
  for (ImageId i = 0; i < 5; ++i) {
    set.features.push_back(FeatureVector{1.0, 1.0});
    set.candidates.push_back(RepresentativeCandidate{i, 0});
  }
  RepresentativeOptions options;
  const SelectedRepresentatives selected =
      SelectRepresentatives(set.candidates, FeatureStore(set.features), 3,
                            options)
          .value();
  EXPECT_GE(selected.images.size(), 1u);
}

}  // namespace
}  // namespace qdcbir
