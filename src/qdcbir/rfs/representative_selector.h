#ifndef QDCBIR_RFS_REPRESENTATIVE_SELECTOR_H_
#define QDCBIR_RFS_REPRESENTATIVE_SELECTOR_H_

#include <cstdint>
#include <vector>

#include "qdcbir/core/feature_store.h"
#include "qdcbir/core/status.h"
#include "qdcbir/core/types.h"

namespace qdcbir {

/// Options for representative-image selection (paper §3.1).
struct RepresentativeOptions {
  /// Target fraction of a node's subtree designated as representatives.
  /// The paper's prototype uses 5%.
  double fraction = 0.05;
  /// Lower bound on representatives per node, so even small nodes offer the
  /// user something to mark during feedback.
  std::size_t min_per_node = 3;
  /// k-means seeding for subcluster discovery.
  std::uint64_t seed = 13;
  /// Lloyd iteration cap (representative selection does not need a tight
  /// optimum, so the builder keeps this modest).
  int kmeans_iterations = 20;
};

/// One selection candidate: an image plus the child subtree it comes from.
struct RepresentativeCandidate {
  ImageId image = kInvalidImageId;
  NodeId origin = kInvalidNodeId;
};

/// Result of selecting representatives for one node.
struct SelectedRepresentatives {
  std::vector<ImageId> images;
  std::vector<NodeId> origins;  ///< parallel to `images`
};

/// Selects `target_count` representatives from `candidates` by k-means:
/// candidates are clustered into `target_count` subclusters and the
/// candidate nearest each subcluster center is selected (duplicates
/// collapse, so fewer may be returned). `features.row(c.image)` supplies
/// the feature vector of each candidate.
///
/// Because k-means assigns more clusters where candidates are dense, the
/// number of representatives drawn from each child is roughly proportional
/// to the child's share of candidates — the paper's proportionality rule.
StatusOr<SelectedRepresentatives> SelectRepresentatives(
    const std::vector<RepresentativeCandidate>& candidates,
    const FeatureStore& features, std::size_t target_count,
    const RepresentativeOptions& options);

/// The representative count for a subtree of `subtree_size` images.
std::size_t RepresentativeCount(std::size_t subtree_size,
                                std::size_t candidate_count,
                                const RepresentativeOptions& options);

}  // namespace qdcbir

#endif  // QDCBIR_RFS_REPRESENTATIVE_SELECTOR_H_
