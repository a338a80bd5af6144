#ifndef QDCBIR_RFS_CLUSTERED_BULK_LOAD_H_
#define QDCBIR_RFS_CLUSTERED_BULK_LOAD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "qdcbir/core/feature_store.h"
#include "qdcbir/core/status.h"
#include "qdcbir/core/types.h"
#include "qdcbir/index/rstar_tree.h"

namespace qdcbir {

class ThreadPool;

/// Options of the clustered bulk loader.
struct ClusteredBulkLoadOptions {
  /// Target leaf occupancy relative to `RStarTreeOptions::max_entries`.
  double fill_factor = 0.85;
  /// k-means effort per level (the grouping does not need a tight optimum).
  int kmeans_iterations = 12;
  std::uint64_t seed = 97;
  /// Worker pool for the per-group median splits; nullptr means
  /// `ThreadPool::Global()`. Group order (and so the tree) is preserved.
  ThreadPool* pool = nullptr;
};

/// Builds an R*-tree whose *leaves are visual clusters*: the paper's RFS
/// "data clustering" stage organizes the image database by hierarchical
/// clustering, and query decomposition assumes that a leaf holds one (or a
/// few whole) semantic subclusters.
///
/// Strategy, level by level (bottom-up):
///   1. k-means the points into ~n / capacity groups (k-means++ seeding);
///   2. groups larger than `max_entries` are median-split (they already
///      contain one coherent cluster, so any split is fine);
///      groups smaller than the occupancy minimum merge into the group with
///      the nearest centroid;
///   3. the next level repeats the procedure over the group centroids.
///
/// Compared to a spatial median partition (see `BulkLoadRStarTree`), this
/// keeps tight feature-space clusters intact inside single leaves, which is
/// what makes localized multipoint k-NN precise.
class ClusteredTreeBuilder {
 public:
  /// Builds the tree over the rows `ids` of `store` (non-empty, each a row
  /// of the store); the leaf entries are those ids.
  static StatusOr<RStarTree> Build(
      std::shared_ptr<const FeatureStore> store,
      const std::vector<ImageId>& ids,
      const RStarTreeOptions& tree_options = RStarTreeOptions(),
      const ClusteredBulkLoadOptions& options = ClusteredBulkLoadOptions());
};

}  // namespace qdcbir

#endif  // QDCBIR_RFS_CLUSTERED_BULK_LOAD_H_
