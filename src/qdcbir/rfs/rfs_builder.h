#ifndef QDCBIR_RFS_RFS_BUILDER_H_
#define QDCBIR_RFS_RFS_BUILDER_H_

#include <memory>
#include <vector>

#include "qdcbir/core/feature_store.h"
#include "qdcbir/core/feature_vector.h"
#include "qdcbir/core/status.h"
#include "qdcbir/index/rstar_tree.h"
#include "qdcbir/rfs/clustered_bulk_load.h"
#include "qdcbir/rfs/representative_selector.h"
#include "qdcbir/rfs/rfs_tree.h"

namespace qdcbir {

class ThreadPool;

/// How the RFS "data clustering" stage builds the index.
enum class RfsBuildStrategy {
  /// Hierarchical k-means bulk load (default): leaves hold whole visual
  /// clusters, which is the property query decomposition relies on.
  kClustered = 0,
  /// Spatial median-partition bulk load (fast, but can slice clusters
  /// across leaf boundaries). Kept for the ablation benchmarks.
  kTgsBulkLoad = 1,
  /// One-at-a-time R* insertion (Beckmann et al. dynamics).
  kInsertion = 2,
};

const char* RfsBuildStrategyName(RfsBuildStrategy strategy);

/// Options for RFS construction.
struct RfsBuildOptions {
  RStarTreeOptions tree;
  RepresentativeOptions representatives;
  RfsBuildStrategy strategy = RfsBuildStrategy::kClustered;
  ClusteredBulkLoadOptions clustering;
  double bulk_fill_factor = 0.85;  ///< for kTgsBulkLoad
  /// Worker pool for the per-node k-means of representative selection
  /// (siblings of a level run concurrently) and the clustered bulk load's
  /// group splits; nullptr means `ThreadPool::Global()`. The built tree is
  /// identical across pool sizes — every node keeps its own derived seed.
  ThreadPool* pool = nullptr;
};

/// Builds RFS trees (paper §3.1): index construction ("data clustering")
/// followed by bottom-up representative selection.
class RfsBuilder {
 public:
  /// Builds an RFS tree over every row of `store` (image id i = row i),
  /// which the tree then shares. InvalidArgument for a null or empty store
  /// or zero-dimension rows. The two construction stages:
  ///  1. Data clustering: an R*-tree organizes the images hierarchically.
  ///  2. Representative selection, bottom-up: leaves k-means their images;
  ///     internal nodes k-means the union of children's representatives.
  static StatusOr<RfsTree> Build(std::shared_ptr<const FeatureStore> store,
                                 const RfsBuildOptions& options = RfsBuildOptions());

  /// Builds over a store of its own holding a copy of `points`, which must
  /// share one dimensionality (InvalidArgument otherwise).
  static StatusOr<RfsTree> Build(const std::vector<FeatureVector>& points,
                                 const RfsBuildOptions& options = RfsBuildOptions());

 private:
  static Status SelectAllRepresentatives(RfsTree& rfs,
                                         const RepresentativeOptions& options,
                                         ThreadPool& pool);
};

}  // namespace qdcbir

#endif  // QDCBIR_RFS_RFS_BUILDER_H_
