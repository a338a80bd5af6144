#ifndef QDCBIR_INDEX_STR_BULK_LOAD_H_
#define QDCBIR_INDEX_STR_BULK_LOAD_H_

#include <memory>
#include <vector>

#include "qdcbir/core/feature_store.h"
#include "qdcbir/core/status.h"
#include "qdcbir/core/types.h"
#include "qdcbir/index/rstar_tree.h"

namespace qdcbir {

/// Bulk-loads an R*-tree over the rows `ids` of `store`.
///
/// Strategy: top-down greedy partitioning (TGS/VAMSplit style, a
/// high-dimensional generalization of Sort-Tile-Recursive): points are
/// recursively median-partitioned along the axis of largest spread until
/// partitions fit in a leaf; upper levels are built the same way over child
/// MBR centers. This is far faster than one-at-a-time insertion when
/// populating large databases for the scalability experiments (Figures
/// 10-11), and produces well-clustered leaves for the RFS hierarchy.
///
/// `fill_factor` in (0, 1] controls target leaf occupancy relative to
/// `options.max_entries`.
///
/// `ids` must be non-empty and name rows of `store`; the leaf entries are
/// those ids (the tree holds no copy of the points).
StatusOr<RStarTree> BulkLoadRStarTree(
    std::shared_ptr<const FeatureStore> store, const std::vector<ImageId>& ids,
    const RStarTreeOptions& options = RStarTreeOptions(),
    double fill_factor = 0.85);

}  // namespace qdcbir

#endif  // QDCBIR_INDEX_STR_BULK_LOAD_H_
