#include "qdcbir/rfs/rfs_builder.h"

#include <numeric>

#include "qdcbir/core/thread_pool.h"
#include "qdcbir/index/str_bulk_load.h"
#include "qdcbir/obs/span.h"

namespace qdcbir {

const char* RfsBuildStrategyName(RfsBuildStrategy strategy) {
  switch (strategy) {
    case RfsBuildStrategy::kClustered:
      return "clustered";
    case RfsBuildStrategy::kTgsBulkLoad:
      return "tgs_bulk";
    case RfsBuildStrategy::kInsertion:
      return "insertion";
  }
  return "unknown";
}

namespace {

/// Stage 1 of the build, "data clustering": the R*-tree over every row of
/// `store`, by `options.strategy`.
StatusOr<RStarTree> BuildIndex(std::shared_ptr<const FeatureStore> store,
                               const RfsBuildOptions& options,
                               ThreadPool& pool) {
  QDCBIR_SPAN("rfs.build.cluster");
  std::vector<ImageId> ids(store->size());
  std::iota(ids.begin(), ids.end(), 0u);
  switch (options.strategy) {
    case RfsBuildStrategy::kClustered: {
      ClusteredBulkLoadOptions clustering = options.clustering;
      if (clustering.pool == nullptr) clustering.pool = &pool;
      return ClusteredTreeBuilder::Build(std::move(store), ids, options.tree,
                                         clustering);
    }
    case RfsBuildStrategy::kTgsBulkLoad:
      return BulkLoadRStarTree(std::move(store), ids, options.tree,
                               options.bulk_fill_factor);
    case RfsBuildStrategy::kInsertion: {
      RStarTree index(std::move(store), options.tree);
      for (const ImageId id : ids) QDCBIR_RETURN_IF_ERROR(index.Insert(id));
      return index;
    }
  }
  return Status::InvalidArgument("unknown RFS build strategy");
}

}  // namespace

StatusOr<RfsTree> RfsBuilder::Build(std::vector<FeatureVector> features,
                                    const RfsBuildOptions& options) {
  if (features.empty()) {
    return Status::InvalidArgument("cannot build RFS over an empty database");
  }
  for (const FeatureVector& f : features) {
    if (f.dim() != features.front().dim()) {
      return Status::InvalidArgument("point dimensionality mismatch");
    }
  }
  QDCBIR_RETURN_IF_ERROR(options.tree.Validate());
  QDCBIR_SPAN("rfs.build");

  ThreadPool& pool = options.pool != nullptr ? *options.pool
                                             : ThreadPool::Global();

  // The features move into the one store the index and the tree share.
  StatusOr<RStarTree> index = BuildIndex(
      std::make_shared<const FeatureStore>(std::move(features)), options,
      pool);
  if (!index.ok()) return index.status();
  RfsTree rfs(std::move(index).value());

  rfs.RebuildLeafMap();

  // Stage 2: bottom-up representative selection.
  QDCBIR_RETURN_IF_ERROR(
      SelectAllRepresentatives(rfs, options.representatives, pool));
  return rfs;
}

Status RfsBuilder::SelectAllRepresentatives(
    RfsTree& rfs, const RepresentativeOptions& options, ThreadPool& pool) {
  QDCBIR_SPAN("rfs.build.representatives");
  const RStarTree& index = rfs.index_;
  const auto levels = index.NodesByLevel();

  // Leaves first, then each upper level in order, so children's
  // representatives exist before their parent aggregates them. Within a
  // level, the sibling nodes' k-means selections are independent and fan
  // out across the pool; the cheap info bookkeeping stays sequential so
  // the `info_` map is never mutated concurrently. Each node derives its
  // own k-means seed, so the selection is identical at any pool size.
  for (std::size_t level = 0; level < levels.size(); ++level) {
    const std::vector<NodeId>& nodes = levels[level];

    // Phase A (sequential): candidate gathering and structural annotation.
    std::vector<RfsTree::NodeInfo> infos(nodes.size());
    std::vector<std::vector<RepresentativeCandidate>> candidates(nodes.size());
    for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
      const NodeId nid = nodes[ni];
      const RStarTree::Node& node = index.node(nid);
      RfsTree::NodeInfo& info = infos[ni];
      info.level = node.level;

      if (node.IsLeaf()) {
        for (const RStarTree::Entry& e : node.entries) {
          candidates[ni].push_back(RepresentativeCandidate{e.data, nid});
        }
        info.subtree_size = node.entries.size();
      } else {
        for (const RStarTree::Entry& e : node.entries) {
          info.children.push_back(e.child);
          const RfsTree::NodeInfo& child_info = rfs.info_.at(e.child);
          info.subtree_size += child_info.subtree_size;
          for (const ImageId rep : child_info.representatives) {
            candidates[ni].push_back(RepresentativeCandidate{rep, e.child});
          }
          rfs.info_.at(e.child).parent = nid;
        }
      }

      const Rect rect = index.NodeRect(nid);
      info.center = rect.Center();
      info.diagonal = rect.Diagonal();
    }

    // Phase B (parallel): per-node k-means representative selection.
    std::vector<Status> node_status(nodes.size(), Status::Ok());
    pool.ParallelFor(0, nodes.size(), [&](std::size_t ni) {
      const NodeId nid = nodes[ni];
      RfsTree::NodeInfo& info = infos[ni];
      const std::size_t target = RepresentativeCount(
          info.subtree_size, candidates[ni].size(), options);
      // Vary the k-means seed per node so sibling nodes do not share
      // degenerate seedings.
      RepresentativeOptions node_options = options;
      node_options.seed = options.seed ^ (0x9e3779b97f4a7c15ULL * (nid + 1));
      StatusOr<SelectedRepresentatives> selected =
          SelectRepresentatives(candidates[ni], rfs.features(), target,
                                node_options);
      if (!selected.ok()) {
        node_status[ni] = selected.status();
        return;
      }
      info.representatives = std::move(selected->images);
      info.rep_origin = std::move(selected->origins);
    });

    // Phase C (sequential): commit into the node map.
    for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
      QDCBIR_RETURN_IF_ERROR(node_status[ni]);
      rfs.info_[nodes[ni]] = std::move(infos[ni]);
    }
  }
  return Status::Ok();
}

}  // namespace qdcbir
