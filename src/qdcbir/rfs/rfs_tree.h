#ifndef QDCBIR_RFS_RFS_TREE_H_
#define QDCBIR_RFS_RFS_TREE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "qdcbir/core/feature_store.h"
#include "qdcbir/core/rng.h"
#include "qdcbir/core/status.h"
#include "qdcbir/core/types.h"
#include "qdcbir/index/rstar_tree.h"

namespace qdcbir {

/// The Relevance Feedback Support (RFS) structure — the paper's Section 3.1.
///
/// An RFS tree is an R*-tree over the image feature vectors whose every node
/// is *additionally* annotated with representative images, selected bottom-up
/// by unsupervised k-means: a leaf's representatives are the images nearest
/// the centers of the k-means subclusters of its images; an internal node's
/// representatives are selected the same way from the union of its children's
/// representatives. Representative counts are proportional to cluster sizes
/// (about 5% of the database overall in the paper's prototype).
///
/// The structure is self-contained: it owns the index, and the index
/// indexes a shared feature store; leaf entries are row ids. So
/// relevance-feedback processing needs nothing else — the property that
/// lets the paper run feedback on client machines — and the features are
/// held once, in the store. A tree built or decoded on its own holds a
/// store of its own; a tree loaded against a database
/// (`RfsSerializer::LoadForSnapshot`) shares the database's store, so the
/// corpus features exist once in the process.
class RfsTree {
 public:
  /// Per-node annotation.
  struct NodeInfo {
    int level = 0;
    NodeId parent = kInvalidNodeId;
    std::vector<NodeId> children;           ///< empty for leaves
    std::vector<ImageId> representatives;   ///< this node's representatives
    /// For each representative: the child subtree it came from (the node
    /// itself for leaf representatives). Drives query decomposition: marking
    /// a representative relevant selects its origin subtree.
    std::vector<NodeId> rep_origin;
    FeatureVector center;       ///< center of the node's MBR
    double diagonal = 0.0;      ///< MBR diagonal (boundary-expansion test)
    std::size_t subtree_size = 0;  ///< images in the subtree
  };

  /// A tree over `index`, which indexes every row of its store (image id
  /// i = row i).
  explicit RfsTree(RStarTree index) : index_(std::move(index)) {}

  RfsTree(const RfsTree&) = delete;
  RfsTree& operator=(const RfsTree&) = delete;
  RfsTree(RfsTree&&) = default;
  RfsTree& operator=(RfsTree&&) = default;

  const RStarTree& index() const { return index_; }
  NodeId root() const { return index_.root(); }
  int height() const { return index_.height(); }
  std::size_t num_images() const { return feature_store()->size(); }
  std::size_t feature_dim() const { return feature_store()->dim(); }

  FeatureRow feature(ImageId id) const { return features().row(id); }
  const FeatureStore& features() const { return *feature_store(); }

  /// The shared store behind `features()`: the one the index reads its
  /// leaf points from and weighted localized scans gather tiles from.
  const std::shared_ptr<const FeatureStore>& feature_store() const {
    return index_.store();
  }

  bool has_info(NodeId id) const { return info_.count(id) > 0; }
  const NodeInfo& info(NodeId id) const { return info_.at(id); }

  /// The subtree (child of `node`) a representative shown at `node` came
  /// from; `node` itself when `node` is a leaf. NotFound if `rep` is not a
  /// representative of `node`.
  StatusOr<NodeId> OriginOfRepresentative(NodeId node, ImageId rep) const;

  /// The leaf node whose entries contain `id`. Requires `RebuildLeafMap`
  /// to have run (the builder and deserializer both run it).
  NodeId LeafOf(ImageId id) const { return leaf_of_[id]; }

  /// Recomputes the image -> leaf map from the index.
  void RebuildLeafMap();

  /// `count` random representatives of `node` (the GUI's "Random" browsing
  /// function). Returns fewer if the node has fewer representatives.
  std::vector<ImageId> SampleRepresentatives(NodeId node, std::size_t count,
                                             Rng& rng) const;

  /// Total distinct representatives at the leaf level (the paper's "5% of
  /// the database" figure refers to these).
  std::size_t CountLeafRepresentatives() const;

  /// Structure statistics for the build benchmark.
  struct Stats {
    int height = 0;
    std::size_t node_count = 0;
    std::size_t leaf_count = 0;
    std::size_t total_images = 0;
    std::size_t leaf_representatives = 0;
    double representative_fraction = 0.0;
  };
  Stats ComputeStats() const;

  /// Verifies RFS-specific invariants on top of the R*-tree's own:
  /// representative lists are non-empty, representatives of a node lie in
  /// its subtree, rep_origin entries are children (or the node itself).
  Status CheckInvariants() const;

 private:
  friend class RfsBuilder;
  friend class RfsSerializer;

  RStarTree index_;
  std::unordered_map<NodeId, NodeInfo> info_;
  std::vector<NodeId> leaf_of_;  ///< containing leaf per image id
};

}  // namespace qdcbir

#endif  // QDCBIR_RFS_RFS_TREE_H_
