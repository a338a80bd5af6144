#ifndef QDCBIR_INDEX_RSTAR_TREE_H_
#define QDCBIR_INDEX_RSTAR_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "qdcbir/core/feature_store.h"
#include "qdcbir/core/feature_vector.h"
#include "qdcbir/core/status.h"
#include "qdcbir/core/types.h"
#include "qdcbir/index/rect.h"

namespace qdcbir {

/// Configuration of an R*-tree.
struct RStarTreeOptions {
  /// Maximum entries per node. The paper's prototype uses 100.
  std::size_t max_entries = 100;
  /// Minimum entries per node (except the root). The paper uses 70; the
  /// classical default is 40% of max.
  std::size_t min_entries = 40;
  /// Fraction of entries removed during forced reinsertion (Beckmann et al.
  /// recommend 30%).
  double reinsert_fraction = 0.3;

  Status Validate() const;
};

/// One k-NN match: an image id and its (squared) distance to the query.
struct KnnMatch {
  ImageId id = kInvalidImageId;
  double distance_squared = 0.0;
};

/// Work counters of a single search, in units that map onto the paper's
/// disk-based cost model: every visited node is one page access.
struct SearchStats {
  std::size_t nodes_visited = 0;    ///< tree nodes opened ("disk accesses")
  std::size_t entries_scanned = 0;  ///< entries compared inside those nodes
};

/// R*-tree (Beckmann, Kriegel, Schneider, Seeger; SIGMOD'90) over point data
/// in a feature space of fixed (but runtime-chosen) dimensionality.
///
/// The tree indexes a shared feature store. An entry is a reference and
/// holds no geometry: a leaf entry is its image id, the row of `store()`
/// that is its point, so indexing a corpus adds no copy of its features;
/// an internal entry is its child's node id, and the child node owns its
/// MBR (`Node::rect`). Every use of leaf geometry (MINDIST, range tests,
/// split and reinsert heuristics, `NodeRect`) reads the store row.
///
/// This is the hierarchical clustering substrate of the paper's RFS
/// structure: every tree node is a cluster of images, and the RFS builder
/// walks `root()` / `node_*` accessors to attach representative images.
///
/// Nodes are arena-allocated and addressed by stable `NodeId`s so external
/// structures (the RFS tree) can reference them.
class RStarTree {
 public:
  /// An entry of an internal node (child subtree) or leaf node (data point).
  struct Entry {
    NodeId child = kInvalidNodeId;   ///< valid for internal entries
    ImageId data = kInvalidImageId;  ///< valid for leaf entries: store row
  };

  /// A tree node. `level` 0 means leaf.
  struct Node {
    int level = 0;
    /// The node's MBR as the entry in its parent sees it: refreshed
    /// whenever the tree refreshes that entry. The root has no parent
    /// entry, so its `rect` is not kept current (use `NodeRect`).
    Rect rect;
    std::vector<Entry> entries;
    bool IsLeaf() const { return level == 0; }
  };

  /// An empty tree over `store`, whose rows all have `store->dim()`
  /// dimensions. The tree indexes only the rows inserted into it.
  explicit RStarTree(std::shared_ptr<const FeatureStore> store,
                     const RStarTreeOptions& options = RStarTreeOptions());

  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;
  RStarTree(RStarTree&&) = default;
  RStarTree& operator=(RStarTree&&) = default;

  std::size_t dim() const { return store_->dim(); }
  const RStarTreeOptions& options() const { return options_; }
  std::size_t size() const { return size_; }
  int height() const;  ///< number of levels (1 for a root-only tree)

  /// The feature store whose rows the leaf entries name.
  const std::shared_ptr<const FeatureStore>& store() const { return store_; }
  /// The point of a leaf entry: row `id` of the store.
  const FeatureVector& point(ImageId id) const { return store_->rows()[id]; }

  /// Indexes store row `id`. InvalidArgument when `id` is not a row of the
  /// store. The tree does not deduplicate ids; callers keep them unique.
  Status Insert(ImageId id);

  /// Removes the leaf entry of store row `id`. InvalidArgument when `id` is
  /// not a row of the store, NotFound when the row is not indexed.
  Status Delete(ImageId id);

  /// All data ids whose points fall inside `range`.
  std::vector<ImageId> RangeSearch(const Rect& range) const;

  /// The k nearest data points to `query`, ascending by distance, ties by
  /// id (best-first search with MINDIST pruning).
  std::vector<KnnMatch> KnnSearch(const FeatureVector& query,
                                  std::size_t k) const;

  /// The k nearest data points *within the subtree rooted at `subtree`*.
  /// This is the paper's "localized k-NN computation": the final round of
  /// query decomposition searches only the relevant subclusters.
  /// `stats`, when non-null, accumulates the node/entry visit counts.
  std::vector<KnnMatch> KnnSearchInSubtree(NodeId subtree,
                                           const FeatureVector& query,
                                           std::size_t k,
                                           SearchStats* stats = nullptr) const;

  /// Node accessors for structures built on top of the tree (RFS).
  NodeId root() const { return root_; }
  const Node& node(NodeId id) const;
  /// The MBR of a node (union of its entries; empty rect for empty root).
  Rect NodeRect(NodeId id) const;
  /// Ids of all data points in the subtree rooted at `id`.
  std::vector<ImageId> CollectSubtree(NodeId id) const;
  /// All node ids, grouped by level (levels[0] = leaves).
  std::vector<std::vector<NodeId>> NodesByLevel() const;

  /// Structural statistics, for the build benchmarks.
  struct Stats {
    std::size_t node_count = 0;
    std::size_t leaf_count = 0;
    int height = 0;
    double avg_leaf_occupancy = 0.0;  ///< entries / max_entries over leaves
  };
  Stats ComputeStats() const;

  /// Verifies structural invariants (MBR containment, occupancy bounds,
  /// level consistency, data count). Intended for tests.
  Status CheckInvariants() const;

 private:
  friend class RfsSerializer;
  friend class ClusteredTreeBuilder;
  friend StatusOr<RStarTree> BulkLoadRStarTree(
      std::shared_ptr<const FeatureStore> store,
      const std::vector<ImageId>& ids, const RStarTreeOptions& options,
      double fill_factor);

  NodeId AllocateNode(int level);
  void FreeNode(NodeId id);
  Node& mutable_node(NodeId id) { return *nodes_[id]; }

  /// Descends from the root to `target_level`, choosing the subtree per the
  /// R* criteria. Records the path (node ids from root to the chosen node).
  NodeId ChooseSubtree(const Rect& rect, int target_level,
                       std::vector<NodeId>& path) const;

  /// Core insertion of an entry at `target_level`, with overflow handling.
  /// `reinsert_done` flags which levels already did forced reinsertion
  /// during the current top-level operation.
  void InsertEntry(const Entry& entry, int target_level,
                   std::vector<bool>& reinsert_done);

  /// Handles an overflowing node: forced reinsertion (once per level per
  /// top-level insert) or split.
  void OverflowTreatment(NodeId node_id, std::vector<NodeId>& path,
                         std::vector<bool>& reinsert_done);

  void ForcedReinsert(NodeId node_id, std::vector<NodeId>& path,
                      std::vector<bool>& reinsert_done);

  /// Splits `node_id`; the new sibling is linked into the parent (or a new
  /// root is grown). May recursively overflow ancestors.
  void Split(NodeId node_id, std::vector<NodeId>& path,
             std::vector<bool>& reinsert_done);

  /// The rect of an entry of a node at `level`: the child node's MBR, or
  /// the degenerate rect of the leaf entry's store row (built on demand).
  Rect EntryRect(const Entry& entry, int level) const;

  /// R* split heuristics over the rects of the overflowing node's entries.
  static void ChooseSplitAxisAndIndex(const std::vector<Rect>& rects,
                                      std::size_t min_entries,
                                      std::size_t* split_axis,
                                      std::size_t* split_index,
                                      std::vector<std::size_t>* order);

  /// Recomputes MBRs along `path` after a child changed.
  void AdjustPathRects(const std::vector<NodeId>& path);
  /// Recomputes the MBR of node `id` from its entries.
  void RefreshRect(NodeId id);

  /// Rebuilds the parent map entry for all children of `id`.
  void ReparentChildren(NodeId id);

  Rect ComputeNodeRect(const Node& n) const;

  std::shared_ptr<const FeatureStore> store_;
  RStarTreeOptions options_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<NodeId> free_nodes_;
  std::vector<NodeId> parent_;  ///< parent id per node (root -> invalid)
  NodeId root_ = kInvalidNodeId;
  std::size_t size_ = 0;
};

}  // namespace qdcbir

#endif  // QDCBIR_INDEX_RSTAR_TREE_H_
