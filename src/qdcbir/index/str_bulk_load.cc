#include "qdcbir/index/str_bulk_load.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace qdcbir {

namespace {

/// Recursively partitions `indices[begin, end)` into `groups` balanced
/// groups, splitting along the axis of largest spread. Appends the group
/// boundaries (as begin offsets) to `bounds`.
void PartitionBalanced(std::vector<std::size_t>& indices, std::size_t begin,
                       std::size_t end, std::size_t groups,
                       const std::vector<const FeatureVector*>& points,
                       std::vector<std::pair<std::size_t, std::size_t>>& out) {
  if (groups <= 1 || end - begin <= 1) {
    out.emplace_back(begin, end);
    return;
  }
  // Axis of largest spread within this partition.
  const std::size_t dim = points[indices[begin]]->dim();
  std::size_t best_axis = 0;
  double best_spread = -1.0;
  for (std::size_t a = 0; a < dim; ++a) {
    double lo = (*points[indices[begin]])[a];
    double hi = lo;
    for (std::size_t i = begin + 1; i < end; ++i) {
      const double v = (*points[indices[i]])[a];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi - lo > best_spread) {
      best_spread = hi - lo;
      best_axis = a;
    }
  }

  const std::size_t left_groups = groups / 2;
  const std::size_t n = end - begin;
  const std::size_t left_count = n * left_groups / groups;

  std::nth_element(indices.begin() + static_cast<std::ptrdiff_t>(begin),
                   indices.begin() + static_cast<std::ptrdiff_t>(begin +
                                                                 left_count),
                   indices.begin() + static_cast<std::ptrdiff_t>(end),
                   [&](std::size_t a, std::size_t b) {
                     return (*points[a])[best_axis] < (*points[b])[best_axis];
                   });

  PartitionBalanced(indices, begin, begin + left_count, left_groups, points,
                    out);
  PartitionBalanced(indices, begin + left_count, end, groups - left_groups,
                    points, out);
}

}  // namespace

StatusOr<RStarTree> BulkLoadRStarTree(std::shared_ptr<const FeatureStore> store,
                                      const std::vector<ImageId>& ids,
                                      const RStarTreeOptions& options,
                                      double fill_factor) {
  QDCBIR_RETURN_IF_ERROR(options.Validate());
  if (store == nullptr || ids.empty()) {
    return Status::InvalidArgument("bulk load requires a store and ids");
  }
  for (const ImageId id : ids) {
    if (id >= store->size()) {
      return Status::InvalidArgument("image id is not a row of the store");
    }
  }
  if (fill_factor <= 0.0 || fill_factor > 1.0) {
    return Status::InvalidArgument("fill_factor must be in (0, 1]");
  }

  RStarTree tree(std::move(store), options);
  tree.nodes_.clear();
  tree.parent_.clear();
  tree.free_nodes_.clear();

  const std::size_t capacity = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::floor(fill_factor *
                        static_cast<double>(options.max_entries))));
  // Keep every group at or above the occupancy minimum the invariant checker
  // enforces: cap the group count at n / min_entries.
  const std::size_t min_fill =
      std::min(options.min_entries, (options.max_entries + 1) / 2);
  auto group_count = [&](std::size_t n) {
    std::size_t g = (n + capacity - 1) / capacity;
    if (min_fill > 0) g = std::min(g, std::max<std::size_t>(1, n / min_fill));
    return std::max<std::size_t>(1, g);
  };

  // --- Leaf level ------------------------------------------------------
  std::vector<const FeatureVector*> point_ptrs(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    point_ptrs[i] = &tree.point(ids[i]);
  }
  std::vector<std::size_t> indices(ids.size());
  std::iota(indices.begin(), indices.end(), 0u);

  std::vector<std::pair<std::size_t, std::size_t>> bounds;
  PartitionBalanced(indices, 0, indices.size(), group_count(ids.size()),
                    point_ptrs, bounds);

  std::vector<NodeId> level_nodes;
  std::vector<FeatureVector> level_centers;
  for (const auto& [begin, end] : bounds) {
    const NodeId nid = tree.AllocateNode(/*level=*/0);
    RStarTree::Node& n = tree.mutable_node(nid);
    for (std::size_t i = begin; i < end; ++i) {
      RStarTree::Entry e;
      e.data = ids[indices[i]];
      n.entries.push_back(std::move(e));
    }
    level_nodes.push_back(nid);
    level_centers.push_back(tree.NodeRect(nid).Center());
  }

  // --- Upper levels ------------------------------------------------------
  int level = 1;
  while (level_nodes.size() > 1) {
    std::vector<const FeatureVector*> center_ptrs(level_centers.size());
    for (std::size_t i = 0; i < level_centers.size(); ++i) {
      center_ptrs[i] = &level_centers[i];
    }
    std::vector<std::size_t> node_indices(level_nodes.size());
    std::iota(node_indices.begin(), node_indices.end(), 0u);
    bounds.clear();
    PartitionBalanced(node_indices, 0, node_indices.size(),
                      group_count(level_nodes.size()), center_ptrs, bounds);

    std::vector<NodeId> next_nodes;
    std::vector<FeatureVector> next_centers;
    for (const auto& [begin, end] : bounds) {
      const NodeId nid = tree.AllocateNode(level);
      RStarTree::Node& n = tree.mutable_node(nid);
      for (std::size_t i = begin; i < end; ++i) {
        const NodeId child = level_nodes[node_indices[i]];
        RStarTree::Entry e;
        e.rect = tree.NodeRect(child);
        e.child = child;
        n.entries.push_back(std::move(e));
        tree.parent_[child] = nid;
      }
      next_nodes.push_back(nid);
      next_centers.push_back(tree.NodeRect(nid).Center());
    }
    level_nodes = std::move(next_nodes);
    level_centers = std::move(next_centers);
    ++level;
  }

  tree.root_ = level_nodes.front();
  tree.parent_[tree.root_] = kInvalidNodeId;
  tree.size_ = ids.size();
  return tree;
}

}  // namespace qdcbir
