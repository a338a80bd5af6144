#include "qdcbir/rfs/clustered_bulk_load.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "qdcbir/cluster/kmeans.h"
#include "qdcbir/core/distance.h"
#include "qdcbir/core/thread_pool.h"
#include "qdcbir/obs/span.h"

namespace qdcbir {

namespace {

struct Group {
  std::vector<std::size_t> members;  ///< indices into the level's point set
  FeatureVector centroid;
};

FeatureVector CentroidOf(const std::vector<std::size_t>& members,
                         const std::vector<FeatureVector>& points) {
  FeatureVector sum(points.front().dim());
  for (const std::size_t i : members) sum += points[i];
  sum *= 1.0 / static_cast<double>(members.size());
  return sum;
}

/// Splits an oversized member list in half along its widest axis,
/// recursively, until every piece fits in `max_size`.
void MedianSplit(std::vector<std::size_t> members,
                 const std::vector<FeatureVector>& points,
                 std::size_t max_size, std::vector<Group>& out) {
  if (members.size() <= max_size) {
    Group g;
    g.centroid = CentroidOf(members, points);
    g.members = std::move(members);
    out.push_back(std::move(g));
    return;
  }
  const std::size_t dim = points.front().dim();
  std::size_t best_axis = 0;
  double best_spread = -1.0;
  for (std::size_t a = 0; a < dim; ++a) {
    double lo = points[members.front()][a];
    double hi = lo;
    for (const std::size_t i : members) {
      lo = std::min(lo, points[i][a]);
      hi = std::max(hi, points[i][a]);
    }
    if (hi - lo > best_spread) {
      best_spread = hi - lo;
      best_axis = a;
    }
  }
  const std::size_t half = members.size() / 2;
  std::nth_element(members.begin(),
                   members.begin() + static_cast<std::ptrdiff_t>(half),
                   members.end(), [&](std::size_t a, std::size_t b) {
                     return points[a][best_axis] < points[b][best_axis];
                   });
  std::vector<std::size_t> left(members.begin(),
                                members.begin() + static_cast<std::ptrdiff_t>(half));
  std::vector<std::size_t> right(members.begin() + static_cast<std::ptrdiff_t>(half),
                                 members.end());
  MedianSplit(std::move(left), points, max_size, out);
  MedianSplit(std::move(right), points, max_size, out);
}

/// Partitions `points` into groups of size [min_fill, max_size] by k-means,
/// then merging undersized and splitting oversized groups.
StatusOr<std::vector<Group>> GroupLevel(
    const std::vector<FeatureVector>& points, std::size_t capacity,
    std::size_t min_fill, std::size_t max_size,
    const ClusteredBulkLoadOptions& options, std::uint64_t level_seed) {
  const std::size_t n = points.size();
  std::vector<Group> groups;

  if (n <= max_size) {
    Group g;
    g.members.resize(n);
    std::iota(g.members.begin(), g.members.end(), 0u);
    g.centroid = CentroidOf(g.members, points);
    groups.push_back(std::move(g));
    return groups;
  }

  const std::size_t target_groups =
      std::max<std::size_t>(2, (n + capacity - 1) / capacity);
  KMeansOptions km;
  km.k = static_cast<int>(target_groups);
  km.max_iterations = options.kmeans_iterations;
  km.seed = options.seed ^ level_seed;
  StatusOr<KMeansResult> clusters = RunKMeans(points, km);
  if (!clusters.ok()) return clusters.status();

  std::vector<Group> raw(clusters->centroids.size());
  for (std::size_t c = 0; c < raw.size(); ++c) {
    raw[c].centroid = clusters->centroids[c];
  }
  for (std::size_t i = 0; i < n; ++i) {
    raw[static_cast<std::size_t>(clusters->assignments[i])].members.push_back(i);
  }
  raw.erase(std::remove_if(raw.begin(), raw.end(),
                           [](const Group& g) { return g.members.empty(); }),
            raw.end());

  // Merge undersized groups into the nearest sibling.
  bool merged = true;
  while (merged && raw.size() > 1) {
    merged = false;
    for (std::size_t g = 0; g < raw.size(); ++g) {
      if (raw[g].members.size() >= min_fill) continue;
      std::size_t nearest = raw.size();
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t h = 0; h < raw.size(); ++h) {
        if (h == g) continue;
        const double d = SquaredL2(raw[g].centroid, raw[h].centroid);
        if (d < best) {
          best = d;
          nearest = h;
        }
      }
      raw[nearest].members.insert(raw[nearest].members.end(),
                                  raw[g].members.begin(),
                                  raw[g].members.end());
      raw[nearest].centroid = CentroidOf(raw[nearest].members, points);
      raw.erase(raw.begin() + static_cast<std::ptrdiff_t>(g));
      merged = true;
      break;
    }
  }

  // Split oversized groups (a split piece is still >= max/2 >= min_fill).
  // Splits are independent per group: each task writes its own output list
  // and the lists concatenate in group order, so the resulting tree is the
  // same at any pool size.
  ThreadPool& pool = options.pool != nullptr ? *options.pool
                                             : ThreadPool::Global();
  std::vector<std::vector<Group>> split_groups(raw.size());
  pool.ParallelFor(0, raw.size(), [&](std::size_t g) {
    MedianSplit(std::move(raw[g].members), points, max_size, split_groups[g]);
  });
  for (std::vector<Group>& split : split_groups) {
    for (Group& g : split) groups.push_back(std::move(g));
  }
  return groups;
}

}  // namespace

StatusOr<RStarTree> ClusteredTreeBuilder::Build(
    std::shared_ptr<const FeatureStore> store, const std::vector<ImageId>& ids,
    const RStarTreeOptions& tree_options,
    const ClusteredBulkLoadOptions& options) {
  QDCBIR_RETURN_IF_ERROR(tree_options.Validate());
  if (store == nullptr || ids.empty()) {
    return Status::InvalidArgument(
        "clustered bulk load requires a store and ids");
  }
  for (const ImageId id : ids) {
    if (id >= store->size()) {
      return Status::InvalidArgument("image id is not a row of the store");
    }
  }
  if (options.fill_factor <= 0.0 || options.fill_factor > 1.0) {
    return Status::InvalidArgument("fill_factor must be in (0, 1]");
  }
  QDCBIR_SPAN("rfs.build.kmeans_partition");

  const std::size_t capacity = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::floor(
             options.fill_factor *
             static_cast<double>(tree_options.max_entries))));
  const std::size_t min_fill = std::min(tree_options.min_entries,
                                        (tree_options.max_entries + 1) / 2);

  // The leaf level clusters a build-time copy of the indexed rows.
  std::vector<FeatureVector> points;
  points.reserve(ids.size());
  for (const ImageId id : ids) points.push_back(store->rows()[id]);

  RStarTree tree(std::move(store), tree_options);
  tree.nodes_.clear();
  tree.parent_.clear();
  tree.free_nodes_.clear();

  // --- Leaf level --------------------------------------------------------
  StatusOr<std::vector<Group>> leaf_groups =
      GroupLevel(points, capacity, min_fill, tree_options.max_entries,
                 options, /*level_seed=*/0);
  if (!leaf_groups.ok()) return leaf_groups.status();

  std::vector<NodeId> level_nodes;
  std::vector<FeatureVector> level_centers;
  for (const Group& g : *leaf_groups) {
    const NodeId nid = tree.AllocateNode(/*level=*/0);
    RStarTree::Node& node = tree.mutable_node(nid);
    for (const std::size_t i : g.members) {
      RStarTree::Entry e;
      e.data = ids[i];
      node.entries.push_back(std::move(e));
    }
    level_nodes.push_back(nid);
    level_centers.push_back(tree.NodeRect(nid).Center());
  }

  // --- Upper levels ------------------------------------------------------
  int level = 1;
  while (level_nodes.size() > 1) {
    StatusOr<std::vector<Group>> node_groups =
        GroupLevel(level_centers, capacity, min_fill,
                   tree_options.max_entries, options,
                   static_cast<std::uint64_t>(level));
    if (!node_groups.ok()) return node_groups.status();

    std::vector<NodeId> next_nodes;
    std::vector<FeatureVector> next_centers;
    for (const Group& g : *node_groups) {
      const NodeId nid = tree.AllocateNode(level);
      RStarTree::Node& node = tree.mutable_node(nid);
      for (const std::size_t i : g.members) {
        const NodeId child = level_nodes[i];
        RStarTree::Entry e;
        e.rect = tree.NodeRect(child);
        e.child = child;
        node.entries.push_back(std::move(e));
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
