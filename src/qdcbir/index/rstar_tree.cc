#include "qdcbir/index/rstar_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>

#include "qdcbir/core/distance.h"

namespace qdcbir {

namespace {

/// The effective minimum fill for splits: the classical R*-tree requires
/// m <= (M+1)/2 so that an overflowing node can be divided; configurations
/// like the paper's 70..100 describe target occupancy rather than the split
/// minimum, so the split clamps to the feasible bound.
std::size_t EffectiveMinEntries(const RStarTreeOptions& options) {
  return std::min(options.min_entries, (options.max_entries + 1) / 2);
}

}  // namespace

Status RStarTreeOptions::Validate() const {
  if (max_entries < 4) {
    return Status::InvalidArgument("max_entries must be >= 4");
  }
  if (min_entries < 2 || min_entries > max_entries) {
    return Status::InvalidArgument(
        "min_entries must be in [2, max_entries]");
  }
  if (reinsert_fraction <= 0.0 || reinsert_fraction >= 1.0) {
    return Status::InvalidArgument("reinsert_fraction must be in (0, 1)");
  }
  return Status::Ok();
}

RStarTree::RStarTree(std::shared_ptr<const FeatureStore> store,
                     const RStarTreeOptions& options)
    : store_(std::move(store)), options_(options) {
  assert(store_ != nullptr);
  assert(options_.Validate().ok());
  root_ = AllocateNode(/*level=*/0);
}

NodeId RStarTree::AllocateNode(int level) {
  NodeId id;
  if (!free_nodes_.empty()) {
    id = free_nodes_.back();
    free_nodes_.pop_back();
    nodes_[id] = std::make_unique<Node>();
  } else {
    id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(std::make_unique<Node>());
    parent_.push_back(kInvalidNodeId);
  }
  nodes_[id]->level = level;
  parent_[id] = kInvalidNodeId;
  return id;
}

void RStarTree::FreeNode(NodeId id) {
  nodes_[id].reset();
  parent_[id] = kInvalidNodeId;
  free_nodes_.push_back(id);
}

const RStarTree::Node& RStarTree::node(NodeId id) const {
  assert(id < nodes_.size() && nodes_[id] != nullptr);
  return *nodes_[id];
}

Rect RStarTree::ComputeNodeRect(const Node& n) const {
  Rect rect;
  if (n.IsLeaf()) {
    for (const Entry& e : n.entries) rect.Extend(point(e.data));
  } else {
    for (const Entry& e : n.entries) rect.Extend(node(e.child).rect);
  }
  return rect;
}

Rect RStarTree::EntryRect(const Entry& entry, int level) const {
  return level == 0 ? Rect(point(entry.data)) : node(entry.child).rect;
}

Rect RStarTree::NodeRect(NodeId id) const { return ComputeNodeRect(node(id)); }

int RStarTree::height() const { return node(root_).level + 1; }

Status RStarTree::Insert(ImageId id) {
  if (id >= store_->size()) {
    return Status::InvalidArgument("image id is not a row of the store");
  }
  Entry entry;
  entry.data = id;
  // One flag per level: forced reinsertion happens at most once per level
  // for a single top-level insertion (Beckmann et al. §4.3).
  std::vector<bool> reinsert_done(static_cast<std::size_t>(height()) + 2,
                                  false);
  InsertEntry(entry, /*target_level=*/0, reinsert_done);
  ++size_;
  return Status::Ok();
}

NodeId RStarTree::ChooseSubtree(const Rect& rect, int target_level,
                                std::vector<NodeId>& path) const {
  NodeId nid = root_;
  path.clear();
  path.push_back(nid);
  while (node(nid).level > target_level) {
    const Node& n = node(nid);
    assert(!n.entries.empty());
    std::size_t best = 0;

    if (n.level == 1) {
      // Children are leaves: minimize overlap enlargement, then area
      // enlargement, then area.
      double best_overlap = std::numeric_limits<double>::infinity();
      double best_enlarge = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n.entries.size(); ++i) {
        const Rect& child = node(n.entries[i].child).rect;
        const Rect grown = Rect::Union(child, rect);
        double overlap_delta = 0.0;
        for (std::size_t j = 0; j < n.entries.size(); ++j) {
          if (j == i) continue;
          const Rect& other = node(n.entries[j].child).rect;
          overlap_delta += grown.Overlap(other) - child.Overlap(other);
        }
        const double enlarge = child.Enlargement(rect);
        const double area = child.Area();
        if (overlap_delta < best_overlap ||
            (overlap_delta == best_overlap && enlarge < best_enlarge) ||
            (overlap_delta == best_overlap && enlarge == best_enlarge &&
             area < best_area)) {
          best_overlap = overlap_delta;
          best_enlarge = enlarge;
          best_area = area;
          best = i;
        }
      }
    } else {
      // Children are internal: minimize area enlargement, then area.
      double best_enlarge = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n.entries.size(); ++i) {
        const Rect& child = node(n.entries[i].child).rect;
        const double enlarge = child.Enlargement(rect);
        const double area = child.Area();
        if (enlarge < best_enlarge ||
            (enlarge == best_enlarge && area < best_area)) {
          best_enlarge = enlarge;
          best_area = area;
          best = i;
        }
      }
    }
    nid = n.entries[best].child;
    path.push_back(nid);
  }
  return nid;
}

void RStarTree::AdjustPathRects(const std::vector<NodeId>& path) {
  // Walk from the deepest node up to the root's children; the root has no
  // parent entry to refresh.
  for (std::size_t i = path.size(); i-- > 1;) RefreshRect(path[i]);
}

void RStarTree::RefreshRect(NodeId id) { mutable_node(id).rect = NodeRect(id); }

void RStarTree::ReparentChildren(NodeId id) {
  const Node& n = node(id);
  if (n.IsLeaf()) return;
  for (const Entry& e : n.entries) parent_[e.child] = id;
}

void RStarTree::InsertEntry(const Entry& entry, int target_level,
                            std::vector<bool>& reinsert_done) {
  std::vector<NodeId> path;
  const NodeId nid =
      ChooseSubtree(EntryRect(entry, target_level), target_level, path);
  Node& n = mutable_node(nid);
  n.entries.push_back(entry);
  if (entry.child != kInvalidNodeId) parent_[entry.child] = nid;
  AdjustPathRects(path);
  if (n.entries.size() > options_.max_entries) {
    OverflowTreatment(nid, path, reinsert_done);
  }
}

void RStarTree::OverflowTreatment(NodeId node_id, std::vector<NodeId>& path,
                                  std::vector<bool>& reinsert_done) {
  const std::size_t level = static_cast<std::size_t>(node(node_id).level);
  if (level >= reinsert_done.size()) reinsert_done.resize(level + 1, false);
  if (node_id != root_ && !reinsert_done[level]) {
    reinsert_done[level] = true;
    ForcedReinsert(node_id, path, reinsert_done);
  } else {
    Split(node_id, path, reinsert_done);
  }
}

void RStarTree::ForcedReinsert(NodeId node_id, std::vector<NodeId>& path,
                               std::vector<bool>& reinsert_done) {
  Node& n = mutable_node(node_id);
  const FeatureVector center = ComputeNodeRect(n).Center();

  // Sort entries by the distance of their rect centers from the node center
  // (a leaf entry's center is its point).
  std::vector<std::size_t> order(n.entries.size());
  std::iota(order.begin(), order.end(), 0u);
  std::vector<double> dist(n.entries.size());
  for (std::size_t i = 0; i < n.entries.size(); ++i) {
    const Entry& e = n.entries[i];
    dist[i] = n.IsLeaf() ? SquaredL2(point(e.data), center)
                         : SquaredL2(node(e.child).rect.Center(), center);
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return dist[a] > dist[b]; });

  std::size_t p = static_cast<std::size_t>(
      std::ceil(options_.reinsert_fraction *
                static_cast<double>(n.entries.size())));
  p = std::max<std::size_t>(1, p);
  // Keep the node at or above the minimum fill.
  const std::size_t min_keep = EffectiveMinEntries(options_);
  if (n.entries.size() - p < min_keep) p = n.entries.size() - min_keep;
  if (p == 0) {
    Split(node_id, path, reinsert_done);
    return;
  }

  std::vector<Entry> removed;
  removed.reserve(p);
  std::vector<bool> is_removed(n.entries.size(), false);
  for (std::size_t i = 0; i < p; ++i) {
    removed.push_back(n.entries[order[i]]);
    is_removed[order[i]] = true;
  }
  std::vector<Entry> kept;
  kept.reserve(n.entries.size() - p);
  for (std::size_t i = 0; i < n.entries.size(); ++i) {
    if (!is_removed[i]) kept.push_back(n.entries[i]);
  }
  const int level = n.level;
  n.entries = std::move(kept);
  AdjustPathRects(path);

  // "Close reinsert": reinsert starting with the entry closest to the
  // center, which Beckmann et al. found to perform best.
  std::reverse(removed.begin(), removed.end());
  for (const Entry& e : removed) {
    InsertEntry(e, level, reinsert_done);
  }
}

void RStarTree::ChooseSplitAxisAndIndex(const std::vector<Rect>& rects,
                                        std::size_t min_entries,
                                        std::size_t* split_axis,
                                        std::size_t* split_index,
                                        std::vector<std::size_t>* order) {
  const std::size_t total = rects.size();
  const std::size_t dim = rects.front().dim();
  assert(min_entries >= 1 && 2 * min_entries <= total);
  const std::size_t num_dists = total - 2 * min_entries + 1;

  double best_margin = std::numeric_limits<double>::infinity();
  std::size_t best_axis = 0;
  bool best_axis_by_hi = false;

  auto make_order = [&](std::size_t axis, bool by_hi) {
    std::vector<std::size_t> ord(total);
    std::iota(ord.begin(), ord.end(), 0u);
    std::sort(ord.begin(), ord.end(), [&](std::size_t a, std::size_t b) {
      const double ka = by_hi ? rects[a].hi(axis) : rects[a].lo(axis);
      const double kb = by_hi ? rects[b].hi(axis) : rects[b].lo(axis);
      if (ka != kb) return ka < kb;
      // Tie-break on the other bound for determinism.
      const double ta = by_hi ? rects[a].lo(axis) : rects[a].hi(axis);
      const double tb = by_hi ? rects[b].lo(axis) : rects[b].hi(axis);
      return ta < tb;
    });
    return ord;
  };

  // Prefix/suffix bounding rects for one sort order.
  auto distributions = [&](const std::vector<std::size_t>& ord,
                           std::vector<Rect>& prefix,
                           std::vector<Rect>& suffix) {
    prefix.assign(total, Rect());
    suffix.assign(total, Rect());
    Rect acc;
    for (std::size_t i = 0; i < total; ++i) {
      acc.Extend(rects[ord[i]]);
      prefix[i] = acc;
    }
    acc = Rect();
    for (std::size_t i = total; i-- > 0;) {
      acc.Extend(rects[ord[i]]);
      suffix[i] = acc;
    }
  };

  std::vector<Rect> prefix, suffix;
  for (std::size_t axis = 0; axis < dim; ++axis) {
    for (bool by_hi : {false, true}) {
      const std::vector<std::size_t> ord = make_order(axis, by_hi);
      distributions(ord, prefix, suffix);
      double margin_sum = 0.0;
      for (std::size_t d = 0; d < num_dists; ++d) {
        const std::size_t k = min_entries + d;  // first group size
        margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
      }
      if (margin_sum < best_margin) {
        best_margin = margin_sum;
        best_axis = axis;
        best_axis_by_hi = by_hi;
      }
    }
  }

  // On the chosen axis, re-examine both sorts and pick the distribution with
  // the lowest overlap (ties: lowest combined area).
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  std::size_t best_k = min_entries;
  std::vector<std::size_t> best_order;
  for (bool by_hi : {best_axis_by_hi, !best_axis_by_hi}) {
    const std::vector<std::size_t> ord = make_order(best_axis, by_hi);
    distributions(ord, prefix, suffix);
    for (std::size_t d = 0; d < num_dists; ++d) {
      const std::size_t k = min_entries + d;
      const double overlap = prefix[k - 1].Overlap(suffix[k]);
      const double area = prefix[k - 1].Area() + suffix[k].Area();
      if (overlap < best_overlap ||
          (overlap == best_overlap && area < best_area)) {
        best_overlap = overlap;
        best_area = area;
        best_k = k;
        best_order = ord;
      }
    }
  }

  *split_axis = best_axis;
  *split_index = best_k;
  *order = std::move(best_order);
}

void RStarTree::Split(NodeId node_id, std::vector<NodeId>& path,
                      std::vector<bool>& reinsert_done) {
  Node& n = mutable_node(node_id);
  const std::size_t min_entries = EffectiveMinEntries(options_);

  // The heuristics compare entry rects many times over; a leaf's M+1 point
  // rects are materialised once here and dropped when the split is done.
  std::vector<Rect> rects;
  rects.reserve(n.entries.size());
  for (const Entry& e : n.entries) rects.push_back(EntryRect(e, n.level));
  std::size_t axis = 0, index = 0;
  std::vector<std::size_t> order;
  ChooseSplitAxisAndIndex(rects, min_entries, &axis, &index, &order);

  const NodeId sibling_id = AllocateNode(n.level);
  // AllocateNode may reallocate the arena; re-fetch the node reference.
  Node& n2 = mutable_node(node_id);
  Node& sibling = mutable_node(sibling_id);

  std::vector<Entry> first_group, second_group;
  first_group.reserve(index);
  second_group.reserve(n2.entries.size() - index);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i < index) {
      first_group.push_back(n2.entries[order[i]]);
    } else {
      second_group.push_back(n2.entries[order[i]]);
    }
  }
  n2.entries = std::move(first_group);
  sibling.entries = std::move(second_group);
  ReparentChildren(node_id);
  ReparentChildren(sibling_id);

  RefreshRect(node_id);
  RefreshRect(sibling_id);
  if (node_id == root_) {
    const NodeId new_root = AllocateNode(node(node_id).level + 1);
    Node& r = mutable_node(new_root);
    r.entries.push_back(Entry{node_id, kInvalidImageId});
    r.entries.push_back(Entry{sibling_id, kInvalidImageId});
    parent_[node_id] = new_root;
    parent_[sibling_id] = new_root;
    root_ = new_root;
    return;
  }

  const NodeId parent_id = parent_[node_id];
  Node& p = mutable_node(parent_id);
  p.entries.push_back(Entry{sibling_id, kInvalidImageId});
  parent_[sibling_id] = parent_id;

  // Refresh ancestors' rects: the path ends at node_id; drop it so the path
  // ends at the parent.
  if (!path.empty() && path.back() == node_id) path.pop_back();
  AdjustPathRects(path);

  if (p.entries.size() > options_.max_entries) {
    OverflowTreatment(parent_id, path, reinsert_done);
  }
}

Status RStarTree::Delete(ImageId id) {
  if (id >= store_->size()) {
    return Status::InvalidArgument("image id is not a row of the store");
  }
  const FeatureVector& target = point(id);
  // Locate the leaf holding the entry, descending only into children whose
  // MBR contains the row's point.
  NodeId found_leaf = kInvalidNodeId;
  std::size_t found_index = 0;
  std::vector<NodeId> stack = {root_};
  while (!stack.empty() && found_leaf == kInvalidNodeId) {
    const NodeId nid = stack.back();
    stack.pop_back();
    const Node& n = node(nid);
    if (n.IsLeaf()) {
      for (std::size_t i = 0; i < n.entries.size(); ++i) {
        if (n.entries[i].data == id) {
          found_leaf = nid;
          found_index = i;
          break;
        }
      }
    } else {
      for (const Entry& e : n.entries) {
        if (node(e.child).rect.ContainsPoint(target)) {
          stack.push_back(e.child);
        }
      }
    }
  }
  if (found_leaf == kInvalidNodeId) {
    return Status::NotFound("image id is not indexed");
  }

  Node& leaf = mutable_node(found_leaf);
  leaf.entries.erase(leaf.entries.begin() +
                     static_cast<std::ptrdiff_t>(found_index));
  --size_;

  // Condense: walk upward; dissolve underfull nodes, collecting their data
  // ids for reinsertion (subtrees are flattened to points, which is
  // always level-correct).
  std::vector<ImageId> orphans;
  const std::size_t min_entries = EffectiveMinEntries(options_);
  NodeId nid = found_leaf;
  while (nid != root_) {
    const NodeId pid = parent_[nid];
    Node& p = mutable_node(pid);
    if (node(nid).entries.size() < min_entries) {
      std::vector<NodeId> sub = {nid};
      while (!sub.empty()) {
        const NodeId s = sub.back();
        sub.pop_back();
        const Node& sn = node(s);
        if (sn.IsLeaf()) {
          for (const Entry& e : sn.entries) orphans.push_back(e.data);
        } else {
          for (const Entry& e : sn.entries) sub.push_back(e.child);
        }
        if (s != nid) FreeNode(s);
      }
      for (std::size_t i = 0; i < p.entries.size(); ++i) {
        if (p.entries[i].child == nid) {
          p.entries.erase(p.entries.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      FreeNode(nid);
    } else {
      RefreshRect(nid);
    }
    nid = pid;
  }

  // Shrink the root if it is an internal node with a single child.
  while (!node(root_).IsLeaf() && node(root_).entries.size() == 1) {
    const NodeId old_root = root_;
    root_ = node(root_).entries.front().child;
    parent_[root_] = kInvalidNodeId;
    FreeNode(old_root);
  }

  for (const ImageId data_id : orphans) {
    Entry entry;
    entry.data = data_id;
    std::vector<bool> reinsert_done(static_cast<std::size_t>(height()) + 2,
                                    false);
    InsertEntry(entry, 0, reinsert_done);
  }
  return Status::Ok();
}

std::vector<ImageId> RStarTree::RangeSearch(const Rect& range) const {
  std::vector<ImageId> out;
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    const NodeId nid = stack.back();
    stack.pop_back();
    const Node& n = node(nid);
    for (const Entry& e : n.entries) {
      if (n.IsLeaf()) {
        if (range.ContainsPoint(point(e.data))) out.push_back(e.data);
      } else if (range.Intersects(node(e.child).rect)) {
        stack.push_back(e.child);
      }
    }
  }
  return out;
}

std::vector<KnnMatch> RStarTree::KnnSearch(const FeatureVector& query,
                                           std::size_t k) const {
  return KnnSearchInSubtree(root_, query, k);
}

std::vector<KnnMatch> RStarTree::KnnSearchInSubtree(
    NodeId subtree, const FeatureVector& query, std::size_t k,
    SearchStats* stats) const {
  std::vector<KnnMatch> results;
  if (k == 0 || query.dim() != dim()) return results;

  struct Item {
    double dist;
    bool is_data;
    NodeId node;
    ImageId data;
  };
  // Nearest first. At equal distance nodes go before points, since a node
  // at MINDIST d may hold a point at exactly d with a smaller id, and
  // points go by id: results come out by (distance, id), the order of
  // every scan-and-sort ranking.
  struct Cmp {
    bool operator()(const Item& a, const Item& b) const {
      if (a.dist != b.dist) return a.dist > b.dist;  // min-heap
      if (a.is_data != b.is_data) return a.is_data;
      return a.is_data ? a.data > b.data : a.node > b.node;
    }
  };
  std::priority_queue<Item, std::vector<Item>, Cmp> heap;
  heap.push(Item{0.0, false, subtree, kInvalidImageId});

  while (!heap.empty() && results.size() < k) {
    const Item item = heap.top();
    heap.pop();
    if (item.is_data) {
      results.push_back(KnnMatch{item.data, item.dist});
      continue;
    }
    const Node& n = node(item.node);
    if (stats != nullptr) {
      stats->nodes_visited += 1;
      stats->entries_scanned += n.entries.size();
    }
    for (const Entry& e : n.entries) {
      if (n.IsLeaf()) {
        // MINDIST to the degenerate rect of the stored point.
        const double* p = point(e.data).data();
        heap.push(Item{Rect::MinDistSquared(p, p, query), true,
                       kInvalidNodeId, e.data});
      } else {
        heap.push(Item{node(e.child).rect.MinDistSquared(query), false,
                       e.child, kInvalidImageId});
      }
    }
  }
  return results;
}

std::vector<ImageId> RStarTree::CollectSubtree(NodeId id) const {
  std::vector<ImageId> out;
  std::vector<NodeId> stack = {id};
  while (!stack.empty()) {
    const NodeId nid = stack.back();
    stack.pop_back();
    const Node& n = node(nid);
    for (const Entry& e : n.entries) {
      if (n.IsLeaf()) {
        out.push_back(e.data);
      } else {
        stack.push_back(e.child);
      }
    }
  }
  return out;
}

std::vector<std::vector<NodeId>> RStarTree::NodesByLevel() const {
  std::vector<std::vector<NodeId>> levels(
      static_cast<std::size_t>(height()));
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    const NodeId nid = stack.back();
    stack.pop_back();
    const Node& n = node(nid);
    levels[static_cast<std::size_t>(n.level)].push_back(nid);
    if (!n.IsLeaf()) {
      for (const Entry& e : n.entries) stack.push_back(e.child);
    }
  }
  return levels;
}

RStarTree::Stats RStarTree::ComputeStats() const {
  Stats stats;
  stats.height = height();
  double occupancy_sum = 0.0;
  const auto levels = NodesByLevel();
  for (const auto& level_nodes : levels) {
    stats.node_count += level_nodes.size();
  }
  for (const NodeId leaf : levels[0]) {
    ++stats.leaf_count;
    occupancy_sum += static_cast<double>(node(leaf).entries.size()) /
                     static_cast<double>(options_.max_entries);
  }
  stats.avg_leaf_occupancy =
      stats.leaf_count > 0 ? occupancy_sum / stats.leaf_count : 0.0;
  return stats;
}

Status RStarTree::CheckInvariants() const {
  const std::size_t min_entries = EffectiveMinEntries(options_);
  std::size_t data_count = 0;

  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    const NodeId nid = stack.back();
    stack.pop_back();
    const Node& n = node(nid);

    if (nid != root_) {
      if (n.entries.size() < min_entries ||
          n.entries.size() > options_.max_entries) {
        return Status::Internal("node occupancy out of bounds");
      }
    } else if (!n.IsLeaf() && n.entries.size() < 2) {
      return Status::Internal("internal root must have >= 2 entries");
    }

    for (const Entry& e : n.entries) {
      if (n.IsLeaf()) {
        if (e.data >= store_->size()) {
          return Status::Internal("leaf entry is not a row of the store");
        }
        ++data_count;
      } else {
        if (e.child == kInvalidNodeId) {
          return Status::Internal("internal entry without child");
        }
        if (node(e.child).level != n.level - 1) {
          return Status::Internal("child level mismatch");
        }
        if (parent_[e.child] != nid) {
          return Status::Internal("parent pointer mismatch");
        }
        if (!(node(e.child).rect == NodeRect(e.child))) {
          return Status::Internal("stale MBR on a child node");
        }
        stack.push_back(e.child);
      }
    }
  }
  if (data_count != size_) {
    return Status::Internal("data entry count does not match size()");
  }
  return Status::Ok();
}

}  // namespace qdcbir
