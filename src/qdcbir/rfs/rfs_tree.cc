#include "qdcbir/rfs/rfs_tree.h"

#include <algorithm>
#include <unordered_set>

namespace qdcbir {

void RfsTree::RebuildLeafMap() {
  leaf_of_.assign(num_images(), kInvalidNodeId);
  const auto levels = index_.NodesByLevel();
  for (const NodeId leaf : levels[0]) {
    for (const RStarTree::Entry& e : index_.node(leaf).entries) {
      if (e.data < leaf_of_.size()) leaf_of_[e.data] = leaf;
    }
  }
}

StatusOr<NodeId> RfsTree::OriginOfRepresentative(NodeId node,
                                                 ImageId rep) const {
  const NodeInfo& n = info(node);
  for (std::size_t i = 0; i < n.representatives.size(); ++i) {
    if (n.representatives[i] == rep) return n.rep_origin[i];
  }
  return Status::NotFound("image is not a representative of this node");
}

std::vector<ImageId> RfsTree::SampleRepresentatives(NodeId node,
                                                    std::size_t count,
                                                    Rng& rng) const {
  const NodeInfo& n = info(node);
  const std::vector<std::size_t> picks =
      rng.SampleWithoutReplacement(n.representatives.size(), count);
  std::vector<ImageId> out;
  out.reserve(picks.size());
  for (std::size_t i : picks) out.push_back(n.representatives[i]);
  return out;
}

std::size_t RfsTree::CountLeafRepresentatives() const {
  std::size_t total = 0;
  for (const auto& [id, info] : info_) {
    if (info.level == 0) total += info.representatives.size();
  }
  return total;
}

RfsTree::Stats RfsTree::ComputeStats() const {
  Stats stats;
  stats.height = height();
  stats.node_count = info_.size();
  stats.total_images = num_images();
  for (const auto& [id, info] : info_) {
    if (info.level == 0) {
      ++stats.leaf_count;
      stats.leaf_representatives += info.representatives.size();
    }
  }
  if (stats.total_images > 0) {
    stats.representative_fraction =
        static_cast<double>(stats.leaf_representatives) /
        static_cast<double>(stats.total_images);
  }
  return stats;
}

Status RfsTree::CheckInvariants() const {
  QDCBIR_RETURN_IF_ERROR(index_.CheckInvariants());

  const auto levels = index_.NodesByLevel();
  std::size_t indexed_nodes = 0;
  for (const auto& level_nodes : levels) indexed_nodes += level_nodes.size();
  if (indexed_nodes != info_.size()) {
    return Status::Internal("RFS info does not cover every index node");
  }

  for (const auto& [id, node_info] : info_) {
    if (node_info.representatives.empty()) {
      return Status::Internal("node without representatives");
    }
    if (node_info.representatives.size() != node_info.rep_origin.size()) {
      return Status::Internal("representative/origin size mismatch");
    }
    const std::vector<ImageId> subtree = index_.CollectSubtree(id);
    const std::unordered_set<ImageId> member(subtree.begin(), subtree.end());
    for (const ImageId rep : node_info.representatives) {
      if (member.count(rep) == 0) {
        return Status::Internal("representative outside its subtree");
      }
    }
    if (node_info.subtree_size != subtree.size()) {
      return Status::Internal("stale subtree size");
    }
    for (const NodeId origin : node_info.rep_origin) {
      if (node_info.level == 0) {
        if (origin != id) {
          return Status::Internal("leaf rep origin must be the leaf itself");
        }
      } else if (std::find(node_info.children.begin(),
                           node_info.children.end(),
                           origin) == node_info.children.end()) {
        return Status::Internal("rep origin is not a child of the node");
      }
    }
  }
  return Status::Ok();
}

}  // namespace qdcbir
