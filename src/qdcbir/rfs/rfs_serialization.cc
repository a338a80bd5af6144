#include "qdcbir/rfs/rfs_serialization.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qdcbir/dataset/database_io.h"
#include "qdcbir/obs/span.h"

namespace qdcbir {

namespace {

constexpr char kMagic[] = "QDRFS002";
constexpr char kMagicV1[] = "QDRFS001";
constexpr std::size_t kMagicLen = 8;

class Writer {
 public:
  void Raw(const void* data, std::size_t n) {
    out_.append(static_cast<const char*>(data), n);
  }
  template <typename T>
  void Pod(T v) {
    Raw(&v, sizeof(T));
  }
  void U32(std::uint32_t v) { Pod(v); }
  void U64(std::uint64_t v) { Pod(v); }
  void I32(std::int32_t v) { Pod(v); }
  void F64(double v) { Pod(v); }
  void Doubles(const std::vector<double>& v) {
    Raw(v.data(), v.size() * sizeof(double));
  }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

}  // namespace

std::string RfsSerializer::Serialize(const RfsTree& tree) {
  Writer w;
  w.Raw(kMagic, kMagicLen);

  // Features: the store's block, row after row.
  w.U64(tree.num_images());
  w.U64(tree.feature_dim());
  const std::span<const double> features = tree.features().values();
  w.Raw(features.data(), features.size_bytes());

  // Index options and shape.
  const RStarTree& index = tree.index_;
  w.U64(index.options().max_entries);
  w.U64(index.options().min_entries);
  w.F64(index.options().reinsert_fraction);
  w.U64(index.nodes_.size());
  w.U32(index.root_);
  w.U64(index.size_);

  for (std::size_t i = 0; i < index.nodes_.size(); ++i) {
    const bool present = index.nodes_[i] != nullptr;
    w.Pod<std::uint8_t>(present ? 1 : 0);
    if (!present) continue;
    const RStarTree::Node& node = *index.nodes_[i];
    w.I32(node.level);
    w.U32(index.parent_[i]);
    w.U64(node.entries.size());
    for (const RStarTree::Entry& e : node.entries) {
      // A leaf entry is its (child, image) pair: its point is the image's
      // feature row, written once above.
      w.U32(e.child);
      w.U32(e.data);
      if (node.IsLeaf()) continue;
      // An internal entry's rect is its child's MBR, which the child node
      // holds.
      const Rect& rect = index.node(e.child).rect;
      w.Doubles(rect.lo());
      w.Doubles(rect.hi());
    }
  }

  // Per-node RFS annotations, in ascending node id so that the bytes do
  // not depend on hash-map order and Serialize(Decode(b)) == b. The
  // decoder accepts any order.
  std::vector<NodeId> ids;
  ids.reserve(tree.info_.size());
  for (const auto& entry : tree.info_) ids.push_back(entry.first);
  std::sort(ids.begin(), ids.end());
  w.U64(ids.size());
  for (const NodeId id : ids) {
    const RfsTree::NodeInfo& info = tree.info_.at(id);
    w.U32(id);
    w.I32(info.level);
    w.U32(info.parent);
    w.U64(info.children.size());
    for (const NodeId c : info.children) w.U32(c);
    w.U64(info.representatives.size());
    for (const ImageId r : info.representatives) w.U32(r);
    for (const NodeId o : info.rep_origin) w.U32(o);
    w.Doubles(info.center.values());
    w.F64(info.diagonal);
    w.U64(info.subtree_size);
  }
  return w.Take();
}

StatusOr<RfsTree> RfsSerializer::Decode(
    const ByteSource& source, std::shared_ptr<const FeatureStore> shared) {
  QDCBIR_SPAN("rfs.load");
  ByteReader r(source, "RFS blob");
  const auto corrupt = [](const std::string& what) {
    return Status::Corrupt("RFS blob: " + what);
  };
  char magic[kMagicLen];
  if (!r.Raw(magic, kMagicLen)) return r.status();
  if (std::memcmp(magic, kMagicV1, kMagicLen) == 0) {
    return Status::VersionMismatch(
        "RFS format v1 is no longer read; rebuild the file with "
        "`qdcbir_tool rfs`");
  }
  if (std::memcmp(magic, kMagic, kMagicLen) != 0) {
    return Status::Corrupt("not an RFS blob (bad magic)");
  }

  // Features: the dense n x dim section, read into a block of the tree's
  // own with one read, or compared window by window against the block of
  // `shared` and not kept at all.
  std::uint64_t num_images = 0, dim = 0;
  if (!r.Pod(&num_images) || !r.Count(&dim, sizeof(double))) {
    return r.status();
  }
  if (num_images > 0 && dim == 0) return corrupt("zero feature dimension");
  if (dim > 0 && num_images > r.Remaining() / (dim * sizeof(double))) {
    return Status::Truncated("RFS blob declares more features than it holds");
  }
  const std::size_t feature_bytes = num_images * dim * sizeof(double);
  std::shared_ptr<const FeatureStore> store = std::move(shared);
  if (store == nullptr) {
    auto values = std::make_unique_for_overwrite<double[]>(num_images * dim);
    if (!r.Raw(values.get(), feature_bytes)) return r.status();
    store = std::make_shared<const FeatureStore>(std::move(values), num_images,
                                                 dim);
  } else if (store->size() != num_images ||
             (num_images > 0 && store->dim() != dim) ||
             !r.Matches(store->values().data(), feature_bytes)) {
    if (!r.status().ok()) return r.status();
    return Status::Corrupt("RFS features disagree with snapshot");
  }

  // Index options and shape.
  RStarTreeOptions options;
  std::uint64_t max_entries = 0, min_entries = 0;
  if (!r.Pod(&max_entries) || !r.Pod(&min_entries) ||
      !r.Pod(&options.reinsert_fraction)) {
    return r.status();
  }
  options.max_entries = max_entries;
  options.min_entries = min_entries;
  if (const Status valid = options.Validate(); !valid.ok()) {
    return corrupt(valid.message());
  }

  std::uint64_t node_slots = 0;  // a free slot is one byte
  std::uint32_t root = 0;
  std::uint64_t tree_size = 0;
  if (!r.Count(&node_slots, 1) || !r.Pod(&root) || !r.Pod(&tree_size)) {
    return r.status();
  }
  RStarTree index(store, options);
  index.nodes_.clear();
  index.parent_.clear();
  index.free_nodes_.clear();
  index.nodes_.resize(node_slots);
  index.parent_.assign(node_slots, kInvalidNodeId);

  const std::uint64_t leaf_entry_bytes = 8;
  const std::uint64_t internal_entry_bytes = 8 + 2 * dim * sizeof(double);
  // An internal entry's rect is its child's MBR. The child may sit in a
  // later slot, so each rect waits here until every node exists.
  std::vector<std::pair<NodeId, Rect>> child_rects;
  std::size_t present_nodes = 0;
  for (std::uint64_t i = 0; i < node_slots; ++i) {
    std::uint8_t present = 0;
    if (!r.Pod(&present)) return r.status();
    if (present > 1) return corrupt("bad node presence flag");
    if (!present) {
      index.free_nodes_.push_back(static_cast<NodeId>(i));
      continue;
    }
    ++present_nodes;
    auto node = std::make_unique<RStarTree::Node>();
    std::uint32_t parent = 0;
    std::uint64_t entry_count = 0;
    if (!r.Pod(&node->level) || !r.Pod(&parent)) return r.status();
    if (node->level < 0) return corrupt("negative node level");
    if (!r.Count(&entry_count, node->IsLeaf() ? leaf_entry_bytes
                                              : internal_entry_bytes)) {
      return r.status();
    }
    index.parent_[i] = parent;
    node->entries.reserve(entry_count);
    for (std::uint64_t e = 0; e < entry_count; ++e) {
      RStarTree::Entry entry;
      if (!r.Pod(&entry.child) || !r.Pod(&entry.data)) return r.status();
      if (node->IsLeaf()) {
        // A leaf entry is its image id; its point is that image's row.
        if (entry.child != kInvalidNodeId) {
          return corrupt("leaf entry names a child node");
        }
        if (entry.data >= num_images) {
          return corrupt("leaf entry image out of range");
        }
      } else {
        std::vector<double> lo, hi;
        if (!r.Doubles(&lo, dim) || !r.Doubles(&hi, dim)) return r.status();
        child_rects.emplace_back(entry.child,
                                 Rect(std::move(lo), std::move(hi)));
      }
      node->entries.push_back(entry);
    }
    index.nodes_[i] = std::move(node);
  }
  const auto present = [&index](NodeId id) {
    return id < index.nodes_.size() && index.nodes_[id] != nullptr;
  };
  if (!present(root)) return corrupt("invalid root");
  // Children sit exactly one level down, so no walk can cycle.
  for (std::size_t i = 0; i < index.nodes_.size(); ++i) {
    const RStarTree::Node* node = index.nodes_[i].get();
    if (node == nullptr) continue;
    if (index.parent_[i] != kInvalidNodeId && !present(index.parent_[i])) {
      return corrupt("node parent out of range");
    }
    if (node->IsLeaf()) continue;
    for (const RStarTree::Entry& e : node->entries) {
      if (!present(e.child) ||
          index.nodes_[e.child]->level != node->level - 1) {
        return corrupt("entry child is not a node one level down");
      }
    }
  }
  for (auto& [child, rect] : child_rects) {
    index.nodes_[child]->rect = std::move(rect);
  }
  index.root_ = root;
  index.size_ = tree_size;

  // Walk down from the root: every present node must be reached exactly
  // once, through the parent its own parent field names, and every image
  // must sit in exactly one leaf entry. Query decomposition relies on both
  // (`LeafOf`, the parent walks of boundary expansion). The walk numbers
  // the nodes in pre-order, so the subtree of `n` is the nodes numbered
  // [enter[n], end[n]).
  if (index.parent_[root] != kInvalidNodeId) {
    return corrupt("root has a parent");
  }
  std::vector<NodeId> leaf_of(static_cast<std::size_t>(num_images),
                              kInvalidNodeId);
  constexpr std::size_t kUnreached = static_cast<std::size_t>(-1);
  std::vector<std::size_t> enter(static_cast<std::size_t>(node_slots),
                                 kUnreached);
  std::vector<NodeId> order;  // nodes in walk order
  std::uint64_t leaf_entries = 0;
  std::vector<NodeId> stack = {root};
  while (!stack.empty()) {
    const NodeId nid = stack.back();
    stack.pop_back();
    if (enter[nid] != kUnreached) {
      return corrupt("node reached twice from the root");
    }
    enter[nid] = order.size();
    order.push_back(nid);
    const RStarTree::Node& node = *index.nodes_[nid];
    for (const RStarTree::Entry& e : node.entries) {
      if (!node.IsLeaf()) {
        if (index.parent_[e.child] != nid) {
          return corrupt("node parent disagrees with the tree");
        }
        stack.push_back(e.child);
      } else if (leaf_of[e.data] != kInvalidNodeId) {
        return corrupt("image in more than one leaf entry");
      } else {
        leaf_of[e.data] = nid;
        ++leaf_entries;
      }
    }
  }
  if (order.size() != present_nodes) {
    return corrupt("node unreachable from the root");
  }
  if (tree_size != num_images || leaf_entries != num_images) {
    return corrupt("leaves do not hold every image once");
  }
  // Subtree node counts, children before parents, then shifted to ends.
  std::vector<std::size_t> end(static_cast<std::size_t>(node_slots), 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    end[*it] += 1;
    if (*it != root) end[index.parent_[*it]] += end[*it];
  }
  for (const NodeId nid : order) end[nid] += enter[nid];

  // Per-node RFS annotations; every present node must carry exactly one.
  std::unordered_map<NodeId, RfsTree::NodeInfo> infos;
  std::uint64_t info_count = 0;
  if (!r.Count(&info_count, 44 + dim * sizeof(double))) return r.status();
  for (std::uint64_t i = 0; i < info_count; ++i) {
    std::uint32_t id = 0;
    RfsTree::NodeInfo info;
    std::uint64_t child_count = 0, rep_count = 0;
    if (!r.Pod(&id) || !r.Pod(&info.level) || !r.Pod(&info.parent) ||
        !r.Count(&child_count, sizeof(NodeId))) {
      return r.status();
    }
    if (!present(id) || infos.count(id) > 0) {
      return corrupt("annotation for a missing or repeated node");
    }
    if (info.parent != index.parent_[id]) {
      return corrupt("annotation parent disagrees with the tree");
    }
    info.children.resize(child_count);
    for (auto& c : info.children) {
      if (!r.Pod(&c)) return r.status();
      if (!present(c)) return corrupt("annotation child out of range");
    }
    if (!r.Count(&rep_count, sizeof(ImageId) + sizeof(NodeId))) {
      return r.status();
    }
    info.representatives.resize(rep_count);
    info.rep_origin.resize(rep_count);
    for (auto& rep : info.representatives) {
      if (!r.Pod(&rep)) return r.status();
      if (rep >= num_images) return corrupt("representative out of range");
      // Every image has a leaf (checked above); it must be numbered inside
      // the subtree of `id`.
      const std::size_t at = enter[leaf_of[rep]];
      if (at < enter[id] || at >= end[id]) {
        return corrupt("representative outside its subtree");
      }
    }
    for (auto& origin : info.rep_origin) {
      if (!r.Pod(&origin)) return r.status();
      if (!present(origin)) return corrupt("representative origin invalid");
    }
    std::vector<double> center;
    if (!r.Doubles(&center, dim) || !r.Pod(&info.diagonal) ||
        !r.Pod(&info.subtree_size)) {
      return r.status();
    }
    info.center = FeatureVector(std::move(center));
    infos.emplace(id, std::move(info));
  }
  if (infos.size() != present_nodes) {
    return corrupt("annotations do not cover every node");
  }
  if (r.Remaining() != 0) return corrupt("trailing bytes");

  RfsTree tree(std::move(index));
  tree.info_ = std::move(infos);
  tree.leaf_of_ = std::move(leaf_of);
  return tree;
}

StatusOr<RfsTree> RfsSerializer::Deserialize(const std::string& bytes) {
  return Decode(MemoryByteSource(bytes));
}

Status RfsSerializer::SaveToFile(const RfsTree& tree, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  const std::string bytes = Serialize(tree);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

StatusOr<RfsTree> RfsSerializer::LoadFromFile(
    const std::string& path, std::shared_ptr<const FeatureStore> shared) {
  StatusOr<std::unique_ptr<FileByteSource>> file = FileByteSource::Open(path);
  if (!file.ok()) return file.status();
  return Decode(**file, std::move(shared));
}

StatusOr<RfsTree> RfsSerializer::LoadForSnapshot(
    const std::string& db_path, const std::string& rfs_path,
    std::shared_ptr<const FeatureStore> shared) {
  if (!rfs_path.empty()) return LoadFromFile(rfs_path, std::move(shared));
  StatusOr<std::unique_ptr<FileByteSource>> file =
      FileByteSource::Open(db_path);
  if (!file.ok()) return file.status();
  StatusOr<SnapshotChunkInfo> chunk = DatabaseIo::FindEmbeddedRfs(**file);
  if (!chunk.ok()) return chunk.status();
  return Decode(SliceByteSource(**file, chunk->offset, chunk->length),
                std::move(shared));
}

}  // namespace qdcbir
