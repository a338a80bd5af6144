#include "qdcbir/rfs/rfs_introspect.h"

#include <algorithm>
#include <cstdio>

#include "qdcbir/obs/json.h"

namespace qdcbir {

namespace {

void WriteCounts(obs::JsonWriter* w, const char* key,
                 const obs::LeafAccessCounts& counts) {
  w->Key(key).BeginObject();
  w->Key("scans").Uint(counts.scans);
  w->Key("distance_evals").Uint(counts.distance_evals);
  w->Key("feature_bytes").Uint(counts.feature_bytes);
  w->Key("cache_hits").Uint(counts.cache_hits);
  w->Key("cache_misses").Uint(counts.cache_misses);
  w->EndObject();
}

/// Gini coefficient over `values` (ascending-sorted in place), in permille.
/// 0 = perfectly even access, 1000 = all scans on one leaf.
std::uint64_t GiniPermille(std::vector<std::uint64_t> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  double weighted = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    sum += static_cast<double>(values[i]);
    weighted += static_cast<double>(i + 1) * static_cast<double>(values[i]);
  }
  if (sum <= 0.0) return 0;
  const double n = static_cast<double>(values.size());
  const double gini = (2.0 * weighted) / (n * sum) - (n + 1.0) / n;
  const double clamped = gini < 0.0 ? 0.0 : (gini > 1.0 ? 1.0 : gini);
  return static_cast<std::uint64_t>(clamped * 1000.0 + 0.5);
}

}  // namespace

IndexTreeSummary SummarizeIndexTree(const RfsTree& tree) {
  IndexTreeSummary summary;
  summary.height = tree.height();
  summary.total_images = tree.num_images();
  summary.feature_dim = tree.feature_dim();
  summary.leaf_representatives = tree.CountLeafRepresentatives();

  std::size_t fanout_sum = 0;
  std::size_t entries_sum = 0;
  std::vector<NodeId> stack = {tree.root()};
  while (!stack.empty()) {
    const NodeId node = stack.back();
    stack.pop_back();
    if (!tree.has_info(node)) continue;
    const RfsTree::NodeInfo& info = tree.info(node);
    ++summary.node_count;
    if (info.children.empty()) {
      IndexLeafShape leaf;
      leaf.id = node;
      leaf.entries = info.subtree_size;
      leaf.representatives = info.representatives.size();
      leaf.feature_bytes = static_cast<std::uint64_t>(info.subtree_size) *
                           summary.feature_dim * sizeof(double);
      leaf.diagonal = info.diagonal;
      entries_sum += leaf.entries;
      summary.leaf_feature_bytes += leaf.feature_bytes;
      if (summary.leaf_count == 0 || leaf.entries < summary.min_leaf_entries) {
        summary.min_leaf_entries = leaf.entries;
      }
      summary.max_leaf_entries =
          std::max(summary.max_leaf_entries, leaf.entries);
      ++summary.leaf_count;
      summary.leaves.push_back(leaf);
    } else {
      const std::size_t fanout = info.children.size();
      if (summary.internal_count == 0 || fanout < summary.min_fanout) {
        summary.min_fanout = fanout;
      }
      summary.max_fanout = std::max(summary.max_fanout, fanout);
      fanout_sum += fanout;
      ++summary.internal_count;
      for (const NodeId child : info.children) stack.push_back(child);
    }
  }
  if (summary.internal_count > 0) {
    summary.mean_fanout = static_cast<double>(fanout_sum) /
                          static_cast<double>(summary.internal_count);
  }
  if (summary.leaf_count > 0) {
    summary.mean_leaf_entries = static_cast<double>(entries_sum) /
                                static_cast<double>(summary.leaf_count);
  }
  std::sort(summary.leaves.begin(), summary.leaves.end(),
            [](const IndexLeafShape& a, const IndexLeafShape& b) {
              return a.id < b.id;
            });
  return summary;
}

std::string RenderIndexzJson(const IndexTreeSummary& tree,
                             const IndexAccessJoin& join, std::size_t hot_n) {
  // Per-leaf access lookup (sorted input → binary search would also do;
  // sizes here are small enough that a linear merge is clearest).
  const auto access_of = [&join](NodeId id) -> obs::LeafAccessCounts {
    for (const obs::LeafAccess& row : join.access) {
      if (row.leaf == static_cast<obs::AccessLeafId>(id)) return row.counts;
      if (row.leaf > static_cast<obs::AccessLeafId>(id)) break;
    }
    return obs::LeafAccessCounts{};
  };

  std::string out;
  obs::JsonWriter w(&out);
  w.BeginObject();
  w.Key("generation").Uint(join.generation);

  w.Key("tree").BeginObject();
  w.Key("height").Uint(static_cast<std::uint64_t>(tree.height));
  w.Key("nodes").Uint(tree.node_count);
  w.Key("internal").Uint(tree.internal_count);
  w.Key("leaves").Uint(tree.leaf_count);
  w.Key("images").Uint(tree.total_images);
  w.Key("feature_dim").Uint(tree.feature_dim);
  w.Key("leaf_representatives").Uint(tree.leaf_representatives);
  w.Key("fanout").BeginObject();
  w.Key("min").Uint(tree.min_fanout);
  w.Key("max").Uint(tree.max_fanout);
  w.Key("mean").Double(tree.mean_fanout, "%.6g");
  w.EndObject();
  w.Key("leaf_entries").BeginObject();
  w.Key("min").Uint(tree.min_leaf_entries);
  w.Key("max").Uint(tree.max_leaf_entries);
  w.Key("mean").Double(tree.mean_leaf_entries, "%.6g");
  w.EndObject();
  w.Key("leaf_feature_bytes").Uint(tree.leaf_feature_bytes);
  w.EndObject();

  w.Key("leaves").BeginArray();
  for (const IndexLeafShape& leaf : tree.leaves) {
    w.BeginObject();
    w.Key("id").Uint(leaf.id);
    w.Key("entries").Uint(leaf.entries);
    w.Key("representatives").Uint(leaf.representatives);
    w.Key("feature_bytes").Uint(leaf.feature_bytes);
    w.Key("diagonal").Double(leaf.diagonal, "%.6g");
    WriteCounts(&w, "access", access_of(leaf.id));
    w.EndObject();
  }
  w.EndArray();

  // Access rollup: totals, the table-scan bucket (flat-scan engines), the
  // hot-leaf table, and the skew summary over *tree* leaves (untouched
  // leaves count as zero, so concentration is measured honestly).
  obs::LeafAccessCounts totals;
  obs::LeafAccessCounts table_scan;
  for (const obs::LeafAccess& row : join.access) {
    if (row.leaf == obs::kTableScanLeaf) {
      table_scan.Add(row.counts);
    } else {
      totals.Add(row.counts);
    }
  }
  std::vector<std::uint64_t> leaf_scans;
  leaf_scans.reserve(tree.leaves.size());
  std::vector<std::pair<std::uint64_t, NodeId>> hot;
  for (const IndexLeafShape& leaf : tree.leaves) {
    const obs::LeafAccessCounts counts = access_of(leaf.id);
    leaf_scans.push_back(counts.scans);
    if (counts.scans > 0) hot.emplace_back(counts.scans, leaf.id);
  }
  std::sort(hot.begin(), hot.end(),
            [](const std::pair<std::uint64_t, NodeId>& a,
               const std::pair<std::uint64_t, NodeId>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::uint64_t top_scans = 0;
  for (std::size_t i = 0; i < hot.size() && i < hot_n; ++i) {
    top_scans += hot[i].first;
  }
  const std::uint64_t top_share_permille =
      totals.scans == 0 ? 0 : top_scans * 1000 / totals.scans;

  w.Key("access").BeginObject();
  w.Key("sessions").Uint(join.sessions);
  WriteCounts(&w, "totals", totals);
  WriteCounts(&w, "table_scan", table_scan);
  w.Key("hot_leaves").BeginArray();
  for (std::size_t i = 0; i < hot.size() && i < hot_n; ++i) {
    w.BeginObject();
    w.Key("id").Uint(hot[i].second);
    w.Key("scans").Uint(hot[i].first);
    w.EndObject();
  }
  w.EndArray();
  w.Key("skew").BeginObject();
  w.Key("top_n").Uint(hot_n);
  w.Key("top_share_permille").Uint(top_share_permille);
  w.Key("gini_permille").Uint(GiniPermille(std::move(leaf_scans)));
  w.EndObject().EndObject();

  w.Key("coaccess").BeginObject();
  w.Key("sets").Uint(join.coaccess_sets);
  w.Key("evictions").Uint(join.coaccess_evictions);
  w.Key("leaves_truncated").Uint(join.coaccess_truncated);
  w.Key("pairs").BeginArray();
  for (const obs::CoAccessTracker::PairCount& pair : join.coaccess) {
    w.BeginObject();
    w.Key("a").Uint(pair.a);
    w.Key("b").Uint(pair.b);
    w.Key("count").Uint(pair.count);
    w.EndObject();
  }
  w.EndArray().EndObject().EndObject();
  return out;
}

std::string RenderIndexTreeText(const IndexTreeSummary& tree) {
  char buffer[256];
  std::string out;
  std::snprintf(buffer, sizeof(buffer),
                "rfs tree: height %d, %zu nodes (%zu internal, %zu leaves), "
                "%zu images, %zu-D features\n",
                tree.height, tree.node_count, tree.internal_count,
                tree.leaf_count, tree.total_images, tree.feature_dim);
  out += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "  fanout min/mean/max: %zu/%.1f/%zu\n", tree.min_fanout,
                tree.mean_fanout, tree.max_fanout);
  out += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "  leaf entries min/mean/max: %zu/%.1f/%zu\n",
                tree.min_leaf_entries, tree.mean_leaf_entries,
                tree.max_leaf_entries);
  out += buffer;
  std::snprintf(buffer, sizeof(buffer),
                "  leaf representatives: %zu, leaf feature payload: %llu "
                "bytes\n",
                tree.leaf_representatives,
                static_cast<unsigned long long>(tree.leaf_feature_bytes));
  out += buffer;
  return out;
}

}  // namespace qdcbir
