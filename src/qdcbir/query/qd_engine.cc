#include "qdcbir/query/qd_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <unordered_set>

#include "qdcbir/cache/cache_manager.h"
#include "qdcbir/core/distance.h"
#include "qdcbir/core/distance_kernels.h"
#include "qdcbir/core/feature_store.h"
#include "qdcbir/core/thread_pool.h"
#include "qdcbir/obs/access_stats.h"
#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/resource_stats.h"
#include "qdcbir/obs/span.h"
#include "qdcbir/query/multipoint.h"

namespace qdcbir {

namespace {

/// The session cost model (`QdSessionStats`) routed through the metrics
/// registry: the struct keeps its per-session semantics for the paper's
/// efficiency experiments, while these process-wide counters aggregate the
/// same events across every session for profiling and regression tracking.
struct QdCounters {
  obs::Counter& feedback_rounds;
  obs::Counter& nodes_touched;
  obs::Counter& boundary_expansions;
  obs::Counter& expanded_subqueries;
  obs::Counter& localized_subqueries;
  obs::Counter& knn_candidates;
  obs::Counter& knn_nodes_visited;

  static QdCounters& Get() {
    static QdCounters* counters = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return new QdCounters{
          registry.GetCounter("qd.feedback.rounds",
                              "Relevance-feedback rounds processed"),
          registry.GetCounter("qd.display.nodes_touched",
                              "Frontier nodes sampled for displays"),
          registry.GetCounter("qd.finalize.boundary_expansions",
                              "Parent expansions during finalize (paper 3.3)"),
          registry.GetCounter(
              "qd.finalize.expanded_subqueries",
              "Subqueries whose search node expanded past their leaf"),
          registry.GetCounter("qd.finalize.subqueries",
                              "Localized k-NN subqueries run by finalize"),
          registry.GetCounter("qd.finalize.knn_candidates",
                              "Images inside subtrees searched by finalize"),
          registry.GetCounter("qd.finalize.knn_nodes_visited",
                              "Tree nodes opened by localized k-NN searches"),
      };
    }();
    return *counters;
  }
};

/// Payload of a kLeafScan cache entry: the localized ranking plus the
/// logical node-access count the scan adds to the session cost model — a
/// hit replays the delta so `QdSessionStats` stays byte-identical with the
/// cache on or off.
struct LeafScanValue {
  Ranking ranking;
  std::size_t nodes_visited = 0;
};

}  // namespace

std::vector<ImageId> QdResult::Flatten() const {
  std::vector<ImageId> out;
  for (const ResultGroup& g : groups) {
    for (const KnnMatch& m : g.images) out.push_back(m.id);
  }
  return out;
}

std::vector<ImageId> QdResult::FlattenBySimilarity() const {
  std::vector<KnnMatch> all;
  for (const ResultGroup& g : groups) {
    all.insert(all.end(), g.images.begin(), g.images.end());
  }
  std::sort(all.begin(), all.end(), [](const KnnMatch& a, const KnnMatch& b) {
    if (a.distance_squared != b.distance_squared) {
      return a.distance_squared < b.distance_squared;
    }
    return a.id < b.id;
  });
  std::vector<ImageId> out;
  out.reserve(all.size());
  for (const KnnMatch& m : all) out.push_back(m.id);
  return out;
}

std::size_t QdResult::TotalImages() const {
  std::size_t n = 0;
  for (const ResultGroup& g : groups) n += g.images.size();
  return n;
}

QdSession::QdSession(const RfsTree* rfs, const QdOptions& options)
    : rfs_(rfs), options_(options), rng_(options.seed) {}

std::vector<DisplayGroup> QdSession::Start() {
  started_ = true;
  round_ = 0;
  frontier_ = {rfs_->root()};
  relevant_by_leaf_.clear();
  display_origin_.clear();
  sampled_nodes_.clear();
  stats_ = QdSessionStats{};
  current_display_ = MakeDisplay();
  return current_display_;
}

std::vector<DisplayGroup> QdSession::Resample() {
  current_display_ = MakeDisplay();
  return current_display_;
}

std::vector<DisplayGroup> QdSession::MakeDisplay() {
  QDCBIR_SPAN("qd.round.sampling");
  std::vector<DisplayGroup> display;
  if (frontier_.empty()) return display;
  stats_.nodes_touched += frontier_.size();
  QdCounters::Get().nodes_touched.Add(frontier_.size());
  for (const NodeId node : frontier_) sampled_nodes_.insert(node);
  stats_.distinct_nodes_sampled = sampled_nodes_.size();

  // Allocate display slots proportionally to subtree size, at least one per
  // active subquery.
  std::vector<std::size_t> sizes;
  std::size_t total = 0;
  for (const NodeId node : frontier_) {
    sizes.push_back(rfs_->info(node).subtree_size);
    total += sizes.back();
  }
  std::vector<std::size_t> alloc(frontier_.size(), 1);
  std::size_t used = frontier_.size();
  if (options_.display_size > used && total > 0) {
    const std::size_t spare = options_.display_size - used;
    for (std::size_t i = 0; i < frontier_.size(); ++i) {
      // floor(spare * sizes[i] / total) without the wide product, which
      // wraps for a client-sized display; exact since sizes[i] <= total.
      alloc[i] += (spare / total) * sizes[i] +
                  (spare % total) * sizes[i] / total;
    }
  }
  for (std::size_t i = 0; i < frontier_.size(); ++i) {
    DisplayGroup group;
    group.node = frontier_[i];
    group.images =
        rfs_->SampleRepresentatives(frontier_[i], alloc[i], rng_);
    for (const ImageId image : group.images) {
      display_origin_.emplace(image, group.node);
    }
    if (!group.images.empty()) display.push_back(std::move(group));
  }
  (void)used;
  return display;
}

StatusOr<std::vector<DisplayGroup>> QdSession::Feedback(
    const std::vector<ImageId>& relevant) {
  if (!started_) {
    return Status::FailedPrecondition("call Start() before Feedback()");
  }
  QDCBIR_SPAN("qd.round.descent");

  // Locate each pick among the images displayed since the last feedback.
  std::set<NodeId> next_frontier;
  for (const ImageId image : relevant) {
    const auto it = display_origin_.find(image);
    if (it == display_origin_.end()) {
      return Status::InvalidArgument(
          "relevant image was not in any display this round");
    }
    const NodeId display_node = it->second;

    // Record the relevant image with its subcluster (leaf).
    const NodeId leaf = rfs_->LeafOf(image);
    std::vector<ImageId>& bucket = relevant_by_leaf_[leaf];
    if (std::find(bucket.begin(), bucket.end(), image) == bucket.end()) {
      bucket.push_back(image);
    }

    // The subquery split: descend into the subtree this representative
    // came from.
    StatusOr<NodeId> origin =
        rfs_->OriginOfRepresentative(display_node, image);
    if (!origin.ok()) return origin.status();
    next_frontier.insert(*origin);
  }

  if (!next_frontier.empty()) {
    frontier_.assign(next_frontier.begin(), next_frontier.end());
  }
  display_origin_.clear();
  ++round_;
  stats_.feedback_rounds = static_cast<std::size_t>(round_);
  QdCounters::Get().feedback_rounds.Add(1);
  current_display_ = MakeDisplay();
  return current_display_;
}

Ranking QdSession::LocalizedSearch(NodeId node,
                                   const FeatureVector& query_point,
                                   std::size_t fetch,
                                   QdSessionStats* stats) const {
  cache::CacheManager* cache_mgr = options_.cache;
  if (cache_mgr == nullptr) {
    return LocalizedSearchUncached(node, query_point, fetch, stats);
  }
  // The cached ranking is a pure function of the key: the search node, the
  // query-point and weight bytes, the fetch size, and the SIMD level (the
  // kernels' bit-identical contract makes distances a function of the level
  // alone). Safe across concurrent subquery tasks — the payload is
  // immutable and hits only add a precomputed delta to the task-local
  // stats.
  cache::CacheKey key;
  key.kind = cache::CacheKind::kLeafScan;
  key.a = static_cast<std::uint64_t>(node);
  std::uint64_t hash = cache::HashBytes(
      query_point.data(), query_point.dim() * sizeof(double));
  hash = cache::HashBytes(options_.feature_weights.data(),
                          options_.feature_weights.size() * sizeof(double),
                          hash);
  hash = cache::HashCombine(hash, fetch);
  key.b = hash;
  key.c = static_cast<std::uint64_t>(ActiveKernels().level);

  std::uint64_t token = 0;
  if (std::shared_ptr<const LeafScanValue> hit =
          cache_mgr->LookupAs<LeafScanValue>(key, &token)) {
    stats->knn_nodes_visited += hit->nodes_visited;
    obs::CountLeafCacheHit(static_cast<obs::AccessLeafId>(node));
    return hit->ranking;
  }
  obs::CountLeafCacheMiss(static_cast<obs::AccessLeafId>(node));
  const std::size_t nodes_before = stats->knn_nodes_visited;
  Ranking ranking = LocalizedSearchUncached(node, query_point, fetch, stats);
  auto value = std::make_shared<LeafScanValue>();
  value->ranking = ranking;
  value->nodes_visited = stats->knn_nodes_visited - nodes_before;
  cache_mgr->InsertAs<LeafScanValue>(
      key, std::move(value),
      sizeof(LeafScanValue) + ranking.size() * sizeof(KnnMatch), token);
  return ranking;
}

Ranking QdSession::LocalizedSearchUncached(NodeId node,
                                           const FeatureVector& query_point,
                                           std::size_t fetch,
                                           QdSessionStats* stats) const {
  if (options_.feature_weights.empty()) {
    SearchStats search_stats;
    Ranking ranking = rfs_->index().KnnSearchInSubtree(node, query_point,
                                                       fetch, &search_stats);
    stats->knn_nodes_visited += search_stats.nodes_visited;
    obs::CountLeafVisits(search_stats.nodes_visited);
    obs::CountLeafScan(static_cast<obs::AccessLeafId>(node),
                       search_stats.entries_scanned,
                       search_stats.entries_scanned * rfs_->feature_dim() *
                           sizeof(double));
    return ranking;
  }
  // Weighted ranking: scan the (small) localized subtree under the
  // user-supplied importance weights. The scan reads every node of the
  // subtree once.
  {
    std::vector<NodeId> stack = {node};
    while (!stack.empty()) {
      const NodeId nid = stack.back();
      stack.pop_back();
      stats->knn_nodes_visited += 1;
      obs::CountLeafVisits(1);
      const RStarTree::Node& n = rfs_->index().node(nid);
      if (!n.IsLeaf()) {
        for (const RStarTree::Entry& e : n.entries) stack.push_back(e.child);
      }
    }
  }
  const std::vector<ImageId> members = rfs_->index().CollectSubtree(node);
  const FeatureStore& store = *rfs_->feature_store();
  const std::size_t dim = store.dim();
  const DistanceKernels& kernels = ActiveKernels();
  Ranking ranking(members.size());
  obs::CountContainerAlloc(members.size() * sizeof(KnnMatch));
  std::vector<double> tile(dim * kBlockWidth);
  obs::CountContainerAlloc(tile.size() * sizeof(double));
  double out[kBlockWidth];
  std::size_t batches = 0;
  for (std::size_t base = 0; base < members.size(); base += kBlockWidth) {
    const std::size_t count = std::min(kBlockWidth, members.size() - base);
    store.GatherTile(members.data() + base, count, tile.data());
    kernels.weighted_l2(tile.data(), query_point.data(),
                        options_.feature_weights.data(), dim, out);
    for (std::size_t lane = 0; lane < count; ++lane) {
      ranking[base + lane] = KnnMatch{members[base + lane], out[lane]};
    }
    ++batches;
  }
  AddBlockBatches(batches);
  obs::CountLeafScan(static_cast<obs::AccessLeafId>(node), members.size(),
                     members.size() * dim * sizeof(double));
  std::sort(ranking.begin(), ranking.end(),
            [](const KnnMatch& a, const KnnMatch& b) {
              if (a.distance_squared != b.distance_squared) {
                return a.distance_squared < b.distance_squared;
              }
              return a.id < b.id;
            });
  if (ranking.size() > fetch) ranking.resize(fetch);
  return ranking;
}

NodeId QdSession::ExpandSearchNode(NodeId leaf,
                                   const std::vector<ImageId>& query_images,
                                   QdSessionStats* stats) const {
  NodeId node = leaf;
  for (;;) {
    const RfsTree::NodeInfo& info = rfs_->info(node);
    bool near_boundary = false;
    for (const ImageId image : query_images) {
      const double dist =
          std::sqrt(SquaredL2(rfs_->feature(image), info.center));
      if (dist > options_.boundary_threshold * info.diagonal) {
        near_boundary = true;
        break;
      }
    }
    if (!near_boundary || info.parent == kInvalidNodeId) return node;
    node = info.parent;
    ++stats->boundary_expansions;
  }
}

StatusOr<QdResult> QdSession::Finalize(std::size_t k) {
  if (relevant_by_leaf_.empty()) {
    return Status::FailedPrecondition(
        "no relevant feedback was provided; nothing to decompose");
  }
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (!options_.feature_weights.empty()) {
    // Validate up front (size and value range) instead of letting the
    // weighted scans abort mid-finalize on a malformed weight vector.
    const StatusOr<WeightedL2Distance> checked = WeightedL2Distance::Create(
        options_.feature_weights, rfs_->feature_dim());
    if (!checked.ok()) return checked.status();
  }
  QDCBIR_SPAN("qd.finalize");

  std::size_t total_relevant = 0;
  for (const auto& [leaf, images] : relevant_by_leaf_) {
    total_relevant += images.size();
  }

  // Result allocation proportional to each subcluster's relevant count
  // (largest-remainder rounding, each subquery gets at least 1).
  struct Local {
    NodeId leaf;
    const std::vector<ImageId>* relevant;
    std::size_t quota = 0;
    double remainder = 0.0;
  };
  std::vector<Local> locals;
  std::size_t assigned = 0;
  for (const auto& [leaf, images] : relevant_by_leaf_) {
    Local local;
    local.leaf = leaf;
    local.relevant = &images;
    const double ideal = static_cast<double>(k) *
                         static_cast<double>(images.size()) /
                         static_cast<double>(total_relevant);
    local.quota = std::max<std::size_t>(1, static_cast<std::size_t>(ideal));
    local.remainder = ideal - std::floor(ideal);
    assigned += local.quota;
    locals.push_back(local);
  }
  std::sort(locals.begin(), locals.end(), [](const Local& a, const Local& b) {
    return a.remainder > b.remainder;
  });
  std::size_t li = 0;
  while (assigned < k && !locals.empty()) {
    locals[li % locals.size()].quota += 1;
    ++assigned;
    ++li;
  }
  while (assigned > k) {
    Local& largest = *std::max_element(
        locals.begin(), locals.end(),
        [](const Local& a, const Local& b) { return a.quota < b.quota; });
    if (largest.quota <= 1) break;  // cannot shrink below 1 per subquery
    largest.quota -= 1;
    --assigned;
  }
  if (assigned > k) {
    // Fewer result slots than relevant subclusters: keep the subqueries
    // with the most relevant feedback (each at quota 1).
    std::sort(locals.begin(), locals.end(),
              [](const Local& a, const Local& b) {
                if (a.relevant->size() != b.relevant->size()) {
                  return a.relevant->size() > b.relevant->size();
                }
                return a.leaf < b.leaf;
              });
    locals.resize(k);
    assigned = k;
  }

  // Run one localized multipoint k-NN per relevant subcluster. Subqueries
  // with more relevant feedback get dedup priority.
  std::sort(locals.begin(), locals.end(), [](const Local& a, const Local& b) {
    if (a.relevant->size() != b.relevant->size()) {
      return a.relevant->size() > b.relevant->size();
    }
    return a.leaf < b.leaf;
  });

  // Phase 1 (parallel): one task per relevant subcluster runs the boundary
  // expansion and the localized multipoint k-NN. Tasks only read the RFS
  // tree and write into their own slot, so the outcome is identical for
  // every pool size; cost counters accumulate task-locally and merge below
  // (sums are order-independent). Only the scans are cached: a replayed
  // session re-runs this fan-out and the merge from its cached rankings.
  ThreadPool& pool = options_.pool != nullptr ? *options_.pool
                                              : ThreadPool::Global();
  std::vector<ResultGroup> groups(locals.size());
  std::vector<Ranking> local_candidates(locals.size());
  std::vector<QdSessionStats> task_stats(locals.size());
  pool.ParallelFor(0, locals.size(), [&](std::size_t li2) {
    QDCBIR_SPAN("qd.finalize.subquery");
    const Local& local = locals[li2];
    ResultGroup& group = groups[li2];
    group.leaf = local.leaf;
    group.relevant_count = local.relevant->size();
    group.search_node =
        ExpandSearchNode(local.leaf, *local.relevant, &task_stats[li2]);

    std::vector<FeatureVector> points;
    points.reserve(local.relevant->size());
    for (const ImageId image : *local.relevant) {
      points.push_back(rfs_->feature(image));
    }
    const MultipointQuery query(std::move(points));

    // Over-fetch to survive cross-group dedup and to provide spare
    // candidates if another subquery's subtree runs dry.
    const std::size_t fetch = 2 * local.quota + locals.size() + 8;
    local_candidates[li2] = LocalizedSearch(group.search_node,
                                            query.Centroid(), fetch,
                                            &task_stats[li2]);
    // Per-subquery attribution for /tracez: which subcluster this span
    // searched and whether (and how far) 3.3 widened it.
    QDCBIR_SPAN_ANNOTATE("leaf", group.leaf);
    QDCBIR_SPAN_ANNOTATE("search_node", group.search_node);
    QDCBIR_SPAN_ANNOTATE("relevant_count", group.relevant_count);
    QDCBIR_SPAN_ANNOTATE("boundary_expansions",
                         task_stats[li2].boundary_expansions);
  });
  std::size_t expansions = 0;
  std::size_t expanded = 0;
  std::size_t nodes_visited = 0;
  for (const QdSessionStats& ts : task_stats) {
    expansions += ts.boundary_expansions;
    if (ts.boundary_expansions > 0) ++expanded;
    nodes_visited += ts.knn_nodes_visited;
  }
  stats_.boundary_expansions += expansions;
  stats_.expanded_subqueries += expanded;
  stats_.knn_nodes_visited += nodes_visited;
  QdCounters& counters = QdCounters::Get();
  counters.boundary_expansions.Add(expansions);
  counters.expanded_subqueries.Add(expanded);
  counters.knn_nodes_visited.Add(nodes_visited);
  counters.localized_subqueries.Add(locals.size());

  // Phase 2 (sequential): cross-group dedup and quota consumption, in the
  // same subquery order as before — the determinism-critical merge.
  QDCBIR_SPAN("qd.finalize.merge");
  QdResult result;
  std::unordered_set<ImageId> taken;
  std::vector<Ranking> spare_candidates(locals.size());
  for (std::size_t li2 = 0; li2 < locals.size(); ++li2) {
    const Local& local = locals[li2];
    ResultGroup group = std::move(groups[li2]);
    Ranking candidates = std::move(local_candidates[li2]);
    stats_.localized_subqueries += 1;
    stats_.knn_candidates += rfs_->info(group.search_node).subtree_size;
    counters.knn_candidates.Add(rfs_->info(group.search_node).subtree_size);

    std::size_t consumed = 0;
    for (const KnnMatch& m : candidates) {
      ++consumed;
      if (group.images.size() >= local.quota) {
        --consumed;
        break;
      }
      if (!taken.insert(m.id).second) continue;
      group.images.push_back(m);
      group.ranking_score += std::sqrt(m.distance_squared);
    }
    candidates.erase(candidates.begin(),
                     candidates.begin() + static_cast<std::ptrdiff_t>(consumed));
    spare_candidates[li2] = std::move(candidates);
    result.groups.push_back(std::move(group));
  }

  // Quota deficit (a subquery's subtree was smaller than its share): refill
  // from the remaining candidates of the other subqueries, best-first by
  // similarity. This keeps the result size at exactly k whenever the
  // searched subtrees jointly hold k images.
  std::size_t produced = result.TotalImages();
  while (produced < k) {
    std::size_t best_group = locals.size();
    double best_distance = std::numeric_limits<double>::infinity();
    for (std::size_t g = 0; g < spare_candidates.size(); ++g) {
      // Skip already-taken ids at the front of each spare list.
      Ranking& spare = spare_candidates[g];
      std::size_t front = 0;
      while (front < spare.size() && taken.count(spare[front].id) > 0) {
        ++front;
      }
      spare.erase(spare.begin(), spare.begin() + static_cast<std::ptrdiff_t>(front));
      if (!spare.empty() && spare.front().distance_squared < best_distance) {
        best_distance = spare.front().distance_squared;
        best_group = g;
      }
    }
    if (best_group == locals.size()) break;  // every subtree is exhausted
    Ranking& spare = spare_candidates[best_group];
    const KnnMatch m = spare.front();
    spare.erase(spare.begin());
    taken.insert(m.id);
    result.groups[best_group].images.push_back(m);
    result.groups[best_group].ranking_score += std::sqrt(m.distance_squared);
    ++produced;
  }

  // §3.4 presentation: groups ordered by their ranking scores.
  std::sort(result.groups.begin(), result.groups.end(),
            [](const ResultGroup& a, const ResultGroup& b) {
              if (a.ranking_score != b.ranking_score) {
                return a.ranking_score < b.ranking_score;
              }
              return a.leaf < b.leaf;
            });

  return result;
}

}  // namespace qdcbir
