#include "qdcbir/rfs/representative_selector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "qdcbir/cluster/kmeans.h"
#include "qdcbir/core/distance.h"

namespace qdcbir {

std::size_t RepresentativeCount(std::size_t subtree_size,
                                std::size_t candidate_count,
                                const RepresentativeOptions& options) {
  std::size_t target = static_cast<std::size_t>(
      std::lround(options.fraction * static_cast<double>(subtree_size)));
  target = std::max(target, options.min_per_node);
  return std::min(target, candidate_count);
}

StatusOr<SelectedRepresentatives> SelectRepresentatives(
    const std::vector<RepresentativeCandidate>& candidates,
    const FeatureStore& features, std::size_t target_count,
    const RepresentativeOptions& options) {
  if (candidates.empty()) {
    return Status::InvalidArgument("no representative candidates");
  }
  target_count = std::min(target_count, candidates.size());
  if (target_count == 0) target_count = 1;

  std::vector<FeatureVector> points;
  points.reserve(candidates.size());
  for (const RepresentativeCandidate& c : candidates) {
    points.emplace_back(features.row(c.image));
  }

  KMeansOptions km;
  km.k = static_cast<int>(target_count);
  km.max_iterations = options.kmeans_iterations;
  km.seed = options.seed;
  StatusOr<KMeansResult> result = RunKMeans(points, km);
  if (!result.ok()) return result.status();

  // For each subcluster, pick the candidate nearest its center.
  SelectedRepresentatives out;
  std::unordered_set<ImageId> chosen;
  const int k = static_cast<int>(result->centroids.size());
  for (int c = 0; c < k; ++c) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_i = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (result->assignments[i] != c) continue;
      const double d = SquaredL2(points[i], result->centroids[c]);
      if (d < best) {
        best = d;
        best_i = i;
      }
    }
    if (best_i == candidates.size()) continue;  // empty subcluster
    if (!chosen.insert(candidates[best_i].image).second) continue;
    out.images.push_back(candidates[best_i].image);
    out.origins.push_back(candidates[best_i].origin);
  }
  // k-means can leave every point in one cluster in degenerate inputs; the
  // caller always gets at least one representative.
  if (out.images.empty()) {
    out.images.push_back(candidates.front().image);
    out.origins.push_back(candidates.front().origin);
  }
  return out;
}

}  // namespace qdcbir
