#include "qdcbir/query/mars_engine.h"

#include <algorithm>

#include "qdcbir/cluster/kmeans.h"
#include "qdcbir/query/multipoint.h"

#include "qdcbir/obs/span.h"

namespace qdcbir {

MarsEngine::MarsEngine(const ImageDatabase* db, const MarsOptions& options)
    : GlobalFeedbackEngineBase(db, options.display_size, options.seed),
      options_(options) {}

StatusOr<Ranking> MarsEngine::ComputeRanking(std::size_t k) {
  QDCBIR_SPAN("engine.mars.rank");
  if (relevant().empty()) {
    return Status::FailedPrecondition("MARS has no relevant feedback yet");
  }
  const FeatureStore& table = db_->features();

  std::vector<FeatureVector> relevant_points;
  relevant_points.reserve(relevant().size());
  for (const ImageId id : relevant()) {
    relevant_points.emplace_back(table.row(id));
  }

  KMeansOptions km;
  km.k = std::min<int>(options_.max_clusters,
                       static_cast<int>(relevant_points.size()));
  km.seed = options_.kmeans_seed;
  StatusOr<KMeansResult> clusters = RunKMeans(relevant_points, km);
  if (!clusters.ok()) return clusters.status();

  // Representatives: the relevant image nearest each cluster centroid;
  // weight proportional to cluster population.
  std::vector<FeatureVector> representatives;
  std::vector<double> weights;
  for (std::size_t c = 0; c < clusters->centroids.size(); ++c) {
    if (clusters->cluster_sizes[c] == 0) continue;
    std::vector<FeatureVector> members;
    for (std::size_t i = 0; i < relevant_points.size(); ++i) {
      if (clusters->assignments[i] == static_cast<int>(c)) {
        members.push_back(relevant_points[i]);
      }
    }
    const std::size_t nearest =
        NearestPointIndex(members, clusters->centroids[c]);
    representatives.push_back(members[nearest]);
    weights.push_back(static_cast<double>(clusters->cluster_sizes[c]));
  }
  const MultipointQuery query(std::move(representatives), std::move(weights));

  Ranking ranking;
  ranking.reserve(table.size());
  for (ImageId i = 0; i < table.size(); ++i) {
    ranking.push_back(KnnMatch{i, query.AggregateScore(table.row(i))});
  }
  stats_.global_knn_computations += 1;
  stats_.candidates_scanned += table.size();
  std::sort(ranking.begin(), ranking.end(),
            [](const KnnMatch& a, const KnnMatch& b) {
              if (a.distance_squared != b.distance_squared) {
                return a.distance_squared < b.distance_squared;
              }
              return a.id < b.id;
            });
  if (ranking.size() > k) ranking.resize(k);
  return ranking;
}

StatusOr<Ranking> MarsEngine::Finalize(std::size_t k) {
  return ComputeRanking(k);
}

}  // namespace qdcbir
