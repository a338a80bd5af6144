#include "qdcbir/query/qpm_engine.h"

#include <cmath>

#include "qdcbir/core/stats.h"

#include "qdcbir/obs/span.h"

namespace qdcbir {

QpmEngine::QpmEngine(const ImageDatabase* db, const QpmOptions& options)
    : GlobalFeedbackEngineBase(db, options.display_size, options.seed),
      options_(options) {}

StatusOr<Ranking> QpmEngine::ComputeRanking(std::size_t k) {
  QDCBIR_SPAN("engine.qpm.rank");
  if (relevant().empty()) {
    return Status::FailedPrecondition("QPM has no relevant feedback yet");
  }
  const FeatureStore& table = db_->features();
  const std::size_t dim = table.dim();

  // Query point: centroid of the relevant images. Weights: inverse standard
  // deviation per dimension (MindReader's diagonal metric).
  std::vector<MomentAccumulator> acc(dim);
  for (const ImageId id : relevant()) {
    const FeatureRow row = table.row(id);
    for (std::size_t d = 0; d < dim; ++d) acc[d].Add(row[d]);
  }
  FeatureVector centroid(dim);
  std::vector<double> weights(dim);
  for (std::size_t d = 0; d < dim; ++d) {
    centroid[d] = acc[d].mean();
    weights[d] = 1.0 / (acc[d].stddev() + options_.sigma_floor);
  }

  stats_.global_knn_computations += 1;
  stats_.candidates_scanned += table.size();
  return BruteForceWeightedKnnBlocked(db_->feature_blocks(), centroid,
                                      weights, k);
}

StatusOr<Ranking> QpmEngine::Finalize(std::size_t k) {
  return ComputeRanking(k);
}

}  // namespace qdcbir
