#ifndef QDCBIR_QUERY_MULTIPOINT_H_
#define QDCBIR_QUERY_MULTIPOINT_H_

#include <vector>

#include "qdcbir/core/feature_vector.h"
#include "qdcbir/core/status.h"

namespace qdcbir {

/// A multipoint query: several query points with non-negative weights
/// (Porkaew et al., MARS). The paper's QD prototype scores a candidate by
/// its Euclidean distance to the *centroid* of the local query points
/// (§3.4); the MARS-style weighted aggregate is also provided.
class MultipointQuery {
 public:
  MultipointQuery() = default;

  /// Equal-weight query points; `points` must be non-empty for scoring.
  explicit MultipointQuery(std::vector<FeatureVector> points);

  MultipointQuery(std::vector<FeatureVector> points,
                  std::vector<double> weights);

  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }
  const std::vector<FeatureVector>& points() const { return points_; }
  const std::vector<double>& weights() const { return weights_; }

  /// Weighted centroid of the query points.
  const FeatureVector& Centroid() const;

  /// Paper §3.4 scoring: squared Euclidean distance from `x` to the
  /// centroid (monotone in the Euclidean distance the paper uses).
  double CentroidScore(FeatureRow x) const;

  /// MARS-style scoring: weighted sum of the distances from `x` to each
  /// query point (weights normalized to sum 1).
  double AggregateScore(FeatureRow x) const;

  /// Qcluster-style disjunctive scoring: distance to the *nearest* query
  /// point, so multiple separate contours are honored.
  double DisjunctiveScore(FeatureRow x) const;

 private:
  std::vector<FeatureVector> points_;
  std::vector<double> weights_;
  mutable FeatureVector centroid_;
  mutable bool centroid_valid_ = false;
};

}  // namespace qdcbir

#endif  // QDCBIR_QUERY_MULTIPOINT_H_
