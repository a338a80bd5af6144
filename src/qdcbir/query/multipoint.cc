#include "qdcbir/query/multipoint.h"

#include <cassert>
#include <cmath>
#include <limits>

#include "qdcbir/core/distance.h"

namespace qdcbir {

MultipointQuery::MultipointQuery(std::vector<FeatureVector> points)
    : points_(std::move(points)), weights_(points_.size(), 1.0) {}

MultipointQuery::MultipointQuery(std::vector<FeatureVector> points,
                                 std::vector<double> weights)
    : points_(std::move(points)), weights_(std::move(weights)) {
  assert(points_.size() == weights_.size());
}

const FeatureVector& MultipointQuery::Centroid() const {
  assert(!points_.empty());
  if (!centroid_valid_) {
    FeatureVector sum(points_.front().dim());
    double total = 0.0;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      sum += points_[i] * weights_[i];
      total += weights_[i];
    }
    if (total > 0.0) sum *= 1.0 / total;
    centroid_ = std::move(sum);
    centroid_valid_ = true;
  }
  return centroid_;
}

double MultipointQuery::CentroidScore(FeatureRow x) const {
  return SquaredL2(Centroid(), x);
}

double MultipointQuery::AggregateScore(FeatureRow x) const {
  assert(!points_.empty());
  double total_weight = 0.0;
  for (double w : weights_) total_weight += w;
  double score = 0.0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    score += weights_[i] * std::sqrt(SquaredL2(points_[i], x));
  }
  return total_weight > 0.0 ? score / total_weight : score;
}

double MultipointQuery::DisjunctiveScore(FeatureRow x) const {
  assert(!points_.empty());
  double best = std::numeric_limits<double>::infinity();
  for (const FeatureVector& p : points_) {
    best = std::min(best, SquaredL2(p, x));
  }
  return best;
}

}  // namespace qdcbir
