#ifndef QDCBIR_CORE_DISTANCE_H_
#define QDCBIR_CORE_DISTANCE_H_

#include <memory>
#include <vector>

#include "qdcbir/core/feature_vector.h"
#include "qdcbir/core/status.h"

namespace qdcbir {

/// Abstract distance metric over feature vectors.
///
/// Implementations must be symmetric and non-negative with d(x, x) == 0.
/// `Distance` is the actual metric; `Compare` may be any monotone transform
/// of it (e.g. squared L2) and is what ranking code should call.
class DistanceMetric {
 public:
  virtual ~DistanceMetric() = default;

  /// The metric value d(a, b).
  virtual double Distance(FeatureRow a, FeatureRow b) const = 0;

  /// A value monotone in `Distance`, potentially cheaper (default: same).
  virtual double Compare(FeatureRow a, FeatureRow b) const {
    return Distance(a, b);
  }

  /// Short name for logs ("l2", "l1", "weighted_l2").
  virtual const char* Name() const = 0;
};

/// Euclidean distance; `Compare` returns the squared distance.
class L2Distance final : public DistanceMetric {
 public:
  double Distance(FeatureRow a, FeatureRow b) const override;
  double Compare(FeatureRow a, FeatureRow b) const override;
  const char* Name() const override { return "l2"; }
};

/// Manhattan (city-block) distance.
class L1Distance final : public DistanceMetric {
 public:
  double Distance(FeatureRow a, FeatureRow b) const override;
  const char* Name() const override { return "l1"; }
};

/// Per-dimension weighted Euclidean distance, as used by query-point-movement
/// style relevance feedback (MindReader): d(a,b)^2 = sum_i w_i (a_i - b_i)^2.
/// Weights must be non-negative and sized to the vectors being compared:
/// the constructor aborts on a negative weight and `Compare`/`Distance`
/// abort (in every build type, not just with assertions on) when
/// `weights().size()` does not match the operand dimensionality — an
/// undersized weight vector would otherwise read out of bounds. Callers
/// with untrusted sizes should go through `Create`, which reports the
/// mismatch as a Status instead.
class WeightedL2Distance final : public DistanceMetric {
 public:
  explicit WeightedL2Distance(std::vector<double> weights);

  /// Validating factory: InvalidArgument when `weights.size() != dim` or
  /// any weight is negative / non-finite.
  static StatusOr<WeightedL2Distance> Create(std::vector<double> weights,
                                             std::size_t dim);

  double Distance(FeatureRow a, FeatureRow b) const override;
  double Compare(FeatureRow a, FeatureRow b) const override;
  const char* Name() const override { return "weighted_l2"; }

  const std::vector<double>& weights() const { return weights_; }

 private:
  std::vector<double> weights_;
};

/// Squared Euclidean distance between raw double arrays of length `dim`.
/// Hot-path helper used by the index and clustering code.
double SquaredL2(const double* a, const double* b, std::size_t dim);

/// Squared Euclidean distance between two feature vectors (dims must match).
double SquaredL2(FeatureRow a, FeatureRow b);

}  // namespace qdcbir

#endif  // QDCBIR_CORE_DISTANCE_H_
