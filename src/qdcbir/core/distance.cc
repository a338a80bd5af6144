#include "qdcbir/core/distance.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace qdcbir {

namespace {

/// Hard size check, active in every build type: a weighted comparison with
/// mismatched sizes would index weights_ out of bounds.
void CheckWeightedDims(std::size_t a_dim, std::size_t b_dim,
                       std::size_t weight_dim) {
  if (a_dim == b_dim && a_dim == weight_dim) return;
  std::fprintf(stderr,
               "[qdcbir] WeightedL2Distance dimension mismatch: operands "
               "%zu/%zu, weights %zu\n",
               a_dim, b_dim, weight_dim);
  std::abort();
}

}  // namespace

double SquaredL2(const double* a, const double* b, std::size_t dim) {
  double sum = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

double SquaredL2(FeatureRow a, FeatureRow b) {
  assert(a.size() == b.size());
  return SquaredL2(a.data(), b.data(), a.size());
}

double L2Distance::Distance(FeatureRow a, FeatureRow b) const {
  return std::sqrt(SquaredL2(a, b));
}

double L2Distance::Compare(FeatureRow a, FeatureRow b) const {
  return SquaredL2(a, b);
}

double L1Distance::Distance(FeatureRow a, FeatureRow b) const {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

WeightedL2Distance::WeightedL2Distance(std::vector<double> weights)
    : weights_(std::move(weights)) {
  for (double w : weights_) {
    if (!(w >= 0.0)) {
      std::fprintf(stderr,
                   "[qdcbir] WeightedL2Distance weight %g is negative or "
                   "NaN\n",
                   w);
      std::abort();
    }
  }
}

StatusOr<WeightedL2Distance> WeightedL2Distance::Create(
    std::vector<double> weights, std::size_t dim) {
  if (weights.size() != dim) {
    return Status::InvalidArgument(
        "weight count " + std::to_string(weights.size()) +
        " does not match feature dimensionality " + std::to_string(dim));
  }
  for (double w : weights) {
    if (!(w >= 0.0) || std::isinf(w)) {
      return Status::InvalidArgument("weights must be finite and >= 0, got " +
                                     std::to_string(w));
    }
  }
  return WeightedL2Distance(std::move(weights));
}

double WeightedL2Distance::Distance(FeatureRow a, FeatureRow b) const {
  return std::sqrt(Compare(a, b));
}

double WeightedL2Distance::Compare(FeatureRow a, FeatureRow b) const {
  CheckWeightedDims(a.size(), b.size(), weights_.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += weights_[i] * d * d;
  }
  return sum;
}

}  // namespace qdcbir
