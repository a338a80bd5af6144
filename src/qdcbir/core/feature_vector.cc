#include "qdcbir/core/feature_vector.h"

#include <cmath>
#include <cstdio>

namespace qdcbir {

FeatureVector& FeatureVector::operator+=(FeatureRow other) {
  assert(dim() == other.size());
  for (std::size_t i = 0; i < values_.size(); ++i) values_[i] += other[i];
  return *this;
}

FeatureVector& FeatureVector::operator-=(FeatureRow other) {
  assert(dim() == other.size());
  for (std::size_t i = 0; i < values_.size(); ++i) values_[i] -= other[i];
  return *this;
}

FeatureVector& FeatureVector::operator*=(double s) {
  for (double& v : values_) v *= s;
  return *this;
}

double FeatureVector::Dot(FeatureRow other) const {
  assert(dim() == other.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) sum += values_[i] * other[i];
  return sum;
}

double FeatureVector::Norm() const { return std::sqrt(Dot(*this)); }

std::string FeatureVector::ToString() const {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < values_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.4g", values_[i]);
    if (i > 0) out += ", ";
    out += buf;
  }
  out += "]";
  return out;
}

FeatureVector FeatureVector::Centroid(
    const std::vector<FeatureVector>& points) {
  assert(!points.empty());
  FeatureVector sum(points.front().dim());
  for (const FeatureVector& p : points) sum += p;
  sum *= 1.0 / static_cast<double>(points.size());
  return sum;
}

}  // namespace qdcbir
