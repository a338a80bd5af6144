#ifndef QDCBIR_CORE_FEATURE_VECTOR_H_
#define QDCBIR_CORE_FEATURE_VECTOR_H_

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace qdcbir {

/// A read-only view of one feature vector's values: a row of a
/// `FeatureStore`, or a `FeatureVector` (which converts to one). Every
/// read-only feature parameter takes this, so stored rows are never copied
/// to be compared.
using FeatureRow = std::span<const double>;

/// Dense real-valued feature vector of an image.
///
/// The paper uses a fixed 37-dimensional vector (`kPaperFeatureDim`), but the
/// library keeps the dimensionality dynamic so that viewpoints (feature
/// subsets), PCA projections and tests can use other sizes.
class FeatureVector {
 public:
  FeatureVector() = default;

  /// Creates a zero vector of the given dimensionality.
  explicit FeatureVector(std::size_t dim) : values_(dim, 0.0) {}

  /// Creates a vector holding `values`.
  explicit FeatureVector(std::vector<double> values)
      : values_(std::move(values)) {}

  FeatureVector(std::initializer_list<double> values) : values_(values) {}

  /// Creates a vector holding a copy of `row`.
  explicit FeatureVector(FeatureRow row) : values_(row.begin(), row.end()) {}

  operator FeatureRow() const { return values_; }

  std::size_t dim() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double operator[](std::size_t i) const {
    assert(i < values_.size());
    return values_[i];
  }
  double& operator[](std::size_t i) {
    assert(i < values_.size());
    return values_[i];
  }

  const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }

  const double* data() const { return values_.data(); }
  double* data() { return values_.data(); }

  /// Element-wise addition. Dimensions must match.
  FeatureVector& operator+=(FeatureRow other);
  /// Element-wise subtraction. Dimensions must match.
  FeatureVector& operator-=(FeatureRow other);
  /// Scalar multiplication.
  FeatureVector& operator*=(double s);

  friend FeatureVector operator+(FeatureVector a, FeatureRow b) {
    a += b;
    return a;
  }
  friend FeatureVector operator-(FeatureVector a, FeatureRow b) {
    a -= b;
    return a;
  }
  friend FeatureVector operator*(FeatureVector a, double s) {
    a *= s;
    return a;
  }
  friend FeatureVector operator*(double s, FeatureVector a) {
    a *= s;
    return a;
  }

  friend bool operator==(const FeatureVector& a, const FeatureVector& b) {
    return a.values_ == b.values_;
  }

  /// Dot product with `other`. Dimensions must match.
  double Dot(FeatureRow other) const;

  /// Euclidean (L2) norm.
  double Norm() const;

  /// Renders as "[v0, v1, ...]" with limited precision, for logs and tests.
  std::string ToString() const;

  /// Returns the centroid (arithmetic mean) of `points`. All points must have
  /// equal dimensionality and `points` must be non-empty.
  static FeatureVector Centroid(const std::vector<FeatureVector>& points);

 private:
  std::vector<double> values_;
};

}  // namespace qdcbir

#endif  // QDCBIR_CORE_FEATURE_VECTOR_H_
