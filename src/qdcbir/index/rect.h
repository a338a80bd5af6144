#ifndef QDCBIR_INDEX_RECT_H_
#define QDCBIR_INDEX_RECT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "qdcbir/core/feature_vector.h"

namespace qdcbir {

/// Axis-aligned hyper-rectangle (minimum bounding rectangle) of dynamic
/// dimensionality, the geometric primitive of the R*-tree.
class Rect {
 public:
  Rect() = default;

  /// Degenerate rectangle covering exactly `point`.
  explicit Rect(FeatureRow point);

  /// Rectangle with explicit bounds; requires lo[i] <= hi[i] for all i.
  Rect(std::vector<double> lo, std::vector<double> hi);

  std::size_t dim() const { return lo_.size(); }
  bool empty() const { return lo_.empty(); }

  double lo(std::size_t i) const { return lo_[i]; }
  double hi(std::size_t i) const { return hi_[i]; }
  const std::vector<double>& lo() const { return lo_; }
  const std::vector<double>& hi() const { return hi_; }

  /// Hyper-volume (product of extents). Degenerate rects have area 0.
  double Area() const;

  /// Margin: sum of extents (the R*-tree split heuristic's "perimeter").
  double Margin() const;

  /// Overlap volume with `other` (0 when disjoint).
  double Overlap(const Rect& other) const;

  /// Growth in area needed to also cover `other`.
  double Enlargement(const Rect& other) const;

  /// Whether this rect fully contains `other` / `point`.
  bool Contains(const Rect& other) const;
  bool ContainsPoint(FeatureRow point) const;

  /// Whether this rect intersects `other`.
  bool Intersects(const Rect& other) const;

  /// Extends this rect to cover `other` / `point` (the latter exactly as
  /// `Extend(Rect(point))`, without building the degenerate rect).
  void Extend(const Rect& other);
  void Extend(FeatureRow point);

  /// Smallest rect covering both inputs.
  static Rect Union(const Rect& a, const Rect& b);

  /// Geometric center.
  FeatureVector Center() const;

  /// Euclidean length of the main diagonal. This is the denominator of the
  /// paper's boundary-expansion test (distance-to-center / diagonal > t).
  double Diagonal() const;

  /// MINDIST: squared Euclidean distance from `point` to the nearest point
  /// of the rect (0 when inside). Drives best-first k-NN search.
  double MinDistSquared(FeatureRow point) const;

  /// MINDIST from `point` to the box with bounds `lo`/`hi` (each
  /// `point.size()` long). The member above is this over the rect's own
  /// bounds; an R*-tree leaf entry passes its stored point as both bounds,
  /// so point and box distances share one arithmetic bit for bit.
  static double MinDistSquared(const double* lo, const double* hi,
                               FeatureRow point);

  std::string ToString() const;

  friend bool operator==(const Rect& a, const Rect& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }

 private:
  std::vector<double> lo_;
  std::vector<double> hi_;
};

}  // namespace qdcbir

#endif  // QDCBIR_INDEX_RECT_H_
