#include "qdcbir/index/rect.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace qdcbir {

Rect::Rect(FeatureRow point)
    : lo_(point.begin(), point.end()), hi_(point.begin(), point.end()) {}

Rect::Rect(std::vector<double> lo, std::vector<double> hi)
    : lo_(std::move(lo)), hi_(std::move(hi)) {
  assert(lo_.size() == hi_.size());
#ifndef NDEBUG
  for (std::size_t i = 0; i < lo_.size(); ++i) assert(lo_[i] <= hi_[i]);
#endif
}

double Rect::Area() const {
  double area = 1.0;
  for (std::size_t i = 0; i < dim(); ++i) area *= hi_[i] - lo_[i];
  return area;
}

double Rect::Margin() const {
  double margin = 0.0;
  for (std::size_t i = 0; i < dim(); ++i) margin += hi_[i] - lo_[i];
  return margin;
}

double Rect::Overlap(const Rect& other) const {
  assert(dim() == other.dim());
  double volume = 1.0;
  for (std::size_t i = 0; i < dim(); ++i) {
    const double lo = std::max(lo_[i], other.lo_[i]);
    const double hi = std::min(hi_[i], other.hi_[i]);
    if (hi <= lo) return 0.0;
    volume *= hi - lo;
  }
  return volume;
}

double Rect::Enlargement(const Rect& other) const {
  return Union(*this, other).Area() - Area();
}

bool Rect::Contains(const Rect& other) const {
  assert(dim() == other.dim());
  for (std::size_t i = 0; i < dim(); ++i) {
    if (other.lo_[i] < lo_[i] || other.hi_[i] > hi_[i]) return false;
  }
  return true;
}

bool Rect::ContainsPoint(FeatureRow point) const {
  assert(dim() == point.size());
  for (std::size_t i = 0; i < dim(); ++i) {
    if (point[i] < lo_[i] || point[i] > hi_[i]) return false;
  }
  return true;
}

bool Rect::Intersects(const Rect& other) const {
  assert(dim() == other.dim());
  for (std::size_t i = 0; i < dim(); ++i) {
    if (other.hi_[i] < lo_[i] || other.lo_[i] > hi_[i]) return false;
  }
  return true;
}

void Rect::Extend(const Rect& other) {
  if (empty()) {
    *this = other;
    return;
  }
  assert(dim() == other.dim());
  for (std::size_t i = 0; i < dim(); ++i) {
    lo_[i] = std::min(lo_[i], other.lo_[i]);
    hi_[i] = std::max(hi_[i], other.hi_[i]);
  }
}

void Rect::Extend(FeatureRow point) {
  if (empty()) {
    lo_.assign(point.begin(), point.end());
    hi_.assign(point.begin(), point.end());
    return;
  }
  assert(dim() == point.size());
  for (std::size_t i = 0; i < dim(); ++i) {
    lo_[i] = std::min(lo_[i], point[i]);
    hi_[i] = std::max(hi_[i], point[i]);
  }
}

Rect Rect::Union(const Rect& a, const Rect& b) {
  Rect out = a;
  out.Extend(b);
  return out;
}

FeatureVector Rect::Center() const {
  FeatureVector c(dim());
  for (std::size_t i = 0; i < dim(); ++i) c[i] = (lo_[i] + hi_[i]) / 2.0;
  return c;
}

double Rect::Diagonal() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < dim(); ++i) {
    const double e = hi_[i] - lo_[i];
    sum += e * e;
  }
  return std::sqrt(sum);
}

double Rect::MinDistSquared(FeatureRow point) const {
  assert(dim() == point.size());
  return MinDistSquared(lo_.data(), hi_.data(), point);
}

double Rect::MinDistSquared(const double* lo, const double* hi,
                            FeatureRow point) {
  double sum = 0.0;
  for (std::size_t i = 0; i < point.size(); ++i) {
    double d = 0.0;
    if (point[i] < lo[i]) {
      d = lo[i] - point[i];
    } else if (point[i] > hi[i]) {
      d = point[i] - hi[i];
    }
    sum += d * d;
  }
  return sum;
}

std::string Rect::ToString() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < dim(); ++i) {
    std::snprintf(buf, sizeof(buf), "[%.3g, %.3g]", lo_[i], hi_[i]);
    if (i > 0) out += ", ";
    out += buf;
  }
  out += "}";
  return out;
}

}  // namespace qdcbir
