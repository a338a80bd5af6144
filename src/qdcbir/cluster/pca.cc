#include "qdcbir/cluster/pca.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace qdcbir {

void JacobiEigenSymmetric(std::vector<double> a, std::size_t n,
                          std::vector<double>& eigenvalues,
                          std::vector<std::vector<double>>& eigenvectors) {
  // V starts as identity; rows of V end up as eigenvectors.
  std::vector<double> v(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) v[i * n + i] = 1.0;

  auto off_diagonal_norm = [&]() {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) s += a[i * n + j] * a[i * n + j];
    }
    return s;
  };

  const int kMaxSweeps = 64;
  for (int sweep = 0; sweep < kMaxSweeps && off_diagonal_norm() > 1e-18;
       ++sweep) {
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a[p * n + q];
        if (std::fabs(apq) < 1e-300) continue;
        const double app = a[p * n + p];
        const double aqq = a[q * n + q];
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t i = 0; i < n; ++i) {
          const double aip = a[i * n + p];
          const double aiq = a[i * n + q];
          a[i * n + p] = c * aip - s * aiq;
          a[i * n + q] = s * aip + c * aiq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double api = a[p * n + i];
          const double aqi = a[q * n + i];
          a[p * n + i] = c * api - s * aqi;
          a[q * n + i] = s * api + c * aqi;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vip = v[p * n + i];
          const double viq = v[q * n + i];
          v[p * n + i] = c * vip - s * viq;
          v[q * n + i] = s * vip + c * viq;
        }
      }
    }
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return a[x * n + x] > a[y * n + y];
  });

  eigenvalues.resize(n);
  eigenvectors.assign(n, std::vector<double>(n));
  for (std::size_t r = 0; r < n; ++r) {
    eigenvalues[r] = a[order[r] * n + order[r]];
    for (std::size_t i = 0; i < n; ++i) {
      eigenvectors[r][i] = v[order[r] * n + i];
    }
  }
}

Status Pca::Fit(const std::vector<FeatureVector>& points,
                std::size_t num_components) {
  if (points.size() < 2) {
    return Status::InvalidArgument("PCA requires at least two points");
  }
  const std::size_t dim = points.front().dim();
  for (const FeatureVector& p : points) {
    if (p.dim() != dim) {
      return Status::InvalidArgument("PCA points have mixed dimensions");
    }
  }
  if (num_components == 0 || num_components > dim) {
    return Status::InvalidArgument("invalid PCA component count");
  }

  mean_ = FeatureVector::Centroid(points);

  std::vector<double> cov(dim * dim, 0.0);
  for (const FeatureVector& p : points) {
    for (std::size_t i = 0; i < dim; ++i) {
      const double di = p[i] - mean_[i];
      for (std::size_t j = i; j < dim; ++j) {
        cov[i * dim + j] += di * (p[j] - mean_[j]);
      }
    }
  }
  const double inv_n = 1.0 / static_cast<double>(points.size());
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = i; j < dim; ++j) {
      cov[i * dim + j] *= inv_n;
      cov[j * dim + i] = cov[i * dim + j];
    }
  }

  std::vector<double> eigenvalues;
  std::vector<std::vector<double>> eigenvectors;
  JacobiEigenSymmetric(cov, dim, eigenvalues, eigenvectors);

  total_variance_ = 0.0;
  for (double ev : eigenvalues) total_variance_ += std::max(0.0, ev);

  components_.clear();
  explained_variance_.clear();
  for (std::size_t c = 0; c < num_components; ++c) {
    components_.emplace_back(eigenvectors[c]);
    explained_variance_.push_back(std::max(0.0, eigenvalues[c]));
  }
  return Status::Ok();
}

StatusOr<FeatureVector> Pca::Transform(FeatureRow point) const {
  if (!fitted()) return Status::FailedPrecondition("PCA not fitted");
  if (point.size() != input_dim()) {
    return Status::InvalidArgument("dimension mismatch in PCA Transform");
  }
  const FeatureVector centered = FeatureVector(point) - mean_;
  FeatureVector out(components_.size());
  for (std::size_t c = 0; c < components_.size(); ++c) {
    out[c] = components_[c].Dot(centered);
  }
  return out;
}

StatusOr<std::vector<FeatureVector>> Pca::TransformBatch(
    const std::vector<FeatureVector>& points) const {
  std::vector<FeatureVector> out;
  out.reserve(points.size());
  for (const FeatureVector& p : points) {
    StatusOr<FeatureVector> t = Transform(p);
    if (!t.ok()) return t.status();
    out.push_back(std::move(t).value());
  }
  return out;
}

double Pca::explained_variance_ratio() const {
  if (total_variance_ <= 0.0) return 0.0;
  double kept = 0.0;
  for (double ev : explained_variance_) kept += ev;
  return kept / total_variance_;
}

}  // namespace qdcbir
