#ifndef QDCBIR_CLUSTER_PCA_H_
#define QDCBIR_CLUSTER_PCA_H_

#include <vector>

#include "qdcbir/core/feature_vector.h"
#include "qdcbir/core/status.h"

namespace qdcbir {

/// Principal Component Analysis over feature vectors.
///
/// Used to reproduce the paper's Figure 1: projecting the 37-D feature space
/// onto its top 3 principal components to visualize that sub-concepts of one
/// semantic concept ("white sedan" side/front/back/angle views) form distinct
/// clusters.
///
/// Implementation: covariance matrix + cyclic Jacobi eigendecomposition
/// (adequate and exact for the 37x37 matrices this library encounters).
class Pca {
 public:
  Pca() = default;

  /// Fits the PCA on `points` (all with equal dimensionality, at least two
  /// points) and keeps the top `num_components` components.
  Status Fit(const std::vector<FeatureVector>& points, std::size_t num_components);

  bool fitted() const { return !components_.empty(); }
  std::size_t input_dim() const { return mean_.dim(); }
  std::size_t num_components() const { return components_.size(); }

  /// Projects one point onto the principal subspace.
  StatusOr<FeatureVector> Transform(FeatureRow point) const;

  /// Projects a batch of points.
  StatusOr<std::vector<FeatureVector>> TransformBatch(
      const std::vector<FeatureVector>& points) const;

  /// Eigenvalue of each kept component, in decreasing order.
  const std::vector<double>& explained_variance() const {
    return explained_variance_;
  }

  /// Fraction of total variance captured by the kept components, in [0, 1].
  double explained_variance_ratio() const;

  /// The kept principal axes (unit vectors in input space).
  const std::vector<FeatureVector>& components() const { return components_; }

 private:
  FeatureVector mean_;
  std::vector<FeatureVector> components_;
  std::vector<double> explained_variance_;
  double total_variance_ = 0.0;
};

/// Cyclic Jacobi eigendecomposition of a symmetric matrix (row-major, n x n).
/// Returns eigenvalues (descending) and matching unit eigenvectors as rows of
/// `eigenvectors`. Exposed for testing.
void JacobiEigenSymmetric(std::vector<double> matrix, std::size_t n,
                          std::vector<double>& eigenvalues,
                          std::vector<std::vector<double>>& eigenvectors);

}  // namespace qdcbir

#endif  // QDCBIR_CLUSTER_PCA_H_
