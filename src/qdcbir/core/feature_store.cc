#include "qdcbir/core/feature_store.h"

#include <algorithm>
#include <cstring>

#include "qdcbir/obs/resource_stats.h"

namespace qdcbir {

FeatureStore::FeatureStore(const std::vector<FeatureVector>& rows)
    : size_(rows.size()),
      dim_(rows.empty() ? 0 : rows.front().dim()),
      values_(std::make_unique_for_overwrite<double[]>(size_ * dim_)) {
  double* out = values_.get();
  for (const FeatureVector& row : rows) {
    assert(row.dim() == dim_);
    out = std::copy_n(row.data(), dim_, out);
  }
}

const FeatureBlockTable& FeatureStore::blocks() const {
  std::call_once(blocks_once_, [this] {
    // A one-time cost of the store, not of the query whose sweep happens
    // to come first: keep it out of that query's resource accounting.
    const obs::ScopedResourceAccounting unattributed(nullptr);
    blocks_ = FeatureBlockTable(values_.get(), size_, dim_);
  });
  return blocks_;
}

void FeatureStore::GatherTile(const ImageId* ids, std::size_t count,
                              double* tile) const {
  assert(count <= kBlockWidth);
  obs::CountTileGathers(1);
  std::memset(tile, 0, dim_ * kBlockWidth * sizeof(double));
  for (std::size_t lane = 0; lane < count; ++lane) {
    const double* src = row(ids[lane]).data();
    for (std::size_t d = 0; d < dim_; ++d) {
      tile[d * kBlockWidth + lane] = src[d];
    }
  }
}

}  // namespace qdcbir
