#include "qdcbir/core/feature_store.h"

#include <cassert>
#include <cstring>

#include "qdcbir/obs/resource_stats.h"

namespace qdcbir {

const FeatureBlockTable& FeatureStore::blocks() const {
  std::call_once(blocks_once_, [this] {
    // A one-time cost of the store, not of the query whose sweep happens
    // to come first: keep it out of that query's resource accounting.
    const obs::ScopedResourceAccounting unattributed(nullptr);
    blocks_ = FeatureBlockTable(rows_);
  });
  return blocks_;
}

void FeatureStore::GatherTile(const ImageId* ids, std::size_t count,
                              double* tile) const {
  assert(count <= kBlockWidth);
  obs::CountTileGathers(1);
  const std::size_t d_count = dim();
  std::memset(tile, 0, d_count * kBlockWidth * sizeof(double));
  for (std::size_t lane = 0; lane < count; ++lane) {
    assert(ids[lane] < rows_.size());
    const double* src = rows_[ids[lane]].data();
    for (std::size_t d = 0; d < d_count; ++d) {
      tile[d * kBlockWidth + lane] = src[d];
    }
  }
}

}  // namespace qdcbir
