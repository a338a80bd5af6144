#ifndef QDCBIR_CORE_FEATURE_STORE_H_
#define QDCBIR_CORE_FEATURE_STORE_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "qdcbir/core/feature_block.h"
#include "qdcbir/core/feature_vector.h"

namespace qdcbir {

/// The immutable feature table of a corpus: the row-major vectors, which
/// stay authoritative for per-vector access, plus their blocked SoA copy
/// for the batched distance kernels. Both are built once, together.
///
/// A store is held by `std::shared_ptr<const FeatureStore>`, so the
/// database, its viewpoint channel 0 and an RFS tree loaded against that
/// database all point at one copy (`RfsSerializer::Decode`). It is not
/// copyable: sharing is the only way to get a second handle.
class FeatureStore {
 public:
  explicit FeatureStore(std::vector<FeatureVector> rows)
      : rows_(std::move(rows)), blocks_(rows_) {}

  FeatureStore(const FeatureStore&) = delete;
  FeatureStore& operator=(const FeatureStore&) = delete;

  /// The one shared empty store (default-constructed databases, channels
  /// that were not extracted).
  static const std::shared_ptr<const FeatureStore>& Empty() {
    static const std::shared_ptr<const FeatureStore> empty =
        std::make_shared<const FeatureStore>(std::vector<FeatureVector>{});
    return empty;
  }

  bool empty() const { return rows_.empty(); }
  std::size_t size() const { return rows_.size(); }
  std::size_t dim() const { return rows_.empty() ? 0 : rows_.front().dim(); }

  const std::vector<FeatureVector>& rows() const { return rows_; }
  const FeatureBlockTable& blocks() const { return blocks_; }

 private:
  std::vector<FeatureVector> rows_;
  FeatureBlockTable blocks_;
};

}  // namespace qdcbir

#endif  // QDCBIR_CORE_FEATURE_STORE_H_
