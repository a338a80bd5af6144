#ifndef QDCBIR_CORE_FEATURE_STORE_H_
#define QDCBIR_CORE_FEATURE_STORE_H_

#include <cassert>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "qdcbir/core/feature_block.h"
#include "qdcbir/core/feature_vector.h"
#include "qdcbir/core/types.h"

namespace qdcbir {

/// The immutable feature table of a corpus: one row-major block of
/// `size() * dim()` doubles, which is authoritative and serves every
/// per-id read as a `FeatureRow` view into it, plus a blocked SoA copy for
/// the whole-table sweeps. The block is built with the store; the blocked
/// copy only on the first `blocks()` call, so a process that never sweeps
/// the whole table (the QD server, whose localized scans read rows by id)
/// never holds it.
///
/// A store is held by `std::shared_ptr<const FeatureStore>`, so the
/// database, its viewpoint channel 0 and an RFS tree loaded against that
/// database all point at one copy (`RfsSerializer::Decode`). It is not
/// copyable: sharing is the only way to get a second handle.
class FeatureStore {
 public:
  /// A store holding a copy of `rows`, which must share one
  /// dimensionality.
  explicit FeatureStore(const std::vector<FeatureVector>& rows);

  /// Adopts `values`: `size` rows of `dim` doubles each, row-major (a
  /// decoder's block, filled in place).
  FeatureStore(std::unique_ptr<double[]> values, std::size_t size,
               std::size_t dim)
      : size_(size), dim_(dim), values_(std::move(values)) {}

  FeatureStore(const FeatureStore&) = delete;
  FeatureStore& operator=(const FeatureStore&) = delete;

  /// The one shared empty store (default-constructed databases, channels
  /// that were not extracted).
  static const std::shared_ptr<const FeatureStore>& Empty() {
    static const std::shared_ptr<const FeatureStore> empty =
        std::make_shared<const FeatureStore>(nullptr, 0, 0);
    return empty;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t dim() const { return dim_; }

  /// Row `id`: a view into the block, valid as long as the store.
  FeatureRow row(ImageId id) const {
    assert(id < size_);
    return {values_.get() + std::size_t{id} * dim_, dim_};
  }

  /// The whole block, row after row.
  std::span<const double> values() const {
    return {values_.get(), size_ * dim_};
  }

  /// Blocked SoA copy of the block, read by the contiguous-block sweeps
  /// (global k-NN, MV channel scans, Qcluster, Fagin). Built on the first
  /// call, once per store and safely under concurrent first calls; every
  /// later call returns the same table.
  const FeatureBlockTable& blocks() const;

  /// Packs the rows named by `ids` into `tile` (dim-major, kBlockWidth
  /// lanes, zero-padded past `count`), reading each id's row of the block.
  /// `tile` must hold `dim() * kBlockWidth` doubles and `count` must be at
  /// most kBlockWidth. This is the batching path for scans over arbitrary
  /// id sets (weighted localized subtree scans); it never builds
  /// `blocks()`.
  void GatherTile(const ImageId* ids, std::size_t count, double* tile) const;

 private:
  std::size_t size_;
  std::size_t dim_;
  std::unique_ptr<double[]> values_;
  mutable std::once_flag blocks_once_;
  mutable FeatureBlockTable blocks_;
};

}  // namespace qdcbir

#endif  // QDCBIR_CORE_FEATURE_STORE_H_
