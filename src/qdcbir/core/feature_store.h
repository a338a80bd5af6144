#ifndef QDCBIR_CORE_FEATURE_STORE_H_
#define QDCBIR_CORE_FEATURE_STORE_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "qdcbir/core/feature_block.h"
#include "qdcbir/core/feature_vector.h"
#include "qdcbir/core/types.h"

namespace qdcbir {

/// The immutable feature table of a corpus: the row-major vectors, which
/// are authoritative and serve every per-id read, plus a blocked SoA copy
/// for the whole-table sweeps. The rows are built with the store; the
/// blocked copy only on the first `blocks()` call, so a process that never
/// sweeps the whole table (the QD server, whose localized scans read rows
/// by id) never holds it.
///
/// A store is held by `std::shared_ptr<const FeatureStore>`, so the
/// database, its viewpoint channel 0 and an RFS tree loaded against that
/// database all point at one copy (`RfsSerializer::Decode`). It is not
/// copyable: sharing is the only way to get a second handle.
class FeatureStore {
 public:
  explicit FeatureStore(std::vector<FeatureVector> rows)
      : rows_(std::move(rows)) {}

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

  /// Blocked SoA copy of `rows()`, read by the contiguous-block sweeps
  /// (global k-NN, MV channel scans, Qcluster, Fagin). Built on the first
  /// call, once per store and safely under concurrent first calls; every
  /// later call returns the same table.
  const FeatureBlockTable& blocks() const;

  /// Packs the rows named by `ids` into `tile` (dim-major, kBlockWidth
  /// lanes, zero-padded past `count`), reading each id's contiguous row.
  /// `tile` must hold `dim() * kBlockWidth` doubles and `count` must be at
  /// most kBlockWidth. This is the batching path for scans over arbitrary
  /// id sets (weighted localized subtree scans); it never builds
  /// `blocks()`.
  void GatherTile(const ImageId* ids, std::size_t count, double* tile) const;

 private:
  std::vector<FeatureVector> rows_;
  mutable std::once_flag blocks_once_;
  mutable FeatureBlockTable blocks_;
};

}  // namespace qdcbir

#endif  // QDCBIR_CORE_FEATURE_STORE_H_
