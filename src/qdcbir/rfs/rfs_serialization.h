#ifndef QDCBIR_RFS_RFS_SERIALIZATION_H_
#define QDCBIR_RFS_RFS_SERIALIZATION_H_

#include <memory>
#include <string>

#include "qdcbir/core/byte_source.h"
#include "qdcbir/core/feature_store.h"
#include "qdcbir/core/status.h"
#include "qdcbir/rfs/rfs_tree.h"

namespace qdcbir {

/// Binary (de)serialization of a complete RFS tree: feature vectors, the
/// R*-tree structure, and every node's representative annotations. Building
/// the RFS over 15k images costs seconds; persisting it lets the benchmark
/// binaries and a client-side feedback process (paper §4) reuse one build.
///
/// The format is host-endian and versioned by a magic string (`QDRFS002`;
/// a v1 `QDRFS001` file fails `kVersionMismatch`); it is a cache format,
/// not an interchange format. Every load path runs through one
/// streaming decoder (`Decode`) that reads its source through a fixed-size
/// buffer and bounds every count and id by the bytes left before it
/// allocates: damage yields `kTruncated` (the bytes end before a declared
/// extent) or `kCorrupt` (a structural violation), never a crash or an
/// outsized allocation (docs/snapshot_format.md).
class RfsSerializer {
 public:
  /// Serializes `tree` to a byte string.
  static std::string Serialize(const RfsTree& tree);

  /// Decodes a tree from `source`. With `shared` null, the tree gets a
  /// store of its own. Otherwise the feature section must equal `shared`
  /// byte for byte (`kCorrupt` "RFS features disagree with snapshot" when
  /// it does not) and the tree adopts `shared` instead of a second copy.
  static StatusOr<RfsTree> Decode(
      const ByteSource& source,
      std::shared_ptr<const FeatureStore> shared = nullptr);

  /// Reconstructs a tree from `bytes` (`Decode` over a `MemoryByteSource`).
  static StatusOr<RfsTree> Deserialize(const std::string& bytes);

  /// File convenience wrappers (`LoadFromFile` decodes from a
  /// `FileByteSource`, against `shared` as `Decode` does).
  static Status SaveToFile(const RfsTree& tree, const std::string& path);
  static StatusOr<RfsTree> LoadFromFile(
      const std::string& path,
      std::shared_ptr<const FeatureStore> shared = nullptr);

  /// The one way to load the RFS that pairs with the snapshot at `db_path`:
  /// the standalone file `rfs_path` when it is non-empty, otherwise the
  /// snapshot's embedded `RFS0` chunk, CRC-checked by streaming and decoded
  /// in place. `shared` (the loaded database's `feature_store()`, or null)
  /// is handed to `Decode`, so a mismatched db/RFS pair fails `kCorrupt`.
  static StatusOr<RfsTree> LoadForSnapshot(
      const std::string& db_path, const std::string& rfs_path,
      std::shared_ptr<const FeatureStore> shared);
};

}  // namespace qdcbir

#endif  // QDCBIR_RFS_RFS_SERIALIZATION_H_
