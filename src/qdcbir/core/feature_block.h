#ifndef QDCBIR_CORE_FEATURE_BLOCK_H_
#define QDCBIR_CORE_FEATURE_BLOCK_H_

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "qdcbir/core/feature_vector.h"

namespace qdcbir {

/// Lanes per tile of the blocked feature layout. Eight doubles span two
/// 256-bit AVX2 registers; the tile row (8 doubles = 64 bytes) is exactly
/// one cache line, so a dimension-major walk streams whole lines.
inline constexpr std::size_t kBlockWidth = 8;

/// Blocked structure-of-arrays copy of a feature table, the layout consumed
/// by the batched distance kernels (`core/distance_kernels.h`).
///
/// Vectors are grouped into blocks of `kBlockWidth` consecutive ids; inside
/// a block the storage is dimension-major:
///
///   block(b)[d * kBlockWidth + lane] == feature(b * kBlockWidth + lane)[d]
///
/// so one kernel pass over a block computes `kBlockWidth` distances with
/// unit-stride, 64-byte-aligned loads. The last block is zero-padded in the
/// lanes past `size()`; callers must ignore those lanes' outputs.
///
/// The table is an immutable snapshot of a row-major feature block, which
/// stays authoritative for per-vector access. A corpus builds it on the
/// first whole-table sweep (`FeatureStore::blocks()`); scans over
/// arbitrary id sets gather from the rows instead
/// (`FeatureStore::GatherTile`).
class FeatureBlockTable {
 public:
  FeatureBlockTable() = default;

  /// Builds the blocked copy of `size` rows of `dim` doubles, row-major at
  /// `rows`.
  FeatureBlockTable(const double* rows, std::size_t size, std::size_t dim);

  /// Builds the blocked copy of `features`. All vectors must share one
  /// dimensionality (enforced by the feature pipeline upstream).
  explicit FeatureBlockTable(const std::vector<FeatureVector>& features);

  FeatureBlockTable(const FeatureBlockTable& other);
  FeatureBlockTable& operator=(const FeatureBlockTable& other);
  // Moves leave the source genuinely empty — a defaulted move would null
  // the storage but keep the counts, and block() on the husk would crash.
  FeatureBlockTable(FeatureBlockTable&& other) noexcept
      : size_(std::exchange(other.size_, 0)),
        dim_(std::exchange(other.dim_, 0)),
        num_blocks_(std::exchange(other.num_blocks_, 0)),
        data_(std::move(other.data_)) {}
  FeatureBlockTable& operator=(FeatureBlockTable&& other) noexcept {
    size_ = std::exchange(other.size_, 0);
    dim_ = std::exchange(other.dim_, 0);
    num_blocks_ = std::exchange(other.num_blocks_, 0);
    data_ = std::move(other.data_);
    return *this;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }         ///< vectors stored
  std::size_t dim() const { return dim_; }
  std::size_t num_blocks() const { return num_blocks_; }

  /// Number of lanes of block `b` that hold real vectors (kBlockWidth for
  /// every block but possibly the last).
  std::size_t lanes(std::size_t b) const {
    const std::size_t begin = b * kBlockWidth;
    const std::size_t remain = size_ - begin;
    return remain < kBlockWidth ? remain : kBlockWidth;
  }

  /// Dimension-major tile of block `b`; 64-byte aligned, `dim * kBlockWidth`
  /// doubles.
  const double* block(std::size_t b) const {
    return data_.get() + b * dim_ * kBlockWidth;
  }

  /// Strided single-element accessor (tests / spot checks).
  double at(std::size_t i, std::size_t d) const {
    return block(i / kBlockWidth)[d * kBlockWidth + i % kBlockWidth];
  }

  /// Bytes of the blocked storage (capacity accounting).
  std::size_t MemoryBytes() const {
    return num_blocks_ * dim_ * kBlockWidth * sizeof(double);
  }

 private:
  struct AlignedFree {
    void operator()(double* p) const { std::free(p); }
  };

  void Allocate();

  std::size_t size_ = 0;
  std::size_t dim_ = 0;
  std::size_t num_blocks_ = 0;
  std::unique_ptr<double[], AlignedFree> data_;
};

}  // namespace qdcbir

#endif  // QDCBIR_CORE_FEATURE_BLOCK_H_
