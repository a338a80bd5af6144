#include "qdcbir/core/feature_block.h"

#include <cassert>
#include <cstring>

#include "qdcbir/obs/resource_stats.h"

namespace qdcbir {

namespace {

std::size_t RoundUp(std::size_t value, std::size_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

std::vector<double> Flatten(const std::vector<FeatureVector>& features) {
  std::vector<double> rows;
  for (const FeatureVector& f : features) {
    assert(f.dim() == features.front().dim());
    rows.insert(rows.end(), f.values().begin(), f.values().end());
  }
  return rows;
}

}  // namespace

void FeatureBlockTable::Allocate() {
  const std::size_t doubles = num_blocks_ * dim_ * kBlockWidth;
  if (doubles == 0) {
    data_.reset();
    return;
  }
  // aligned_alloc requires the size to be a multiple of the alignment;
  // a tile row is already 64 bytes, so this only matters for dim == 0.
  const std::size_t bytes = RoundUp(doubles * sizeof(double), 64);
  obs::CountContainerAlloc(bytes);
  data_.reset(static_cast<double*>(std::aligned_alloc(64, bytes)));
  std::memset(data_.get(), 0, bytes);
}

FeatureBlockTable::FeatureBlockTable(const double* rows, std::size_t size,
                                     std::size_t dim)
    : size_(size),
      dim_(dim),
      num_blocks_((size + kBlockWidth - 1) / kBlockWidth) {
  Allocate();
  for (std::size_t i = 0; i < size_; ++i) {
    double* tile = data_.get() + (i / kBlockWidth) * dim_ * kBlockWidth;
    const std::size_t lane = i % kBlockWidth;
    const double* src = rows + i * dim_;
    for (std::size_t d = 0; d < dim_; ++d) {
      tile[d * kBlockWidth + lane] = src[d];
    }
  }
}

FeatureBlockTable::FeatureBlockTable(
    const std::vector<FeatureVector>& features)
    : FeatureBlockTable(Flatten(features).data(), features.size(),
                        features.empty() ? 0 : features.front().dim()) {}

FeatureBlockTable::FeatureBlockTable(const FeatureBlockTable& other)
    : size_(other.size_), dim_(other.dim_), num_blocks_(other.num_blocks_) {
  Allocate();
  if (data_ != nullptr) {
    std::memcpy(data_.get(), other.data_.get(),
                num_blocks_ * dim_ * kBlockWidth * sizeof(double));
  }
}

FeatureBlockTable& FeatureBlockTable::operator=(
    const FeatureBlockTable& other) {
  if (this == &other) return *this;
  size_ = other.size_;
  dim_ = other.dim_;
  num_blocks_ = other.num_blocks_;
  Allocate();
  if (data_ != nullptr) {
    std::memcpy(data_.get(), other.data_.get(),
                num_blocks_ * dim_ * kBlockWidth * sizeof(double));
  }
  return *this;
}

}  // namespace qdcbir
