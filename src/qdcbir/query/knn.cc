#include "qdcbir/query/knn.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "qdcbir/core/distance_kernels.h"
#include "qdcbir/obs/access_stats.h"

namespace qdcbir {

namespace {

/// Keeps the k best (id, distance) pairs seen so far.
class TopK {
 public:
  explicit TopK(std::size_t k) : k_(k) {}

  void Offer(ImageId id, double d) {
    if (k_ == 0) return;
    if (matches_.size() < k_) {
      matches_.push_back(KnnMatch{id, d});
      std::push_heap(matches_.begin(), matches_.end(), Worse);
    } else if (d < matches_.front().distance_squared) {
      std::pop_heap(matches_.begin(), matches_.end(), Worse);
      matches_.back() = KnnMatch{id, d};
      std::push_heap(matches_.begin(), matches_.end(), Worse);
    }
  }

  Ranking Take() {
    std::sort_heap(matches_.begin(), matches_.end(), Worse);
    return std::move(matches_);
  }

 private:
  static bool Worse(const KnnMatch& a, const KnnMatch& b) {
    if (a.distance_squared != b.distance_squared) {
      return a.distance_squared < b.distance_squared;
    }
    return a.id < b.id;
  }

  std::size_t k_;
  Ranking matches_;
};

}  // namespace

Ranking BruteForceKnn(const FeatureStore& table, FeatureRow query,
                      std::size_t k) {
  TopK top(k);
  for (ImageId i = 0; i < table.size(); ++i) {
    top.Offer(i, SquaredL2(table.row(i), query));
  }
  return top.Take();
}

Ranking BruteForceKnnSubset(const FeatureStore& table,
                            const std::vector<ImageId>& candidates,
                            FeatureRow query, std::size_t k) {
  TopK top(k);
  for (const ImageId id : candidates) {
    top.Offer(id, SquaredL2(table.row(id), query));
  }
  return top.Take();
}

Ranking BruteForceKnnWithMetric(const FeatureStore& table, FeatureRow query,
                                std::size_t k, const DistanceMetric& metric) {
  TopK top(k);
  for (ImageId i = 0; i < table.size(); ++i) {
    top.Offer(i, metric.Compare(table.row(i), query));
  }
  return top.Take();
}

Ranking BruteForceKnnBlocked(const FeatureBlockTable& blocks, FeatureRow query,
                             std::size_t k) {
  assert(blocks.empty() || query.size() == blocks.dim());
  const DistanceKernels& kernels = ActiveKernels();
  TopK top(k);
  double out[kBlockWidth];
  for (std::size_t b = 0; b < blocks.num_blocks(); ++b) {
    kernels.squared_l2(blocks.block(b), query.data(), blocks.dim(), out);
    const std::size_t lanes = blocks.lanes(b);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      top.Offer(static_cast<ImageId>(b * kBlockWidth + lane), out[lane]);
    }
  }
  AddBlockBatches(blocks.num_blocks());
  obs::CountLeafScan(obs::kTableScanLeaf, blocks.size(),
                     blocks.size() * blocks.dim() * sizeof(double));
  return top.Take();
}

Ranking BruteForceWeightedKnnBlocked(const FeatureBlockTable& blocks,
                                     FeatureRow query,
                                     const std::vector<double>& weights,
                                     std::size_t k) {
  assert(blocks.empty() ||
         (query.size() == blocks.dim() && weights.size() == blocks.dim()));
  const DistanceKernels& kernels = ActiveKernels();
  TopK top(k);
  double out[kBlockWidth];
  for (std::size_t b = 0; b < blocks.num_blocks(); ++b) {
    kernels.weighted_l2(blocks.block(b), query.data(), weights.data(),
                        blocks.dim(), out);
    const std::size_t lanes = blocks.lanes(b);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      top.Offer(static_cast<ImageId>(b * kBlockWidth + lane), out[lane]);
    }
  }
  AddBlockBatches(blocks.num_blocks());
  obs::CountLeafScan(obs::kTableScanLeaf, blocks.size(),
                     blocks.size() * blocks.dim() * sizeof(double));
  return top.Take();
}

Ranking MergeRankings(const std::vector<Ranking>& rankings, std::size_t k) {
  std::unordered_map<ImageId, double> best;
  for (const Ranking& r : rankings) {
    for (const KnnMatch& m : r) {
      auto [it, inserted] = best.emplace(m.id, m.distance_squared);
      if (!inserted && m.distance_squared < it->second) {
        it->second = m.distance_squared;
      }
    }
  }
  Ranking merged;
  merged.reserve(best.size());
  for (const auto& [id, d] : best) merged.push_back(KnnMatch{id, d});
  std::sort(merged.begin(), merged.end(),
            [](const KnnMatch& a, const KnnMatch& b) {
              if (a.distance_squared != b.distance_squared) {
                return a.distance_squared < b.distance_squared;
              }
              return a.id < b.id;
            });
  if (merged.size() > k) merged.resize(k);
  return merged;
}

}  // namespace qdcbir
