#include "qdcbir/query/fagin_engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>

#include "qdcbir/core/distance_kernels.h"
#include "qdcbir/core/feature_block.h"
#include "qdcbir/core/thread_pool.h"

#include "qdcbir/obs/access_stats.h"
#include "qdcbir/obs/span.h"

namespace qdcbir {

FaginEngine::FaginEngine(const ImageDatabase* db, const FaginOptions& options)
    : GlobalFeedbackEngineBase(db, options.display_size, options.seed),
      options_(options) {
  subsystems_ = {
      {kPaperLayout.color_begin, kPaperLayout.color_end},
      {kPaperLayout.texture_begin, kPaperLayout.texture_end},
      {kPaperLayout.edge_begin, kPaperLayout.edge_end},
  };
  // Databases with non-paper feature layouts fall back to one subsystem
  // covering all dimensions (plain k-NN).
  if (db->feature_dim() != kPaperFeatureDim) {
    subsystems_ = {{0, db->feature_dim()}};
  }
}

double FaginEngine::SubspaceDistance(FeatureRow a, FeatureRow b,
                                     const Subsystem& subsystem) {
  double sum = 0.0;
  for (std::size_t d = subsystem.begin; d < subsystem.end; ++d) {
    const double diff = a[d] - b[d];
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

StatusOr<Ranking> FaginEngine::ComputeRanking(std::size_t k) {
  QDCBIR_SPAN("engine.fagin.rank");
  if (relevant().empty()) {
    return Status::FailedPrecondition("Fagin has no relevant feedback yet");
  }
  const FeatureStore& table = db_->features();

  // Query point: centroid of the relevant images.
  FeatureVector centroid(table.dim());
  for (const ImageId id : relevant()) centroid += table.row(id);
  centroid *= 1.0 / static_cast<double>(relevant().size());

  // Each subsystem produces a ranking by its subspace distance (sorted
  // access lists of the Threshold Algorithm). The distance scans partition
  // the flattened (subsystem, image) index space across the pool — every
  // slot is written exactly once, so the lists are identical at any thread
  // count — and the per-subsystem sorts then run as one pool task each.
  struct Scored {
    ImageId id;
    double score;
  };
  ThreadPool& pool = options_.pool != nullptr ? *options_.pool
                                              : ThreadPool::Global();
  std::vector<std::vector<Scored>> lists(subsystems_.size());
  for (std::size_t s = 0; s < subsystems_.size(); ++s) {
    lists[s].resize(table.size());
  }
  // Block-at-a-time subspace scans: a subsystem's dimensions are a
  // contiguous [begin, end) range, so its distances over one tile are a
  // squared-L2 kernel call on the tile offset by `begin` whole dimensions.
  // Per-lane sqrt afterwards reproduces SubspaceDistance bit for bit.
  const FeatureBlockTable& blocks = db_->feature_blocks();
  const DistanceKernels& kernels = ActiveKernels();
  pool.ParallelFor(
      0, subsystems_.size() * blocks.num_blocks(), [&](std::size_t f) {
        const std::size_t s = f / blocks.num_blocks();
        const std::size_t b = f % blocks.num_blocks();
        const Subsystem& sub = subsystems_[s];
        double out[kBlockWidth];
        kernels.squared_l2(blocks.block(b) + sub.begin * kBlockWidth,
                           centroid.data() + sub.begin, sub.end - sub.begin,
                           out);
        for (std::size_t lane = 0; lane < blocks.lanes(b); ++lane) {
          const std::size_t i = b * kBlockWidth + lane;
          lists[s][i] =
              Scored{static_cast<ImageId>(i), std::sqrt(out[lane])};
        }
      });
  AddBlockBatches(subsystems_.size() * blocks.num_blocks());
  obs::CountLeafScan(obs::kTableScanLeaf, subsystems_.size() * blocks.size(),
                     blocks.size() * blocks.dim() * sizeof(double));
  {
    std::vector<std::function<void()>> sort_tasks;
    sort_tasks.reserve(subsystems_.size());
    for (std::size_t s = 0; s < subsystems_.size(); ++s) {
      sort_tasks.push_back([&lists, s] {
        std::sort(lists[s].begin(), lists[s].end(),
                  [](const Scored& a, const Scored& b) {
                    if (a.score != b.score) return a.score < b.score;
                    return a.id < b.id;
                  });
      });
    }
    pool.Run(std::move(sort_tasks));
  }

  // Threshold Algorithm: advance all lists in lock-step; random-access the
  // other subsystems for each newly seen id; stop once the k-th best
  // aggregate is at most the threshold (sum of the current sorted-access
  // scores — a lower bound on every unseen object's aggregate).
  last_ta_accesses_ = 0;
  std::unordered_map<ImageId, double> aggregate;
  Ranking top;
  auto worse = [](const KnnMatch& a, const KnnMatch& b) {
    if (a.distance_squared != b.distance_squared) {
      return a.distance_squared < b.distance_squared;
    }
    return a.id < b.id;
  };

  for (std::size_t depth = 0; depth < table.size(); ++depth) {
    double threshold = 0.0;
    for (std::size_t s = 0; s < subsystems_.size(); ++s) {
      const Scored& seen = lists[s][depth];
      threshold += seen.score;
      ++last_ta_accesses_;  // sorted access
      if (aggregate.count(seen.id) > 0) continue;
      // Random accesses to the remaining subsystems.
      double total = 0.0;
      for (std::size_t t = 0; t < subsystems_.size(); ++t) {
        if (t == s) {
          total += seen.score;
        } else {
          total +=
              SubspaceDistance(table.row(seen.id), centroid, subsystems_[t]);
          ++last_ta_accesses_;
        }
      }
      aggregate.emplace(seen.id, total);
      top.push_back(KnnMatch{seen.id, total});
      std::push_heap(top.begin(), top.end(), worse);
      if (top.size() > k) {
        std::pop_heap(top.begin(), top.end(), worse);
        top.pop_back();
      }
    }
    if (top.size() >= k && top.front().distance_squared <= threshold) {
      break;  // no unseen object can beat the current top k
    }
  }
  stats_.global_knn_computations += 1;
  stats_.candidates_scanned += last_ta_accesses_;

  std::sort_heap(top.begin(), top.end(), worse);
  return top;
}

StatusOr<Ranking> FaginEngine::Finalize(std::size_t k) {
  return ComputeRanking(k);
}

}  // namespace qdcbir
