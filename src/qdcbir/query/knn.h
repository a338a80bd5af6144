#ifndef QDCBIR_QUERY_KNN_H_
#define QDCBIR_QUERY_KNN_H_

#include <vector>

#include "qdcbir/core/distance.h"
#include "qdcbir/core/feature_block.h"
#include "qdcbir/core/feature_store.h"
#include "qdcbir/core/feature_vector.h"
#include "qdcbir/core/types.h"
#include "qdcbir/index/rstar_tree.h"

namespace qdcbir {

/// A ranked retrieval list (ascending distance).
using Ranking = std::vector<KnnMatch>;

/// Brute-force k-NN over a full feature table (image id = row).
/// Distances are squared L2. This is what the traditional relevance-feedback
/// baselines execute against the whole database every round — the cost the
/// RFS structure avoids.
Ranking BruteForceKnn(const FeatureStore& table, FeatureRow query,
                      std::size_t k);

/// Brute-force k-NN restricted to `candidates` (rows of `table`).
Ranking BruteForceKnnSubset(const FeatureStore& table,
                            const std::vector<ImageId>& candidates,
                            FeatureRow query, std::size_t k);

/// Brute-force k-NN under an arbitrary metric (uses `Compare`).
Ranking BruteForceKnnWithMetric(const FeatureStore& table, FeatureRow query,
                                std::size_t k, const DistanceMetric& metric);

/// Blocked brute-force k-NN: scans a `FeatureBlockTable` with the batched
/// distance kernels (`ActiveKernels()`), `kBlockWidth` candidates per tile.
/// Produces the same ranking, byte for byte, as the per-vector overload —
/// the kernels share the scalar path's operation order.
Ranking BruteForceKnnBlocked(const FeatureBlockTable& blocks, FeatureRow query,
                             std::size_t k);

/// Blocked weighted brute-force k-NN (per-dimension weighted squared L2,
/// the QPM/MindReader ranking). `weights.size()` must equal `blocks.dim()`.
Ranking BruteForceWeightedKnnBlocked(const FeatureBlockTable& blocks,
                                     FeatureRow query,
                                     const std::vector<double>& weights,
                                     std::size_t k);

/// Merges multiple rankings into one of size `k`: entries are interleaved in
/// score order with duplicates (same id) dropped, keeping each id's best
/// distance.
Ranking MergeRankings(const std::vector<Ranking>& rankings, std::size_t k);

}  // namespace qdcbir

#endif  // QDCBIR_QUERY_KNN_H_
