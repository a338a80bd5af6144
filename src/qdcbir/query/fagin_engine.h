#ifndef QDCBIR_QUERY_FAGIN_ENGINE_H_
#define QDCBIR_QUERY_FAGIN_ENGINE_H_

#include "qdcbir/features/extractor.h"
#include "qdcbir/query/feedback_engine.h"

namespace qdcbir {

class ThreadPool;

/// Options of the Fagin-style merge engine.
struct FaginOptions {
  std::size_t display_size = 21;
  std::uint64_t seed = 113;
  /// Worker pool for the subsystem distance scans and sorts; nullptr means
  /// `ThreadPool::Global()`. Rankings are identical across pool sizes.
  ThreadPool* pool = nullptr;
};

/// A top-k "merge information from multiple systems" baseline (Fagin,
/// PODS'96/'98; the paper's §2). Each feature group — color moments,
/// wavelet texture, edge structure — acts as an independent subsystem that
/// ranks the database by distance to the query point *in its subspace*; the
/// Threshold Algorithm merges the subsystem rankings into the global top k
/// under the monotone aggregate score(x) = sum of subsystem distances.
///
/// Like every top-k technique the paper surveys, the aggregate still
/// describes a single query region per subsystem, so relevant images
/// scattered into distant clusters cannot all rank highly at once.
///
/// `stats().candidates_scanned` counts sorted + random accesses — the cost
/// unit of Fagin's model — rather than full scans.
class FaginEngine final : public GlobalFeedbackEngineBase {
 public:
  FaginEngine(const ImageDatabase* db,
              const FaginOptions& options = FaginOptions());

  const char* Name() const override { return "fagin"; }
  StatusOr<Ranking> Finalize(std::size_t k) override;

  /// Accesses performed by the last Threshold Algorithm run (sorted
  /// accesses across subsystems plus random accesses for aggregation).
  std::size_t last_ta_accesses() const { return last_ta_accesses_; }

 protected:
  StatusOr<Ranking> ComputeRanking(std::size_t k) override;

 private:
  /// One subsystem: a feature-subspace projection of the database.
  struct Subsystem {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// Distance between `a` and `b` restricted to a subsystem's dimensions.
  static double SubspaceDistance(FeatureRow a, FeatureRow b,
                                 const Subsystem& subsystem);

  FaginOptions options_;
  std::vector<Subsystem> subsystems_;
  std::size_t last_ta_accesses_ = 0;
};

}  // namespace qdcbir

#endif  // QDCBIR_QUERY_FAGIN_ENGINE_H_
