#include "qdcbir/query/mv_engine.h"

#include <algorithm>
#include <unordered_set>

#include "qdcbir/obs/span.h"

namespace qdcbir {

MvEngine::MvEngine(const ImageDatabase* db, const MvOptions& options)
    : GlobalFeedbackEngineBase(db, options.display_size, options.seed),
      options_(options) {
  if (options_.num_channels < 1) options_.num_channels = 1;
  if (options_.num_channels > kNumViewpointChannels ||
      (options_.num_channels > 1 && !db->has_channel_features())) {
    options_.num_channels = 1;
  }
}

StatusOr<std::vector<Ranking>> MvEngine::PerChannelRankings(std::size_t k) {
  if (relevant().empty()) {
    return Status::FailedPrecondition("MV has no relevant feedback yet");
  }
  std::vector<Ranking> rankings;
  for (int c = 0; c < options_.num_channels; ++c) {
    const auto channel = static_cast<ViewpointChannel>(c);
    const FeatureStore& table = db_->channel_features(channel);

    // Channel query point: centroid of the relevant images as seen through
    // this channel.
    FeatureVector centroid(table.dim());
    for (const ImageId id : relevant()) centroid += table.row(id);
    centroid *= 1.0 / static_cast<double>(relevant().size());

    rankings.push_back(
        BruteForceKnnBlocked(db_->channel_blocks(channel), centroid, k));
    stats_.global_knn_computations += 1;
    stats_.candidates_scanned += table.size();
  }
  return rankings;
}

Ranking MvEngine::InterleaveByRank(const std::vector<Ranking>& rankings,
                                   std::size_t k) {
  Ranking out;
  std::unordered_set<ImageId> seen;
  for (std::size_t rank = 0; out.size() < k; ++rank) {
    bool any = false;
    for (const Ranking& r : rankings) {
      if (rank >= r.size()) continue;
      any = true;
      if (out.size() >= k) break;
      if (seen.insert(r[rank].id).second) out.push_back(r[rank]);
    }
    if (!any) break;  // all channels exhausted
  }
  return out;
}

StatusOr<Ranking> MvEngine::ComputeRanking(std::size_t k) {
  QDCBIR_SPAN("engine.mv.rank");
  StatusOr<std::vector<Ranking>> rankings = PerChannelRankings(k);
  if (!rankings.ok()) return rankings.status();
  return InterleaveByRank(*rankings, k);
}

StatusOr<Ranking> MvEngine::Finalize(std::size_t k) {
  return ComputeRanking(k);
}

}  // namespace qdcbir
