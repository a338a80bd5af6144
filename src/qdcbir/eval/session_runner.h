#ifndef QDCBIR_EVAL_SESSION_RUNNER_H_
#define QDCBIR_EVAL_SESSION_RUNNER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "qdcbir/core/status.h"
#include "qdcbir/eval/ground_truth.h"
#include "qdcbir/obs/resource_stats.h"
#include "qdcbir/eval/oracle.h"
#include "qdcbir/query/feedback_engine.h"
#include "qdcbir/query/qd_engine.h"
#include "qdcbir/rfs/rfs_tree.h"

namespace qdcbir {

class ThreadPool;

/// Options of the paper's 3-round interactive evaluation protocol.
struct ProtocolOptions {
  /// Feedback rounds before the final retrieval (the paper uses 3).
  int feedback_rounds = 3;
  /// "Random" button presses per round: how many 21-image screens the
  /// simulated user is willing to browse looking for relevant images.
  int browse_budget = 40;
  /// Picks the user makes per round at most.
  std::size_t max_picks_per_round = 10;
  /// Result size; 0 means |ground truth| (the paper's setting, which makes
  /// precision and recall coincide).
  std::size_t retrieval_size = 0;
  OracleOptions oracle;
  std::uint64_t seed = 1;
};

/// Quality after one feedback round (Table 2's rows).
struct RoundQuality {
  bool precision_defined = false;  ///< QD commits no k-NN until the end
  double precision = 0.0;
  double gtir = 0.0;
};

/// The outcome of one full protocol run.
struct RunOutcome {
  std::vector<RoundQuality> rounds;
  double final_precision = 0.0;
  double final_recall = 0.0;
  double final_gtir = 0.0;
  std::vector<ImageId> final_results;

  /// Engine-side processing time: everything except the simulated user's
  /// deliberation (which is free for an oracle).
  double total_seconds = 0.0;
  /// Engine-side time per feedback round.
  std::vector<double> iteration_seconds;
  double finalize_seconds = 0.0;

  QdSessionStats qd_stats;          ///< populated by RunQd
  GlobalEngineStats global_stats;   ///< populated by RunEngine
  QdResult qd_result;               ///< grouped results (RunQd only)
  /// Physical work summed across all pool workers (obs/resource_stats.h);
  /// also published to the /queryz audit record.
  obs::ResourceUsage resources;
};

/// Drives full evaluation sessions: oracle browsing, feedback rounds, final
/// retrieval, metric computation, and timing.
class SessionRunner {
 public:
  /// Runs the Query Decomposition protocol over an RFS tree.
  static StatusOr<RunOutcome> RunQd(const RfsTree& rfs,
                                    const QueryGroundTruth& gt,
                                    const QdOptions& qd_options,
                                    const ProtocolOptions& protocol);

  /// Runs the same protocol through a traditional feedback engine
  /// (MV / QPM / MARS / Qcluster).
  static StatusOr<RunOutcome> RunEngine(FeedbackEngine& engine,
                                        const QueryGroundTruth& gt,
                                        const ProtocolOptions& protocol);

  /// One batched QD job: a ground-truth query run under the protocol.
  /// `RunQdBatch` executes one independent session per entry of `gts` —
  /// the multi-user load model: every simulated user shares the (read-only)
  /// RFS tree but owns a private session, oracle, and RNG stream. Job `i`
  /// runs with `protocol.seed + i`, so outcome `i` is byte-identical to a
  /// sequential `RunQd` call with that seed at any pool size.
  /// `pool == nullptr` means `ThreadPool::Global()`; sessions may share
  /// that pool with their own subqueries (the pool nests safely).
  static std::vector<StatusOr<RunOutcome>> RunQdBatch(
      const RfsTree& rfs, const std::vector<const QueryGroundTruth*>& gts,
      const QdOptions& qd_options, const ProtocolOptions& protocol,
      ThreadPool* pool = nullptr);

  /// Builds the per-job engine of a batched baseline run (engines are
  /// stateful, so every session needs a fresh one).
  using EngineFactory =
      std::function<std::unique_ptr<FeedbackEngine>(std::size_t job)>;

  /// Batched counterpart of `RunEngine`, with the same per-job seeding
  /// contract as `RunQdBatch`.
  static std::vector<StatusOr<RunOutcome>> RunEngineBatch(
      const EngineFactory& factory,
      const std::vector<const QueryGroundTruth*>& gts,
      const ProtocolOptions& protocol, ThreadPool* pool = nullptr);
};

}  // namespace qdcbir

#endif  // QDCBIR_EVAL_SESSION_RUNNER_H_
