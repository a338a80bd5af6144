#include "qdcbir/eval/session_runner.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "qdcbir/core/thread_pool.h"
#include "qdcbir/eval/metrics.h"
#include "qdcbir/obs/clock.h"
#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/query_log.h"
#include "qdcbir/obs/resource_stats.h"
#include "qdcbir/obs/span.h"
#include "qdcbir/obs/trace_context.h"

namespace qdcbir {

namespace {

std::vector<ImageId> FlattenDisplay(const std::vector<DisplayGroup>& groups) {
  std::vector<ImageId> out;
  for (const DisplayGroup& g : groups) {
    out.insert(out.end(), g.images.begin(), g.images.end());
  }
  return out;
}

std::uint64_t Permille(double fraction) {
  if (fraction <= 0.0) return 0;
  if (fraction >= 1.0) return 1000;
  return static_cast<std::uint64_t>(fraction * 1000.0 + 0.5);
}

/// Removes images the user already marked in earlier rounds/browses.
std::vector<ImageId> FilterNew(const std::vector<ImageId>& picks,
                               std::unordered_set<ImageId>& marked) {
  std::vector<ImageId> out;
  for (const ImageId id : picks) {
    if (marked.insert(id).second) out.push_back(id);
  }
  return out;
}

std::uint64_t SecondsToNanos(double seconds) {
  return seconds > 0.0 ? static_cast<std::uint64_t>(seconds * 1e9) : 0;
}

/// Publishes one completed session into the `/queryz` audit ring, the
/// finalized-outcome counter and the `quality.oracle_precision` histogram.
/// Pure observation after the run finished — touches nothing the protocol
/// or rankings depend on.
void RecordAudit(std::string_view engine, const QueryGroundTruth& gt,
                 const ProtocolOptions& protocol, const RunOutcome& outcome,
                 std::size_t picks, const obs::ResourceUsage& usage) {
  obs::QueryAuditRecord record;
  record.set_engine(engine);
  record.set_label(gt.spec.name);
  record.seed = protocol.seed;
  record.rounds = outcome.iteration_seconds.size();
  record.picks = picks;
  record.results = outcome.final_results.size();
  record.subqueries = outcome.qd_stats.localized_subqueries;
  record.boundary_expansions = outcome.qd_stats.boundary_expansions;
  record.expanded_subqueries = outcome.qd_stats.expanded_subqueries;
  record.nodes_touched = outcome.qd_stats.nodes_touched;
  record.distinct_nodes_sampled = outcome.qd_stats.distinct_nodes_sampled;
  if (engine == "qd") {
    record.nodes_visited = outcome.qd_stats.knn_nodes_visited;
    record.candidates_scored = outcome.qd_stats.knn_candidates;
  } else {
    record.nodes_visited = outcome.global_stats.global_knn_computations;
    record.candidates_scored = outcome.global_stats.candidates_scanned;
  }
  std::uint64_t rounds_ns = 0;
  for (const double t : outcome.iteration_seconds) {
    rounds_ns += SecondsToNanos(t);
  }
  record.rounds_ns = rounds_ns;
  record.finalize_ns = SecondsToNanos(outcome.finalize_seconds);
  record.total_ns = SecondsToNanos(outcome.total_seconds);
  record.SetUsage(usage);
  record.quality_outcome =
      static_cast<std::uint64_t>(obs::SessionOutcome::kFinalized);
  // The eval path has ground truth: the record carries the session's
  // oracle-labeled precision@k.
  const std::uint64_t precision = Permille(outcome.final_precision);
  record.quality_oracle_precision_permille_plus1 = precision + 1;
  // Batch runs carry a trace id too when the caller installed one (the
  // serve layer always does; CLI runs leave it zero → rendered as "").
  const obs::TraceContext& trace = obs::CurrentTraceContext();
  record.trace_hi = trace.trace_hi;
  record.trace_lo = trace.trace_lo;
  obs::QueryLog::Global().Record(record);
  obs::CountSessionOutcome(obs::SessionOutcome::kFinalized);
  static obs::Histogram& precision_histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "quality.oracle_precision",
          "Oracle-labeled precision@k at finalize (permille; eval/bench "
          "only)");
  precision_histogram.Record(precision);
}

}  // namespace

StatusOr<RunOutcome> SessionRunner::RunQd(const RfsTree& rfs,
                                          const QueryGroundTruth& gt,
                                          const QdOptions& qd_options,
                                          const ProtocolOptions& protocol) {
  QDCBIR_SPAN("eval.session.qd");
  // Per-session resource accounting: engine taps on this thread and every
  // pool worker executing for this session sum into `resources`.
  obs::ResourceAccumulator resources;
  const obs::ScopedResourceAccounting accounting(&resources);
  const std::size_t k =
      protocol.retrieval_size > 0 ? protocol.retrieval_size : gt.size();

  OracleOptions oracle_options = protocol.oracle;
  oracle_options.seed ^= protocol.seed * 0x9e3779b97f4a7c15ULL;
  OracleUser oracle(oracle_options);

  QdOptions session_options = qd_options;
  session_options.seed ^= protocol.seed;
  QdSession session(&rfs, session_options);

  RunOutcome outcome;
  std::unordered_set<ImageId> marked;
  std::vector<ImageId> all_marked;

  WallTimer total;
  WallTimer step;
  std::vector<DisplayGroup> display = session.Start();
  double engine_time = step.Seconds();

  for (int round = 1; round <= protocol.feedback_rounds; ++round) {
    double round_time = engine_time;  // Start() / previous Feedback cost
    engine_time = 0.0;
    // A new round shows deeper subclusters; the user may (and should)
    // re-mark a representative seen before, so dedup is per round.
    marked.clear();

    // Browse: press "Random" until enough relevant images were found or the
    // budget runs out.
    std::vector<ImageId> picks;
    for (int browse = 0; browse < protocol.browse_budget; ++browse) {
      const std::vector<ImageId> found = oracle.SelectRelevant(
          FlattenDisplay(display), gt,
          protocol.max_picks_per_round - picks.size());
      const std::vector<ImageId> fresh = FilterNew(found, marked);
      picks.insert(picks.end(), fresh.begin(), fresh.end());
      if (picks.size() >= protocol.max_picks_per_round) break;
      step.Restart();
      display = session.Resample();
      round_time += step.Seconds();
    }
    all_marked.insert(all_marked.end(), picks.begin(), picks.end());

    step.Restart();
    StatusOr<std::vector<DisplayGroup>> next = session.Feedback(picks);
    round_time += step.Seconds();
    if (!next.ok()) return next.status();
    display = std::move(next).value();

    RoundQuality quality;
    quality.gtir = ComputeGtir(all_marked, gt);
    outcome.rounds.push_back(quality);
    outcome.iteration_seconds.push_back(round_time);
  }

  step.Restart();
  StatusOr<QdResult> result = session.Finalize(k);
  outcome.finalize_seconds = step.Seconds();
  if (!result.ok()) return result.status();

  outcome.qd_result = std::move(result).value();
  outcome.final_results = outcome.qd_result.Flatten();
  const PrecisionRecall pr =
      ComputePrecisionRecall(outcome.final_results, gt);
  outcome.final_precision = pr.precision;
  outcome.final_recall = pr.recall;
  outcome.final_gtir = ComputeGtir(outcome.final_results, gt);
  if (!outcome.rounds.empty()) {
    outcome.rounds.back().precision_defined = true;
    outcome.rounds.back().precision = outcome.final_precision;
    outcome.rounds.back().gtir = outcome.final_gtir;
  }
  outcome.qd_stats = session.stats();

  double engine_total = outcome.finalize_seconds;
  for (const double t : outcome.iteration_seconds) engine_total += t;
  outcome.total_seconds = engine_total;
  obs::FlushResourceAccounting();
  outcome.resources = resources.Snapshot();

  QDCBIR_SPAN_ANNOTATE(
      "quality.oracle_precision_permille",
      static_cast<std::int64_t>(Permille(outcome.final_precision)));

  RecordAudit("qd", gt, protocol, outcome, all_marked.size(),
              outcome.resources);
  return outcome;
}

StatusOr<RunOutcome> SessionRunner::RunEngine(FeedbackEngine& engine,
                                              const QueryGroundTruth& gt,
                                              const ProtocolOptions& protocol) {
  QDCBIR_SPAN("eval.session.engine");
  obs::ResourceAccumulator resources;
  const obs::ScopedResourceAccounting accounting(&resources);
  const std::size_t k =
      protocol.retrieval_size > 0 ? protocol.retrieval_size : gt.size();

  OracleOptions oracle_options = protocol.oracle;
  oracle_options.seed ^= protocol.seed * 0x9e3779b97f4a7c15ULL;
  OracleUser oracle(oracle_options);

  RunOutcome outcome;
  std::unordered_set<ImageId> marked;

  WallTimer step;
  std::vector<ImageId> display = engine.Start();
  double engine_time = step.Seconds();
  bool any_marked = false;
  std::size_t total_picks = 0;

  for (int round = 1; round <= protocol.feedback_rounds; ++round) {
    double round_time = engine_time;
    engine_time = 0.0;
    marked.clear();  // per-round dedup, as in RunQd

    std::vector<ImageId> picks;
    for (int browse = 0; browse < protocol.browse_budget; ++browse) {
      const std::vector<ImageId> found = oracle.SelectRelevant(
          display, gt, protocol.max_picks_per_round - picks.size());
      const std::vector<ImageId> fresh = FilterNew(found, marked);
      picks.insert(picks.end(), fresh.begin(), fresh.end());
      if (picks.size() >= protocol.max_picks_per_round) break;
      step.Restart();
      display = engine.Resample();
      round_time += step.Seconds();
    }
    if (!picks.empty()) any_marked = true;
    total_picks += picks.size();

    step.Restart();
    StatusOr<std::vector<ImageId>> next = engine.Feedback(picks);
    round_time += step.Seconds();
    if (!next.ok()) return next.status();
    display = std::move(next).value();

    outcome.iteration_seconds.push_back(round_time);

    // Per-round quality snapshot (measurement only; not counted as engine
    // time). Rankings need at least one relevant image.
    RoundQuality quality;
    if (any_marked) {
      StatusOr<Ranking> snapshot = engine.Finalize(k);
      if (snapshot.ok()) {
        std::vector<ImageId> ids;
        ids.reserve(snapshot->size());
        for (const KnnMatch& m : *snapshot) ids.push_back(m.id);
        quality.precision_defined = true;
        quality.precision = ComputePrecisionRecall(ids, gt).precision;
        quality.gtir = ComputeGtir(ids, gt);
      }
    }
    outcome.rounds.push_back(quality);
  }

  if (!any_marked) {
    return Status::FailedPrecondition(
        "the user never found a relevant image to mark");
  }

  step.Restart();
  StatusOr<Ranking> final_ranking = engine.Finalize(k);
  outcome.finalize_seconds = step.Seconds();
  if (!final_ranking.ok()) return final_ranking.status();

  outcome.final_results.reserve(final_ranking->size());
  for (const KnnMatch& m : *final_ranking) {
    outcome.final_results.push_back(m.id);
  }
  const PrecisionRecall pr =
      ComputePrecisionRecall(outcome.final_results, gt);
  outcome.final_precision = pr.precision;
  outcome.final_recall = pr.recall;
  outcome.final_gtir = ComputeGtir(outcome.final_results, gt);
  outcome.global_stats = engine.stats();

  double engine_total = outcome.finalize_seconds;
  for (const double t : outcome.iteration_seconds) engine_total += t;
  outcome.total_seconds = engine_total;
  obs::FlushResourceAccounting();
  outcome.resources = resources.Snapshot();

  RecordAudit(engine.Name(), gt, protocol, outcome, total_picks,
              outcome.resources);
  return outcome;
}

namespace {

/// Shared batching shape of RunQdBatch / RunEngineBatch: one pool task per
/// job, each writing its own slot — outcomes are position-stable and
/// independent of scheduling.
std::vector<StatusOr<RunOutcome>> RunJobs(
    std::size_t count, ThreadPool* pool,
    const std::function<StatusOr<RunOutcome>(std::size_t job)>& run) {
  QDCBIR_SPAN("eval.batch");
  std::vector<std::optional<StatusOr<RunOutcome>>> slots(count);
  ThreadPool& executor = pool != nullptr ? *pool : ThreadPool::Global();
  executor.ParallelFor(0, count,
                       [&](std::size_t job) { slots[job].emplace(run(job)); });
  std::vector<StatusOr<RunOutcome>> out;
  out.reserve(count);
  for (std::optional<StatusOr<RunOutcome>>& slot : slots) {
    out.push_back(std::move(slot).value());
  }
  return out;
}

}  // namespace

std::vector<StatusOr<RunOutcome>> SessionRunner::RunQdBatch(
    const RfsTree& rfs, const std::vector<const QueryGroundTruth*>& gts,
    const QdOptions& qd_options, const ProtocolOptions& protocol,
    ThreadPool* pool) {
  return RunJobs(gts.size(), pool, [&](std::size_t job) {
    ProtocolOptions job_protocol = protocol;
    job_protocol.seed = protocol.seed + job;
    return RunQd(rfs, *gts[job], qd_options, job_protocol);
  });
}

std::vector<StatusOr<RunOutcome>> SessionRunner::RunEngineBatch(
    const EngineFactory& factory,
    const std::vector<const QueryGroundTruth*>& gts,
    const ProtocolOptions& protocol, ThreadPool* pool) {
  return RunJobs(gts.size(), pool, [&](std::size_t job) {
    ProtocolOptions job_protocol = protocol;
    job_protocol.seed = protocol.seed + job;
    std::unique_ptr<FeedbackEngine> engine = factory(job);
    if (engine == nullptr) {
      return StatusOr<RunOutcome>(
          Status::InvalidArgument("engine factory returned null"));
    }
    return RunEngine(*engine, *gts[job], job_protocol);
  });
}

}  // namespace qdcbir
