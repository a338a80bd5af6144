#ifndef QDCBIR_OBS_QUERY_LOG_H_
#define QDCBIR_OBS_QUERY_LOG_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "qdcbir/obs/json.h"
#include "qdcbir/obs/resource_stats.h"

namespace qdcbir {
namespace obs {

/// How a feedback session ended.
enum class SessionOutcome : std::uint64_t {
  kFinalized = 0,  ///< finalize returned a ranked result
  kAbandoned = 1,  ///< still open at teardown, with no failed request
  kErrored = 2,    ///< still open at teardown after a failed round or
                   ///< finalize
};

/// Stable lowercase name for JSON surfaces ("finalized", "abandoned",
/// "errored"; "unknown" for out-of-range values).
const char* SessionOutcomeName(SessionOutcome outcome);

/// Adds one to the `quality.sessions.<outcome>` counter. Every session
/// counts once when it ends, so `qd.sessions` minus the three counters is
/// the number of serve sessions still open.
void CountSessionOutcome(SessionOutcome outcome);

/// One completed retrieval session, as shown on `/queryz`. Fixed-size, so
/// the audit ring holds its records in place.
struct QueryAuditRecord {
  std::uint64_t sequence = 0;  ///< assigned by QueryLog::Record, 0-based
  char engine[12] = {};        ///< "qd" or "global"
  char label[28] = {};         ///< query/session name, truncated
  std::uint64_t seed = 0;

  std::uint64_t rounds = 0;       ///< relevance-feedback rounds run
  std::uint64_t picks = 0;        ///< relevant images marked across rounds
  std::uint64_t results = 0;      ///< final ranked results returned

  std::uint64_t subqueries = 0;             ///< localized subqueries issued
  std::uint64_t boundary_expansions = 0;
  /// Subqueries whose search node expanded past their leaf (paper 3.3) —
  /// correlates expansion cost with per-session latency on /queryz.
  std::uint64_t expanded_subqueries = 0;
  std::uint64_t nodes_visited = 0;          ///< k-NN nodes visited
  std::uint64_t candidates_scored = 0;      ///< k-NN candidates scored
  std::uint64_t nodes_touched = 0;          ///< display-set nodes touched
  std::uint64_t distinct_nodes_sampled = 0;

  std::uint64_t rounds_ns = 0;    ///< wall time of the feedback rounds
  std::uint64_t finalize_ns = 0;  ///< wall time of Finalize / final rank
  std::uint64_t total_ns = 0;

  /// The session's 128-bit trace id (see obs/trace_context.h); zero when
  /// the session ran without one. Links /queryz rows to /tracez trees.
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;

  /// Per-session resource accounting (obs/resource_stats.h): physical work
  /// summed across every pool worker that executed for this session.
  std::uint64_t distance_evals = 0;
  std::uint64_t feature_bytes = 0;
  std::uint64_t leaves_visited = 0;
  std::uint64_t tiles_gathered = 0;
  std::uint64_t container_allocs = 0;
  std::uint64_t alloc_bytes = 0;
  /// Cache traffic of the session (src/qdcbir/cache/): lookups served from
  /// memory vs. computed. Zero on both when the session ran uncached.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  /// `SessionOutcome` as its underlying value (finalized/abandoned/errored).
  std::uint64_t quality_outcome = 0;
  /// Oracle precision@k in permille, plus one so 0 still means "undefined"
  /// (serve has no ground truth; eval/bench paths fill it in).
  std::uint64_t quality_oracle_precision_permille_plus1 = 0;

  /// Copy `name` into the fixed field, cut at a UTF-8 character boundary
  /// when it does not fit.
  void set_engine(std::string_view name);
  void set_label(std::string_view name);
  std::string_view engine_view() const;
  std::string_view label_view() const;
  /// 32-hex trace id, "" when zero.
  std::string trace_hex() const;

  /// Copies the session's physical-work totals.
  void SetUsage(const ResourceUsage& usage);
};

/// Writes the record's fields into an open JSON object: the one schema of
/// `/queryz` rows and wide events. `label` stands in for the record's
/// truncated copy (wide events carry the session's full label).
void WriteAuditFields(const QueryAuditRecord& record, std::string_view label,
                      JsonWriter* w);

/// A fixed-capacity ring of the most recent completed sessions. Records
/// are written once per session, after Finalize, so one mutex guards the
/// ring: `Record` copies a record in, `Snapshot` copies the ring out.
class QueryLog {
 public:
  static constexpr std::size_t kCapacity = 128;

  QueryLog() = default;
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Assigns the next sequence number and stores a copy of `record` (with
  /// `sequence` filled in), replacing the oldest once the ring is full.
  /// Returns the sequence.
  std::uint64_t Record(QueryAuditRecord record);

  /// A copy of every retained record, ascending by sequence.
  std::vector<QueryAuditRecord> Snapshot() const;

  /// Total sessions ever recorded (including those since evicted).
  std::uint64_t total_recorded() const;

  /// The `/queryz` JSON document: ring stats plus the most recent `limit`
  /// records (default: the whole ring).
  std::string RenderJson(std::size_t limit = kCapacity) const;

  /// The process-wide audit ring that SessionRunner and the serve layer
  /// record into.
  static QueryLog& Global();

 private:
  mutable std::mutex mu_;
  std::uint64_t head_ = 0;  ///< next sequence; slot `seq % kCapacity`
  QueryAuditRecord records_[kCapacity];
};

}  // namespace obs
}  // namespace qdcbir

#endif  // QDCBIR_OBS_QUERY_LOG_H_
