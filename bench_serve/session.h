#ifndef QDCBIR_BENCH_SERVE_SESSION_H_
#define QDCBIR_BENCH_SERVE_SESSION_H_

// The scripted relevance-feedback session a benchmark client drives over
// HTTP, its recorded transcript, and the in-process QdSession replay that
// checks every answer.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "http_client.h"
#include "qdcbir/eval/ground_truth.h"
#include "qdcbir/query/qd_engine.h"
#include "qdcbir/rfs/rfs_tree.h"

namespace qdcbir {
namespace bench_serve {

/// Rounds with picks after which the client finalizes.
inline constexpr int kPickRounds = 3;
/// Requests after which a session finalizes regardless; a session that
/// found no pick by then marks the first displayed image so the server can
/// always finalize (an unfinalized session would hold a slot until Stop).
inline constexpr int kMaxRequests = 8;

/// What one session asks of the server.
struct SessionScript {
  std::size_t display_size = 21;
  std::size_t max_picks = 10;  ///< per round
  std::size_t k = 50;
  /// GET /api/rep for every displayed image, one request at a time.
  bool fetch_reps = false;
};

enum class RequestKind { kQuery, kRound, kFinalize, kRep, kScrape };

const char* RequestKindName(RequestKind kind);

/// One request/response pair as the client saw it.
struct ExchangeRecord {
  RequestKind kind = RequestKind::kQuery;
  int status = 0;  ///< 0 on a transport error
  std::uint64_t sent_ns = 0;  ///< steady clock, before the write
  std::uint64_t done_ns = 0;  ///< response fully framed
  std::size_t wire_bytes = 0;  ///< response bytes incl. headers
  std::uint64_t rep_id = 0;    ///< kRep only
  /// Raw request and response parts, kept for traced sessions only (never
  /// for kRep bodies, which the layer replay re-renders).
  std::string request;
  std::string content_type;
  std::string traceparent;
  std::string body;
};

/// Result group of a finalize response.
struct GroupRecord {
  NodeId leaf = kInvalidNodeId;
  NodeId search_node = kInvalidNodeId;
  std::size_t relevant_count = 0;
  std::vector<ImageId> images;
  bool operator==(const GroupRecord&) const = default;
};

/// Everything the client recorded about one session.
struct SessionRecord {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  std::size_t concept_index = 0;
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  bool traced = false;  ///< keeps raw bytes and client spans
  std::size_t worker = 0;
  std::uint64_t start_ns = 0;  ///< steady clock, first request written
  std::uint64_t end_ns = 0;    ///< last response framed

  bool ok = false;
  std::string error;
  std::vector<std::vector<DisplayGroup>> displays;  ///< query + each round
  std::vector<std::vector<ImageId>> picks;          ///< per feedback request
  std::vector<ImageId> results;
  std::vector<GroupRecord> groups;
  std::map<std::string, std::uint64_t> stats;  ///< finalize "stats" object
  /// The server's own timing of its Finalize call ("finalize_ns").
  std::uint64_t server_finalize_ns = 0;
  std::vector<ExchangeRecord> exchanges;
  /// (image id, body hash) of every /api/rep answer.
  std::vector<std::pair<ImageId, std::uint64_t>> reps;
};

/// Deterministic 64-bit mix of two values (splitmix64 finalizer).
std::uint64_t Mix(std::uint64_t a, std::uint64_t b);

/// Steady-clock nanoseconds.
std::uint64_t NowNs();

/// Drives one session over `connection` (reconnecting to `port` when the
/// previous session broke it). `record` arrives with its identity fields
/// set; on return `ok` tells whether every request answered 200 with a
/// well-formed body.
void RunSession(HttpConnection& connection, int port,
                const SessionScript& script, const QueryGroundTruth& gt,
                SessionRecord* record);

/// FNV-1a hash of a response body, for rep parity checks.
std::uint64_t HashBody(const std::string& body);

/// One engine call made by `ReplaySession`.
struct ReplayCall {
  const char* name;  ///< "qd.start", "qd.feedback" or "qd.finalize"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Replays `record` through an in-process QdSession with the server's
/// options (`base` supplies pool and cache; seed and display size come from
/// the record) and compares every display and the final result, groups and
/// stats. Returns false with `*mismatch` describing the first difference.
/// `calls`, when non-null, receives the timed engine calls in order.
bool ReplaySession(const SessionRecord& record, const SessionScript& script,
                   const RfsTree& rfs, const QdOptions& base,
                   std::vector<ReplayCall>* calls, std::string* mismatch);

}  // namespace bench_serve
}  // namespace qdcbir

#endif  // QDCBIR_BENCH_SERVE_SESSION_H_
