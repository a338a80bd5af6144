#include "qdcbir/obs/query_log.h"

#include <cstring>

#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/trace_context.h"

namespace qdcbir {
namespace obs {

const char* SessionOutcomeName(SessionOutcome outcome) {
  switch (outcome) {
    case SessionOutcome::kFinalized: return "finalized";
    case SessionOutcome::kAbandoned: return "abandoned";
    case SessionOutcome::kErrored: return "errored";
  }
  return "unknown";
}

void CountSessionOutcome(SessionOutcome outcome) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter& finalized = reg.GetCounter(
      "quality.sessions.finalized", "Sessions that reached finalize");
  static Counter& abandoned = reg.GetCounter(
      "quality.sessions.abandoned",
      "Sessions torn down before finalize without a recorded error");
  static Counter& errored = reg.GetCounter(
      "quality.sessions.errored",
      "Sessions whose last round or finalize failed");
  switch (outcome) {
    case SessionOutcome::kFinalized: finalized.Add(); break;
    case SessionOutcome::kAbandoned: abandoned.Add(); break;
    case SessionOutcome::kErrored: errored.Add(); break;
  }
}

namespace {

void CopyTruncated(char* dst, std::size_t dst_size, std::string_view src) {
  std::size_t n = src.size() < dst_size ? src.size() : dst_size;
  // A cut inside a multi-byte character drops the whole character: back
  // off while the first byte left out is a UTF-8 continuation byte.
  while (n > 0 && n < src.size() &&
         (static_cast<unsigned char>(src[n]) & 0xC0) == 0x80) {
    --n;
  }
  std::memset(dst, 0, dst_size);
  std::memcpy(dst, src.data(), n);
}

std::string_view ViewOf(const char* data, std::size_t max) {
  std::size_t len = 0;
  while (len < max && data[len] != '\0') ++len;
  return std::string_view(data, len);
}

}  // namespace

void QueryAuditRecord::set_engine(std::string_view name) {
  CopyTruncated(engine, sizeof(engine), name);
}

void QueryAuditRecord::set_label(std::string_view name) {
  CopyTruncated(label, sizeof(label), name);
}

std::string_view QueryAuditRecord::engine_view() const {
  return ViewOf(engine, sizeof(engine));
}

std::string_view QueryAuditRecord::label_view() const {
  return ViewOf(label, sizeof(label));
}

std::string QueryAuditRecord::trace_hex() const {
  return TraceIdHex(trace_hi, trace_lo);
}

void QueryAuditRecord::SetUsage(const ResourceUsage& usage) {
  distance_evals = usage.distance_evals;
  feature_bytes = usage.feature_bytes;
  leaves_visited = usage.leaves_visited;
  tiles_gathered = usage.tiles_gathered;
  container_allocs = usage.container_allocs;
  alloc_bytes = usage.alloc_bytes;
  cache_hits = usage.cache_hits;
  cache_misses = usage.cache_misses;
}

void WriteAuditFields(const QueryAuditRecord& record, std::string_view label,
                      JsonWriter* w) {
  w->Key("sequence").Uint(record.sequence);
  w->Key("engine").String(record.engine_view());
  w->Key("label").String(label);
  w->Key("seed").Uint(record.seed);
  w->Key("rounds").Uint(record.rounds);
  w->Key("picks").Uint(record.picks);
  w->Key("results").Uint(record.results);
  w->Key("subqueries").Uint(record.subqueries);
  w->Key("boundary_expansions").Uint(record.boundary_expansions);
  w->Key("expanded_subqueries").Uint(record.expanded_subqueries);
  w->Key("nodes_visited").Uint(record.nodes_visited);
  w->Key("candidates_scored").Uint(record.candidates_scored);
  w->Key("nodes_touched").Uint(record.nodes_touched);
  w->Key("distinct_nodes_sampled").Uint(record.distinct_nodes_sampled);
  w->Key("rounds_ns").Uint(record.rounds_ns);
  w->Key("finalize_ns").Uint(record.finalize_ns);
  w->Key("total_ns").Uint(record.total_ns);
  w->Key("distance_evals").Uint(record.distance_evals);
  w->Key("feature_bytes").Uint(record.feature_bytes);
  w->Key("leaves_visited").Uint(record.leaves_visited);
  w->Key("tiles_gathered").Uint(record.tiles_gathered);
  w->Key("container_allocs").Uint(record.container_allocs);
  w->Key("alloc_bytes").Uint(record.alloc_bytes);
  w->Key("cache_hits").Uint(record.cache_hits);
  w->Key("cache_misses").Uint(record.cache_misses);
  w->Key("outcome").String(SessionOutcomeName(
      static_cast<SessionOutcome>(record.quality_outcome)));
  if (record.quality_oracle_precision_permille_plus1 > 0) {
    w->Key("oracle_precision_permille")
        .Uint(record.quality_oracle_precision_permille_plus1 - 1);
  }
  w->Key("trace").String(record.trace_hex());
}

std::uint64_t QueryLog::Record(QueryAuditRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  record.sequence = head_++;
  records_[record.sequence % kCapacity] = record;
  return record.sequence;
}

std::vector<QueryAuditRecord> QueryLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t first = head_ > kCapacity ? head_ - kCapacity : 0;
  std::vector<QueryAuditRecord> records;
  records.reserve(head_ - first);
  for (std::uint64_t seq = first; seq < head_; ++seq) {
    records.push_back(records_[seq % kCapacity]);
  }
  return records;
}

std::uint64_t QueryLog::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return head_;
}

std::string QueryLog::RenderJson(std::size_t limit) const {
  std::vector<QueryAuditRecord> records = Snapshot();
  if (records.size() > limit) {
    // Keep the most recent records: Snapshot returns them oldest first.
    records.erase(records.begin(),
                  records.end() - static_cast<std::ptrdiff_t>(limit));
  }
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("capacity").Uint(kCapacity);
  w.Key("total_recorded").Uint(total_recorded());
  w.Key("records").BeginArray();
  for (const QueryAuditRecord& record : records) {
    w.BeginObject();
    WriteAuditFields(record, record.label_view(), &w);
    w.EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

QueryLog& QueryLog::Global() {
  static QueryLog* log = new QueryLog();
  return *log;
}

}  // namespace obs
}  // namespace qdcbir
