#include "qdcbir/obs/query_log.h"

#include <algorithm>
#include <cstring>

#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/trace_context.h"

namespace qdcbir {
namespace obs {

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

void QueryAuditRecord::SetQuality(const SessionQuality& quality) {
  quality_jaccard_permille = quality.last_jaccard_permille;
  quality_rank_churn = quality.last_rank_churn;
  quality_rounds_to_stability = quality.rounds_to_stability;
  quality_outcome = static_cast<std::uint64_t>(quality.outcome);
  quality_oracle_precision_permille_plus1 =
      quality.oracle_precision_defined ? quality.oracle_precision_permille + 1
                                       : 0;
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
  w->Key("quality_jaccard_permille").Uint(record.quality_jaccard_permille);
  w->Key("quality_rank_churn").Uint(record.quality_rank_churn);
  w->Key("quality_rounds_to_stability")
      .Uint(record.quality_rounds_to_stability);
  w->Key("outcome").String(SessionOutcomeName(
      static_cast<SessionOutcome>(record.quality_outcome)));
  if (record.quality_oracle_precision_permille_plus1 > 0) {
    w->Key("oracle_precision_permille")
        .Uint(record.quality_oracle_precision_permille_plus1 - 1);
  }
  w->Key("trace").String(record.trace_hex());
}

std::uint64_t QueryLog::Record(QueryAuditRecord record) {
  const std::uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
  record.sequence = seq;
  Slot& slot = slots_[seq % kCapacity];

  std::uint32_t version = slot.version.load(std::memory_order_relaxed);
  if ((version & 1u) != 0 ||
      !slot.version.compare_exchange_strong(version, version + 1,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed)) {
    // Another writer holds this slot (sequences kCapacity apart racing).
    dropped_.fetch_add(1, std::memory_order_relaxed);
    static Counter& dropped_counter = MetricsRegistry::Global().GetCounter(
        "querylog.dropped",
        "Session audit records dropped on a query-log slot collision");
    dropped_counter.Add(1);
    return seq;
  }

  std::uint64_t words[kWords];
  std::memcpy(words, &record, sizeof(record));
  for (std::size_t w = 0; w < kWords; ++w) {
    slot.words[w].store(words[w], std::memory_order_relaxed);
  }
  slot.version.store(version + 2, std::memory_order_release);
  return seq;
}

std::vector<QueryAuditRecord> QueryLog::Snapshot() const {
  std::vector<QueryAuditRecord> records;
  records.reserve(kCapacity);
  for (const Slot& slot : slots_) {
    // Bounded retries: a slot rewritten in a tight loop is skipped rather
    // than stalling the reader.
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::uint32_t v1 = slot.version.load(std::memory_order_acquire);
      if (v1 == 0) break;             // never written
      if ((v1 & 1u) != 0) continue;   // write in progress
      std::uint64_t words[kWords];
      for (std::size_t w = 0; w < kWords; ++w) {
        words[w] = slot.words[w].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.version.load(std::memory_order_relaxed) != v1) continue;
      QueryAuditRecord record;
      std::memcpy(&record, words, sizeof(record));
      records.push_back(record);
      break;
    }
  }
  std::sort(records.begin(), records.end(),
            [](const QueryAuditRecord& a, const QueryAuditRecord& b) {
              return a.sequence < b.sequence;
            });
  return records;
}

std::string QueryLog::RenderJson(std::size_t limit) const {
  std::vector<QueryAuditRecord> records = Snapshot();
  if (records.size() > limit) {
    // Keep the most recent records: Snapshot sorts ascending by sequence.
    records.erase(records.begin(),
                  records.end() - static_cast<std::ptrdiff_t>(limit));
  }
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("capacity").Uint(kCapacity);
  w.Key("total_recorded").Uint(total_recorded());
  w.Key("dropped").Uint(dropped());
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
