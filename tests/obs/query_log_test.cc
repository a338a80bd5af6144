// QueryLog tests: basic recording, ring wrap-around determinism (the
// newest kCapacity records survive, in ascending sequence order), JSON
// rendering, and concurrent writers + readers staying torn-free (a reader
// must never see a half-written record; run under TSan in CI).

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "qdcbir/core/thread_pool.h"
#include "qdcbir/obs/query_log.h"

namespace qdcbir {
namespace obs {
namespace {

QueryAuditRecord MakeRecord(std::uint64_t tag) {
  QueryAuditRecord record;
  record.set_engine("qd");
  record.set_label("query-" + std::to_string(tag));
  record.seed = tag;
  record.rounds = tag;
  record.picks = tag;
  record.results = tag;
  record.subqueries = tag;
  record.boundary_expansions = tag;
  record.expanded_subqueries = tag;
  record.nodes_visited = tag;
  record.candidates_scored = tag;
  record.nodes_touched = tag;
  record.distinct_nodes_sampled = tag;
  record.rounds_ns = tag;
  record.finalize_ns = tag;
  record.total_ns = tag;
  return record;
}

/// Every numeric field of a record carries the same tag, so a torn read
/// (fields from two different writes) is detectable.
bool IsConsistent(const QueryAuditRecord& record) {
  const std::uint64_t tag = record.seed;
  return record.rounds == tag && record.picks == tag &&
         record.results == tag && record.subqueries == tag &&
         record.boundary_expansions == tag &&
         record.expanded_subqueries == tag && record.nodes_visited == tag &&
         record.candidates_scored == tag && record.nodes_touched == tag &&
         record.distinct_nodes_sampled == tag && record.rounds_ns == tag &&
         record.finalize_ns == tag && record.total_ns == tag &&
         record.label_view() == "query-" + std::to_string(tag);
}

TEST(QueryLogTest, RecordsAndSnapshots) {
  QueryLog log;
  EXPECT_TRUE(log.Snapshot().empty());
  log.Record(MakeRecord(7));
  log.Record(MakeRecord(8));
  const std::vector<QueryAuditRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].sequence, 0u);
  EXPECT_EQ(records[1].sequence, 1u);
  EXPECT_EQ(records[0].seed, 7u);
  EXPECT_EQ(records[0].engine_view(), "qd");
  EXPECT_EQ(records[0].label_view(), "query-7");
  EXPECT_EQ(log.total_recorded(), 2u);
}

TEST(QueryLogTest, LabelsTruncateSafely) {
  QueryLog log;
  QueryAuditRecord record = MakeRecord(1);
  record.set_label(std::string(100, 'x'));
  record.set_engine("very-long-engine-name");
  log.Record(record);
  const std::vector<QueryAuditRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].label_view(), std::string(sizeof(record.label), 'x'));
  EXPECT_EQ(records[0].engine_view(), "very-long-en");  // 12-byte capacity
}

TEST(QueryLogTest, LabelsTruncateAtACharacterBoundary) {
  QueryAuditRecord record;
  // 27 ASCII bytes then a 2-byte character: a cut at byte 28 would leave
  // its lead byte alone, so the whole character goes.
  record.set_label(std::string(27, 'a') + "\xc3\xa9");
  EXPECT_EQ(record.label_view(), std::string(27, 'a'));
  // A 3-byte character straddling the end goes whole too.
  record.set_label(std::string(26, 'a') + "\xe2\x82\xac");
  EXPECT_EQ(record.label_view(), std::string(26, 'a'));
  // One that ends exactly at the capacity stays.
  record.set_label(std::string(26, 'a') + "\xc3\xa9");
  EXPECT_EQ(record.label_view(), std::string(26, 'a') + "\xc3\xa9");
  record.set_engine("engine-name\xc3\xa9");
  EXPECT_EQ(record.engine_view(), "engine-name");
}

TEST(QueryLogTest, WrapAroundKeepsNewestInOrder) {
  QueryLog log;
  const std::uint64_t total = QueryLog::kCapacity * 2 + 44;
  for (std::uint64_t i = 0; i < total; ++i) log.Record(MakeRecord(i));
  const std::vector<QueryAuditRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), QueryLog::kCapacity);
  // Exactly the newest kCapacity sequences, ascending, with matching
  // payloads — wrap-around is deterministic.
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::uint64_t expected = total - QueryLog::kCapacity + i;
    EXPECT_EQ(records[i].sequence, expected);
    EXPECT_EQ(records[i].seed, expected);
    EXPECT_TRUE(IsConsistent(records[i]));
  }
  EXPECT_EQ(log.total_recorded(), total);
}

TEST(QueryLogTest, RenderJsonContainsRecordsAndCounts) {
  QueryLog log;
  log.Record(MakeRecord(3));
  const std::string json = log.RenderJson();
  EXPECT_NE(json.find("\"capacity\":128"), std::string::npos);
  EXPECT_NE(json.find("\"total_recorded\":1"), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"query-3\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":3"), std::string::npos);
  EXPECT_NE(json.find("\"rounds_ns\":3"), std::string::npos);
}

TEST(QueryLogTest, TraceIdRoundTripsThroughRecordAndJson) {
  QueryLog log;
  QueryAuditRecord record = MakeRecord(5);
  record.trace_hi = 0x0af7651916cd43ddull;
  record.trace_lo = 0x8448eb211c80319cull;
  record.expanded_subqueries = 2;
  log.Record(record);
  const std::vector<QueryAuditRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].trace_hex(), "0af7651916cd43dd8448eb211c80319c");
  EXPECT_EQ(records[0].expanded_subqueries, 2u);
  const std::string json = log.RenderJson();
  EXPECT_NE(json.find("\"trace\":\"0af7651916cd43dd8448eb211c80319c\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"expanded_subqueries\":2"), std::string::npos);
}

TEST(QueryLogTest, ZeroTraceRendersAsEmptyString) {
  QueryAuditRecord record;
  EXPECT_EQ(record.trace_hex(), "");
  QueryLog log;
  log.Record(record);
  EXPECT_NE(log.RenderJson().find("\"trace\":\"\""), std::string::npos);
}

TEST(QueryLogTest, JsonEscapesControlCharactersInLabels) {
  QueryLog log;
  QueryAuditRecord record = MakeRecord(1);
  record.set_label("a\"b\\c\td");
  log.Record(record);
  const std::string json = log.RenderJson();
  EXPECT_NE(json.find("a\\\"b\\\\c\\td"), std::string::npos) << json;
}

TEST(QueryLogTest, ConcurrentWritersAndReadersStayTornFree) {
  QueryLog log;
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 2000;
  ThreadPool pool(kWriters + 2);
  std::atomic<bool> writers_done{false};
  std::atomic<std::uint64_t> torn{0};

  std::atomic<int> writers_left{kWriters};
  std::vector<std::function<void()>> tasks;
  for (int w = 0; w < kWriters; ++w) {
    tasks.push_back([&log, &writers_done, &writers_left, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        log.Record(MakeRecord(static_cast<std::uint64_t>(w) * kPerWriter + i));
      }
      if (writers_left.fetch_sub(1) == 1) {
        writers_done.store(true, std::memory_order_release);
      }
    });
  }
  // Two readers snapshot continuously while writers hammer the ring; the
  // last writer to finish releases them.
  for (int r = 0; r < 2; ++r) {
    tasks.push_back([&log, &writers_done, &torn] {
      while (!writers_done.load(std::memory_order_acquire)) {
        for (const QueryAuditRecord& record : log.Snapshot()) {
          if (!IsConsistent(record)) torn.fetch_add(1);
        }
      }
    });
  }
  pool.Run(std::move(tasks));

  EXPECT_EQ(torn.load(), 0u);
  // No record is dropped under contention: recorded = attempts, and the
  // ring holds the newest kCapacity of them.
  EXPECT_EQ(log.total_recorded(), kWriters * kPerWriter);
  const std::vector<QueryAuditRecord> records = log.Snapshot();
  EXPECT_EQ(records.size(), QueryLog::kCapacity);
  std::set<std::uint64_t> sequences;
  for (const QueryAuditRecord& record : records) {
    EXPECT_TRUE(IsConsistent(record));
    sequences.insert(record.sequence);
  }
  EXPECT_EQ(sequences.size(), records.size());  // no duplicate sequences
}

TEST(SessionOutcomeName, StableJsonNames) {
  EXPECT_STREQ(SessionOutcomeName(SessionOutcome::kFinalized), "finalized");
  EXPECT_STREQ(SessionOutcomeName(SessionOutcome::kAbandoned), "abandoned");
  EXPECT_STREQ(SessionOutcomeName(SessionOutcome::kErrored), "errored");
  EXPECT_STREQ(SessionOutcomeName(static_cast<SessionOutcome>(99)),
               "unknown");
}

TEST(QueryLogTest, GlobalIsASingleton) {
  EXPECT_EQ(&QueryLog::Global(), &QueryLog::Global());
}

}  // namespace
}  // namespace obs
}  // namespace qdcbir
