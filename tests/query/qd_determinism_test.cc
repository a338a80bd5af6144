// The determinism contract of the parallel execution layer: every engine
// must produce byte-identical results at any thread count. Each case runs
// the same work on a sequential pool (1 lane) and a wide pool (8 lanes)
// and compares the outputs exactly — no tolerances.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "qdcbir/cache/cache_manager.h"
#include "qdcbir/core/byte_source.h"
#include "qdcbir/obs/json.h"
#include "qdcbir/obs/query_log.h"
#include "qdcbir/obs/wide_event.h"
#include "qdcbir/core/thread_pool.h"
#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/features/extractor.h"
#include "qdcbir/query/fagin_engine.h"
#include "qdcbir/query/qcluster_engine.h"
#include "qdcbir/query/qd_engine.h"
#include "qdcbir/rfs/rfs_builder.h"
#include "qdcbir/rfs/rfs_serialization.h"

namespace qdcbir {
namespace {

class QdDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogOptions catalog_options;
    catalog_options.num_categories = 24;
    Catalog catalog = Catalog::Build(catalog_options).value();
    SynthesizerOptions options;
    options.total_images = 600;
    options.image_width = 32;
    options.image_height = 32;
    db_ = new ImageDatabase(
        DatabaseSynthesizer::Synthesize(catalog, options).value());

    RfsBuildOptions build;
    build.tree.max_entries = 40;
    build.tree.min_entries = 16;
    rfs_ = new RfsTree(RfsBuilder::Build(db_->features(), build).value());
    // The same tree decoded against the database: it adopts the
    // database's feature store instead of owning a copy.
    shared_rfs_ = new RfsTree(
        RfsSerializer::Decode(MemoryByteSource(RfsSerializer::Serialize(*rfs_)),
                              db_->feature_store())
            .value());
  }
  static void TearDownTestSuite() {
    delete shared_rfs_;
    delete rfs_;
    delete db_;
  }

  /// Drives one scripted QD session over `tree` (default: the owning
  /// tree): 2 feedback rounds marking the first two representatives of
  /// every display group, then Finalize(k).
  static QdResult RunScriptedSession(ThreadPool* pool, QdSessionStats* stats,
                                     cache::CacheManager* cache = nullptr,
                                     const RfsTree* tree = nullptr) {
    QdOptions options;
    options.seed = 4242;
    options.pool = pool;
    options.cache = cache;
    QdSession session(tree != nullptr ? tree : rfs_, options);
    std::vector<DisplayGroup> display = session.Start();
    for (int round = 0; round < 2; ++round) {
      std::vector<ImageId> picks;
      for (const DisplayGroup& group : display) {
        for (std::size_t i = 0; i < group.images.size() && i < 2; ++i) {
          picks.push_back(group.images[i]);
        }
      }
      display = session.Feedback(picks).value();
    }
    QdResult result = session.Finalize(60).value();
    *stats = session.stats();
    return result;
  }

  static const ImageDatabase* db_;
  static const RfsTree* rfs_;
  static const RfsTree* shared_rfs_;
};

const ImageDatabase* QdDeterminismTest::db_ = nullptr;
const RfsTree* QdDeterminismTest::rfs_ = nullptr;
const RfsTree* QdDeterminismTest::shared_rfs_ = nullptr;

void ExpectIdenticalResults(const QdResult& a, const QdResult& b) {
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    const ResultGroup& ga = a.groups[g];
    const ResultGroup& gb = b.groups[g];
    EXPECT_EQ(ga.leaf, gb.leaf);
    EXPECT_EQ(ga.search_node, gb.search_node);
    EXPECT_EQ(ga.relevant_count, gb.relevant_count);
    EXPECT_EQ(ga.ranking_score, gb.ranking_score);  // bit-exact
    ASSERT_EQ(ga.images.size(), gb.images.size());
    for (std::size_t i = 0; i < ga.images.size(); ++i) {
      EXPECT_EQ(ga.images[i].id, gb.images[i].id);
      EXPECT_EQ(ga.images[i].distance_squared, gb.images[i].distance_squared);
    }
  }
}

TEST_F(QdDeterminismTest, QdSessionIdenticalAtOneAndEightThreads) {
  ThreadPool sequential(1);
  ThreadPool wide(8);
  QdSessionStats stats1, stats8;
  const QdResult r1 = RunScriptedSession(&sequential, &stats1);
  const QdResult r8 = RunScriptedSession(&wide, &stats8);

  ExpectIdenticalResults(r1, r8);
  // Cost counters are sums over task-local counters — also invariant.
  EXPECT_EQ(stats1.boundary_expansions, stats8.boundary_expansions);
  EXPECT_EQ(stats1.localized_subqueries, stats8.localized_subqueries);
  EXPECT_EQ(stats1.knn_candidates, stats8.knn_candidates);
  EXPECT_EQ(stats1.knn_nodes_visited, stats8.knn_nodes_visited);
}

TEST_F(QdDeterminismTest, QdSessionIdenticalWithCacheOnAndOffAcrossThreads) {
  // The cache must be invisible in the output: the scripted session run
  // through a shared CacheManager — cold on the first pass, served from
  // cache on every later one — matches the uncached baseline byte-for-byte
  // at every thread count, and the logical cost counters match too (cache
  // hits replay the stat deltas of the computation they elide). The cache
  // keys embed the active SIMD level, so this holds under either
  // QDCBIR_SIMD setting; CI runs the binary under both.
  ThreadPool sequential(1);
  QdSessionStats baseline_stats;
  const QdResult baseline = RunScriptedSession(&sequential, &baseline_stats);

  cache::CacheManager cache(cache::CacheManager::Options{});
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    for (int pass = 0; pass < 2; ++pass) {
      const std::uint64_t leaf_hits_before =
          cache.KindStats(cache::CacheKind::kLeafScan).hits;
      QdSessionStats stats;
      const QdResult result = RunScriptedSession(&pool, &stats, &cache);
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " pass=" << pass);
      ExpectIdenticalResults(baseline, result);
      EXPECT_EQ(stats.boundary_expansions, baseline_stats.boundary_expansions);
      EXPECT_EQ(stats.localized_subqueries,
                baseline_stats.localized_subqueries);
      EXPECT_EQ(stats.knn_candidates, baseline_stats.knn_candidates);
      EXPECT_EQ(stats.knn_nodes_visited, baseline_stats.knn_nodes_visited);
      // A warm pass serves every subquery scan from the leaf-scan cache and
      // recomputes only the expansion and the merge.
      if (threads != 1 || pass != 0) {
        EXPECT_EQ(cache.KindStats(cache::CacheKind::kLeafScan).hits -
                      leaf_hits_before,
                  baseline_stats.localized_subqueries);
      }
    }
  }
  // The warm passes really were served from cache, not recomputed.
  EXPECT_GT(cache.TotalStats().hits, 0u);
  // QD caches leaf scans only, never a finished result.
  const cache::CacheStats topk = cache.KindStats(cache::CacheKind::kTopK);
  EXPECT_EQ(topk.hits, 0u);
  EXPECT_EQ(topk.misses, 0u);
  EXPECT_EQ(topk.insertions, 0u);

  // Invalidation resets to cold without changing the answer.
  cache.BeginEpoch(/*snapshot_identity=*/1);
  QdSessionStats stats_after_flush;
  ExpectIdenticalResults(
      baseline, RunScriptedSession(&sequential, &stats_after_flush, &cache));
}

void ExpectIdenticalStats(const QdSessionStats& a, const QdSessionStats& b) {
  EXPECT_EQ(a.feedback_rounds, b.feedback_rounds);
  EXPECT_EQ(a.nodes_touched, b.nodes_touched);
  EXPECT_EQ(a.distinct_nodes_sampled, b.distinct_nodes_sampled);
  EXPECT_EQ(a.boundary_expansions, b.boundary_expansions);
  EXPECT_EQ(a.expanded_subqueries, b.expanded_subqueries);
  EXPECT_EQ(a.localized_subqueries, b.localized_subqueries);
  EXPECT_EQ(a.knn_candidates, b.knn_candidates);
  EXPECT_EQ(a.knn_nodes_visited, b.knn_nodes_visited);
}

TEST_F(QdDeterminismTest, SharedStoreTreeMatchesOwningTreeAcrossThreads) {
  // Adopting the database's store changes where the features live, not
  // what the engine computes: ranked ids, groups and cost counters match
  // the owning tree byte for byte at every width, cached or not.
  ASSERT_EQ(&shared_rfs_->features(), &db_->features());
  ASSERT_EQ(shared_rfs_->feature_store(), db_->feature_store());
  ASSERT_NE(&rfs_->features(), &db_->features());

  ThreadPool sequential(1);
  QdSessionStats baseline_stats;
  const QdResult baseline = RunScriptedSession(&sequential, &baseline_stats);

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    for (const bool cached : {false, true}) {
      // With the cache on, the second pass is served warm.
      cache::CacheManager cache(cache::CacheManager::Options{});
      for (int pass = 0; pass < (cached ? 2 : 1); ++pass) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                          << " cache=" << cached
                                          << " pass=" << pass);
        QdSessionStats stats;
        const QdResult result = RunScriptedSession(
            &pool, &stats, cached ? &cache : nullptr, shared_rfs_);
        ExpectIdenticalResults(baseline, result);
        ExpectIdenticalStats(baseline_stats, stats);
      }
    }
  }
}

TEST_F(QdDeterminismTest, WideEventsAreInvisible) {
  // The observability layer is passive by contract (obs/wide_event.h): a
  // session exported as a wide event must produce byte-identical ranked
  // results AND identical QdSessionStats to the bare baseline, at every
  // thread count.
  ThreadPool sequential(1);
  QdSessionStats baseline_stats;
  const QdResult baseline = RunScriptedSession(&sequential, &baseline_stats);

  const std::string events_path =
      ::testing::TempDir() + "determinism_wide_events.jsonl";
  std::remove(events_path.c_str());
  obs::WideEventSink sink({events_path, 1 << 20});

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool pool(threads);

    // Re-run the scripted session and export it: the wide event carries
    // the session's audit record, as the serve layer's does.
    QdOptions options;
    options.seed = 4242;
    options.pool = &pool;
    QdSession session(rfs_, options);
    std::vector<DisplayGroup> display = session.Start();
    for (int round = 0; round < 2; ++round) {
      std::vector<ImageId> picks;
      for (const DisplayGroup& group : display) {
        for (std::size_t i = 0; i < group.images.size() && i < 2; ++i) {
          picks.push_back(group.images[i]);
        }
      }
      display = session.Feedback(picks).value();
    }
    const QdResult result = session.Finalize(60).value();

    obs::QueryAuditRecord record;
    record.set_engine("qd");
    record.rounds = static_cast<std::uint64_t>(session.round());
    record.results = result.TotalImages();
    record.subqueries = session.stats().localized_subqueries;
    std::string event;
    obs::JsonWriter w(&event);
    w.BeginObject();
    w.Key("event").String("session");
    w.Key("threads").Uint(threads);
    obs::WriteAuditFields(record, "determinism", &w);
    w.EndObject();
    sink.Emit(event);

    ExpectIdenticalResults(baseline, result);
    ExpectIdenticalStats(baseline_stats, session.stats());
  }
  EXPECT_EQ(sink.emitted(), 4u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST_F(QdDeterminismTest, QclusterIdenticalWithCacheOnAndOff) {
  ThreadPool pool(4);
  cache::CacheManager cache(cache::CacheManager::Options{});
  auto run = [&](cache::CacheManager* cache_ptr) {
    QclusterOptions options;
    options.seed = 9;
    options.pool = &pool;
    options.cache = cache_ptr;
    QclusterEngine engine(db_, options);
    engine.Start();
    engine.Feedback({10, 11, 250, 251, 500, 501}).value();
    return engine.Finalize(64).value();
  };
  const Ranking uncached = run(nullptr);
  const Ranking cold = run(&cache);
  const Ranking warm = run(&cache);  // served from the top-k cache
  EXPECT_GT(cache.TotalStats().hits, 0u);
  for (const Ranking* ranking : {&cold, &warm}) {
    ASSERT_EQ(uncached.size(), ranking->size());
    for (std::size_t i = 0; i < uncached.size(); ++i) {
      EXPECT_EQ(uncached[i].id, (*ranking)[i].id);
      EXPECT_EQ(uncached[i].distance_squared, (*ranking)[i].distance_squared);
    }
  }
}

TEST_F(QdDeterminismTest, WeightedQdSessionIdenticalAcrossThreadCounts) {
  ThreadPool sequential(1);
  ThreadPool wide(8);
  auto run = [&](ThreadPool* pool) {
    QdOptions options;
    options.seed = 77;
    options.pool = pool;
    options.feature_weights = MakeGroupWeights(2.0, 1.0, 0.5);
    QdSession session(rfs_, options);
    std::vector<DisplayGroup> display = session.Start();
    std::vector<ImageId> picks;
    for (const DisplayGroup& group : display) {
      if (!group.images.empty()) picks.push_back(group.images.front());
    }
    display = session.Feedback(picks).value();
    return session.Finalize(40).value();
  };
  ExpectIdenticalResults(run(&sequential), run(&wide));
}

TEST_F(QdDeterminismTest, RfsBuildIsByteIdenticalAcrossThreadCounts) {
  ThreadPool sequential(1);
  ThreadPool wide(8);
  RfsBuildOptions build;
  build.tree.max_entries = 40;
  build.tree.min_entries = 16;

  build.pool = &sequential;
  const RfsTree tree1 = RfsBuilder::Build(db_->features(), build).value();
  build.pool = &wide;
  const RfsTree tree8 = RfsBuilder::Build(db_->features(), build).value();

  EXPECT_EQ(RfsSerializer::Serialize(tree1), RfsSerializer::Serialize(tree8));
}

TEST_F(QdDeterminismTest, FaginRankingIdenticalAcrossThreadCounts) {
  ThreadPool sequential(1);
  ThreadPool wide(8);
  auto run = [&](ThreadPool* pool) {
    FaginOptions options;
    options.seed = 5;
    options.pool = pool;
    FaginEngine engine(db_, options);
    engine.Start();
    engine.Feedback({3, 59, 204, 477}).value();
    return engine.Finalize(50).value();
  };
  const Ranking r1 = run(&sequential);
  const Ranking r8 = run(&wide);
  ASSERT_EQ(r1.size(), r8.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].id, r8[i].id);
    EXPECT_EQ(r1[i].distance_squared, r8[i].distance_squared);
  }
}

TEST_F(QdDeterminismTest, QclusterRankingIdenticalAcrossThreadCounts) {
  ThreadPool sequential(1);
  ThreadPool wide(8);
  auto run = [&](ThreadPool* pool) {
    QclusterOptions options;
    options.seed = 9;
    options.pool = pool;
    QclusterEngine engine(db_, options);
    engine.Start();
    engine.Feedback({10, 11, 250, 251, 500, 501}).value();
    return engine.Finalize(64).value();
  };
  const Ranking r1 = run(&sequential);
  const Ranking r8 = run(&wide);
  ASSERT_EQ(r1.size(), r8.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].id, r8[i].id);
    EXPECT_EQ(r1[i].distance_squared, r8[i].distance_squared);
  }
}

}  // namespace
}  // namespace qdcbir
