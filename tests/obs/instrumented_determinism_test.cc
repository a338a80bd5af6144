// Observability must not disturb the engine's determinism contract: the
// same scripted QD session must return byte-identical results at 1/2/4/8
// pool lanes, with span-tree recording off AND on (recording appends each
// span to a mutex-guarded buffer from whichever lane closes it — none of
// that may leak into result ordering or scoring). The same holds for
// index-access telemetry: ranked results AND the logical cost model
// (QdSessionStats) must be byte-identical with it on vs off. And the two
// work sinks must agree: every engine's per-session totals are the sum of
// its per-leaf rows.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "qdcbir/cache/cache_manager.h"
#include "qdcbir/core/thread_pool.h"
#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/obs/access_stats.h"
#include "qdcbir/obs/task_context.h"
#include "qdcbir/obs/trace_context.h"
#include "qdcbir/obs/trace_tree.h"
#include "qdcbir/query/fagin_engine.h"
#include "qdcbir/query/mv_engine.h"
#include "qdcbir/query/qcluster_engine.h"
#include "qdcbir/query/qd_engine.h"
#include "qdcbir/query/qpm_engine.h"
#include "qdcbir/rfs/rfs_builder.h"

namespace qdcbir {
namespace {

class InstrumentedDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogOptions catalog_options;
    catalog_options.num_categories = 20;
    Catalog catalog = Catalog::Build(catalog_options).value();
    SynthesizerOptions options;
    options.total_images = 500;
    options.image_width = 32;
    options.image_height = 32;
    db_ = new ImageDatabase(
        DatabaseSynthesizer::Synthesize(catalog, options).value());

    RfsBuildOptions build;
    build.tree.max_entries = 40;
    build.tree.min_entries = 16;
    rfs_ = new RfsTree(RfsBuilder::Build(db_->features(), build).value());
  }
  static void TearDownTestSuite() {
    delete rfs_;
    delete db_;
  }

  static QdResult RunScriptedSession(ThreadPool* pool,
                                     QdSessionStats* stats_out = nullptr,
                                     QdOptions options = QdOptions()) {
    options.seed = 1234;
    options.pool = pool;
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
    QdResult result = session.Finalize(60).value();
    if (stats_out != nullptr) *stats_out = session.stats();
    return result;
  }

  static const ImageDatabase* db_;
  static const RfsTree* rfs_;
};

const ImageDatabase* InstrumentedDeterminismTest::db_ = nullptr;
const RfsTree* InstrumentedDeterminismTest::rfs_ = nullptr;

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

TEST_F(InstrumentedDeterminismTest, IdenticalAcrossThreadCountsTracingOff) {
  ASSERT_FALSE(obs::CurrentTraceContext().recording());
  ThreadPool pool1(1);
  const QdResult baseline = RunScriptedSession(&pool1);
  for (const std::size_t lanes : {2u, 4u, 8u}) {
    ThreadPool pool(lanes);
    const QdResult result = RunScriptedSession(&pool);
    ExpectIdenticalResults(baseline, result);
  }
}

TEST_F(InstrumentedDeterminismTest, IdenticalAcrossThreadCountsTracingOn) {
  // Untraced baseline first, then every traced run must match it exactly:
  // recording a span tree may change timing, never results.
  ThreadPool pool1(1);
  const QdResult baseline = RunScriptedSession(&pool1);

  for (const std::size_t lanes : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(lanes);
    obs::TraceContext context = obs::NewTraceContext();
    context.buffer = std::make_shared<obs::TraceBuffer>();
    QdResult result;
    {
      const obs::ScopedTraceContext scoped(context);
      result = RunScriptedSession(&pool);
    }
    ExpectIdenticalResults(baseline, result);
#ifdef QDCBIR_DISABLE_OBS
    EXPECT_TRUE(context.buffer->spans().empty());  // the spans compile out
#else
    // The recording must actually have been on.
    EXPECT_FALSE(context.buffer->spans().empty()) << lanes << " lanes";
#endif
  }
}

TEST_F(InstrumentedDeterminismTest, IdenticalWithAccessTelemetryOnVsOff) {
  // Untracked baseline: no access sink installed, so every tap is the
  // accounting-off branch.
  ThreadPool pool1(1);
  QdSessionStats baseline_stats;
  const QdResult baseline = RunScriptedSession(&pool1, &baseline_stats);

  // The TLS-batched access taps may not perturb ranked results or the
  // logical cost model.
  for (const std::size_t lanes : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(lanes);
    obs::AccessAccumulator access;
    QdSessionStats stats;
    QdResult result;
    {
      const obs::ScopedAccessAccounting accounting(&access);
      result = RunScriptedSession(&pool, &stats);
    }
    ExpectIdenticalResults(baseline, result);
    ExpectIdenticalStats(baseline_stats, stats);

#ifdef QDCBIR_DISABLE_OBS
    EXPECT_TRUE(access.empty());  // the per-leaf taps compile out
#else
    // The telemetry must actually have been on: the scripted session's
    // localized searches record per-leaf scans with distance evals.
    const std::vector<obs::LeafAccess> rows = access.Snapshot();
    ASSERT_FALSE(rows.empty()) << "access accounting captured nothing";
    obs::LeafAccessCounts totals;
    for (const obs::LeafAccess& row : rows) totals.Add(row.counts);
    EXPECT_GT(totals.scans, 0u);
    EXPECT_GT(totals.distance_evals, 0u);
#endif
  }
}

/// Runs `session` under both sinks, as a serve request handler installs
/// them, and requires the totals to equal the sum of the per-leaf rows.
/// Returns the totals.
template <typename Session>
obs::ResourceUsage ExpectTotalsAreSumOfRows(const std::string& what,
                                            const Session& session) {
  obs::ResourceAccumulator resources;
  obs::AccessAccumulator access;
  {
    const obs::ScopedTaskContext scoped(
        obs::TaskContext{{}, nullptr, &resources, &access});
    session();
  }
  const obs::ResourceUsage totals = resources.Snapshot();
  EXPECT_GT(totals.distance_evals + totals.cache_hits, 0u) << what;
#ifdef QDCBIR_DISABLE_OBS
  EXPECT_TRUE(access.empty()) << what;  // rows compile out, totals do not
#else
  obs::LeafAccessCounts rows;
  for (const obs::LeafAccess& row : access.Snapshot()) rows.Add(row.counts);
  EXPECT_EQ(totals.distance_evals, rows.distance_evals) << what;
  EXPECT_EQ(totals.feature_bytes, rows.feature_bytes) << what;
  EXPECT_EQ(totals.cache_hits, rows.cache_hits) << what;
  EXPECT_EQ(totals.cache_misses, rows.cache_misses) << what;
#endif
  return totals;
}

/// Start, two feedback rounds on the first three shown images, finalize.
void RunScriptedBaseline(FeedbackEngine& engine) {
  std::vector<ImageId> display = engine.Start();
  for (int round = 0; round < 2; ++round) {
    display = engine.Feedback({display.begin(), display.begin() + 3}).value();
  }
  ASSERT_TRUE(engine.Finalize(60).ok()) << engine.Name();
}

TEST_F(InstrumentedDeterminismTest, SessionTotalsAreTheSumOfLeafRows) {
  ThreadPool pool(4);
  for (const bool weighted : {false, true}) {
    QdOptions options;
    if (weighted) {
      options.feature_weights.assign(rfs_->feature_dim(), 1.0);
      options.feature_weights[0] = 3.0;
    }
    const std::string qd = weighted ? "qd weighted" : "qd";
    ExpectTotalsAreSumOfRows(qd + ", cache off", [&] {
      RunScriptedSession(&pool, nullptr, options);
    });
    cache::CacheManager cache(cache::CacheManager::Options{});
    options.cache = &cache;
    const obs::ResourceUsage cold =
        ExpectTotalsAreSumOfRows(qd + ", cold cache", [&] {
          RunScriptedSession(&pool, nullptr, options);
        });
    EXPECT_GT(cold.cache_misses, 0u) << qd;
    const obs::ResourceUsage warm =
        ExpectTotalsAreSumOfRows(qd + ", warm cache", [&] {
          RunScriptedSession(&pool, nullptr, options);
        });
    EXPECT_GT(warm.cache_hits, 0u) << qd;
  }

  cache::CacheManager cache(cache::CacheManager::Options{});
  MvEngine mv(db_);
  QpmEngine qpm(db_);
  FaginOptions fagin_options;
  fagin_options.pool = &pool;
  FaginEngine fagin(db_, fagin_options);
  QclusterOptions qcluster_options;
  qcluster_options.pool = &pool;
  qcluster_options.cache = &cache;
  QclusterEngine qcluster(db_, qcluster_options);
  for (FeedbackEngine* engine :
       std::initializer_list<FeedbackEngine*>{&mv, &qpm, &fagin, &qcluster}) {
    ExpectTotalsAreSumOfRows(engine->Name(),
                             [engine] { RunScriptedBaseline(*engine); });
  }
  // The same script again finds qcluster's finalized ranking cached.
  QclusterEngine warm(db_, qcluster_options);
  EXPECT_GT(ExpectTotalsAreSumOfRows("qcluster, warm cache",
                                     [&] { RunScriptedBaseline(warm); })
                .cache_hits,
            0u);
}

}  // namespace
}  // namespace qdcbir
