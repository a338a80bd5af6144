#include "qdcbir/obs/resource_stats.h"

#include <gtest/gtest.h>

#include <cstddef>

#include "qdcbir/core/thread_pool.h"
#include "qdcbir/obs/access_stats.h"

namespace qdcbir {
namespace obs {
namespace {

TEST(ResourceStatsTest, TapsAreNoOpsWithoutAccumulator) {
  ASSERT_EQ(CurrentResourceAccumulator(), nullptr);
  CountLeafScan(kTableScanLeaf, 10, 0);
  CountLeafScan(kTableScanLeaf, 0, 100);
  CountLeafVisits(1);
  CountTileGathers(1);
  CountContainerAlloc(64);
  // No sink: nothing is retained anywhere, and a later scope must not
  // inherit stale deltas.
  ResourceAccumulator accumulator;
  {
    const ScopedResourceAccounting scope(&accumulator);
  }
  EXPECT_TRUE(accumulator.Snapshot().IsZero());
}

TEST(ResourceStatsTest, ScopeCollectsAndMergesAtExit) {
  ResourceAccumulator accumulator;
  {
    const ScopedResourceAccounting scope(&accumulator);
    EXPECT_EQ(CurrentResourceAccumulator(), &accumulator);
    CountLeafScan(kTableScanLeaf, 5, 0);
    CountLeafScan(kTableScanLeaf, 7, 0);
    CountLeafScan(kTableScanLeaf, 0, 1024);
    CountLeafVisits(3);
    CountTileGathers(2);
    CountContainerAlloc(256);
    CountContainerAlloc(128);
    // Deltas are batched thread-locally; the sink sees them at scope exit.
    EXPECT_TRUE(accumulator.Snapshot().IsZero());
  }
  const ResourceUsage usage = accumulator.Snapshot();
  EXPECT_EQ(usage.distance_evals, 12u);
  EXPECT_EQ(usage.feature_bytes, 1024u);
  EXPECT_EQ(usage.leaves_visited, 3u);
  EXPECT_EQ(usage.tiles_gathered, 2u);
  EXPECT_EQ(usage.container_allocs, 2u);
  EXPECT_EQ(usage.alloc_bytes, 384u);
  EXPECT_EQ(CurrentResourceAccumulator(), nullptr);
}

TEST(ResourceStatsTest, FlushPublishesMidScope) {
  ResourceAccumulator accumulator;
  {
    const ScopedResourceAccounting scope(&accumulator);
    CountLeafScan(kTableScanLeaf, 9, 0);
    FlushResourceAccounting();
    EXPECT_EQ(accumulator.Snapshot().distance_evals, 9u);
    CountLeafScan(kTableScanLeaf, 1, 0);
  }
  // Flush zeroed the local deltas, so the scope-exit merge adds only the
  // post-flush tally — nothing is double-counted.
  EXPECT_EQ(accumulator.Snapshot().distance_evals, 10u);
}

TEST(ResourceStatsTest, NestedScopesIsolateAndRestore) {
  ResourceAccumulator outer;
  ResourceAccumulator inner;
  {
    const ScopedResourceAccounting outer_scope(&outer);
    CountLeafScan(kTableScanLeaf, 1, 0);
    {
      const ScopedResourceAccounting inner_scope(&inner);
      CountLeafScan(kTableScanLeaf, 100, 0);
    }
    // The inner scope neither leaked its counts to the outer sink nor
    // clobbered the outer scope's pending deltas.
    CountLeafScan(kTableScanLeaf, 2, 0);
  }
  EXPECT_EQ(outer.Snapshot().distance_evals, 3u);
  EXPECT_EQ(inner.Snapshot().distance_evals, 100u);
}

TEST(ResourceStatsTest, NullScopeDisablesAccounting) {
  ResourceAccumulator accumulator;
  {
    const ScopedResourceAccounting scope(&accumulator);
    {
      const ScopedResourceAccounting off(nullptr);
      EXPECT_EQ(CurrentResourceAccumulator(), nullptr);
      CountLeafScan(kTableScanLeaf, 1000, 0);
    }
    CountLeafScan(kTableScanLeaf, 1, 0);
  }
  EXPECT_EQ(accumulator.Snapshot().distance_evals, 1u);
}

TEST(ResourceStatsTest, AccumulatorCrossesThreadPool) {
  ThreadPool pool(4);
  ResourceAccumulator accumulator;
  {
    const ScopedResourceAccounting scope(&accumulator);
    // Iterations run on workers and (by participation) the caller; each
    // must inherit the enqueuer's sink, like trace context.
    pool.ParallelFor(0, 100, [](std::size_t) {
      CountLeafScan(kTableScanLeaf, 1, 0);
      CountLeafScan(kTableScanLeaf, 0, 8);
    });
  }
  const ResourceUsage usage = accumulator.Snapshot();
  EXPECT_EQ(usage.distance_evals, 100u);
  EXPECT_EQ(usage.feature_bytes, 800u);
}

TEST(ResourceStatsTest, NestedParallelForStillSumsOnce) {
  ThreadPool pool(4);
  ResourceAccumulator accumulator;
  {
    const ScopedResourceAccounting scope(&accumulator);
    pool.ParallelFor(0, 4, [&pool](std::size_t) {
      pool.ParallelFor(0, 25, [](std::size_t) { CountLeafVisits(1); });
    });
  }
  EXPECT_EQ(accumulator.Snapshot().leaves_visited, 100u);
}

TEST(ResourceStatsTest, UsageAddAndIsZero) {
  ResourceUsage a;
  EXPECT_TRUE(a.IsZero());
  ResourceUsage b;
  b.distance_evals = 1;
  b.alloc_bytes = 7;
  a.Add(b);
  a.Add(b);
  EXPECT_FALSE(a.IsZero());
  EXPECT_EQ(a.distance_evals, 2u);
  EXPECT_EQ(a.alloc_bytes, 14u);
}

}  // namespace
}  // namespace obs
}  // namespace qdcbir
