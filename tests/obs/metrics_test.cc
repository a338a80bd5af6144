// Unit tests of the metric primitives: bucketing exactness and bounded
// percentile error of the log-linear histogram (checked against a
// reference sort), exact totals under concurrent recording from the
// thread pool, shards allocated by their first write, and the registry's
// stable-reference / JSON contracts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "qdcbir/core/rng.h"
#include "qdcbir/core/thread_pool.h"
#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/span.h"

namespace qdcbir {
namespace obs {
namespace {

TEST(HistogramBucketTest, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    const std::size_t bucket = Histogram::BucketOf(v);
    EXPECT_EQ(bucket, v);
    EXPECT_DOUBLE_EQ(Histogram::BucketMidpoint(bucket), static_cast<double>(v));
  }
}

TEST(HistogramBucketTest, BucketsAreMonotonic) {
  std::size_t last = 0;
  for (std::uint64_t v = 1; v < (std::uint64_t{1} << 40); v = v * 3 / 2 + 1) {
    const std::size_t bucket = Histogram::BucketOf(v);
    EXPECT_GE(bucket, last) << "value " << v;
    EXPECT_LT(bucket, Histogram::kNumBuckets);
    last = bucket;
  }
}

TEST(HistogramBucketTest, MidpointRelativeErrorIsBounded) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    // Log-uniform over ~12 orders of magnitude, like latency values.
    const double u = rng.UniformDouble();
    const std::uint64_t v =
        static_cast<std::uint64_t>(std::exp(u * std::log(1e12))) + 1;
    const double mid = Histogram::BucketMidpoint(Histogram::BucketOf(v));
    // Bucket width is at most value/8; the midpoint is off by half that.
    EXPECT_NEAR(mid, static_cast<double>(v),
                static_cast<double>(v) / 8.0 + 0.5)
        << "value " << v;
  }
}

TEST(HistogramTest, PercentilesTrackReferenceSort) {
  Histogram histogram;
  Rng rng(7);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.UniformDouble();
    values.push_back(
        static_cast<std::uint64_t>(std::exp(u * std::log(1e9))));
  }
  for (const std::uint64_t v : values) histogram.Record(v);

  std::sort(values.begin(), values.end());
  const auto reference = [&](double q) {
    const std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(values.size()) + 0.5);
    return static_cast<double>(values[std::min(rank, values.size()) - 1]);
  };

  const Histogram::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, values.size());
  EXPECT_EQ(snap.min, values.front());
  EXPECT_EQ(snap.max, values.back());
  for (const auto& [q, estimate] :
       {std::pair<double, double>{0.50, snap.p50},
        {0.90, snap.p90},
        {0.95, snap.p95},
        {0.99, snap.p99}}) {
    const double exact = reference(q);
    // Log-linear buckets guarantee ~6% relative error on the bucket
    // boundary; 15% leaves headroom for rank-rounding at the tails.
    EXPECT_NEAR(estimate, exact, exact * 0.15 + 1.0) << "quantile " << q;
  }
}

TEST(HistogramTest, SingleRepeatedValueClampsAllPercentiles) {
  Histogram histogram;
  for (int i = 0; i < 1000; ++i) histogram.Record(12345);
  const Histogram::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.min, 12345u);
  EXPECT_EQ(snap.max, 12345u);
  // Midpoints clamp into [min, max], so a constant stream reports exactly.
  EXPECT_DOUBLE_EQ(snap.p50, 12345.0);
  EXPECT_DOUBLE_EQ(snap.p99, 12345.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 12345.0);
}

TEST(HistogramTest, EmptySnapshotIsZero) {
  Histogram histogram;
  const Histogram::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
}

TEST(CounterTest, ConcurrentAddsFromPoolAreExact) {
  Counter counter;
  ThreadPool pool(8);
  constexpr std::size_t kAdds = 100000;
  pool.ParallelFor(0, kAdds, [&](std::size_t) { counter.Add(1); });
  EXPECT_EQ(counter.Value(), kAdds);
  counter.Add(5);
  EXPECT_EQ(counter.Value(), kAdds + 5);
  counter.Clear();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(HistogramTest, ConcurrentRecordsFromPoolAreExact) {
  Histogram histogram;
  ThreadPool pool(8);
  constexpr std::uint64_t kRecords = 50000;
  pool.ParallelFor(0, kRecords,
                   [&](std::size_t i) { histogram.Record(i); });
  const Histogram::Snapshot snap = histogram.Snap();
  EXPECT_EQ(snap.count, kRecords);
  EXPECT_EQ(snap.sum, kRecords * (kRecords - 1) / 2);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, kRecords - 1);
}

TEST(HistogramTest, OneWritingThreadHoldsOneShard) {
  Histogram histogram;
  EXPECT_EQ(histogram.AllocatedShards(), 0u);
  for (std::uint64_t v = 0; v < 1000; ++v) histogram.Record(v);
  EXPECT_EQ(histogram.AllocatedShards(), 1u);
  EXPECT_EQ(histogram.Snap().count, 1000u);
}

TEST(HistogramTest, ThreadsRacingOnFirstRecordsAreExact) {
  // Eight threads released together into a fresh histogram: threads that
  // share a shard slot race to allocate it, one CAS wins, and no record is
  // lost to the shard that lost.
  constexpr std::uint64_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 500;
  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Histogram histogram;
    std::atomic<std::uint64_t> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (std::uint64_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&histogram, &ready, &go, t] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (std::uint64_t i = 1; i <= kPerThread; ++i) {
          histogram.Record(t * kPerThread + i);
        }
      });
    }
    while (ready.load() < kThreads) std::this_thread::yield();
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) thread.join();

    const Histogram::Snapshot snap = histogram.Snap();
    EXPECT_EQ(snap.count, kTotal);
    EXPECT_EQ(snap.sum, kTotal * (kTotal + 1) / 2);
    EXPECT_EQ(snap.min, 1u);
    EXPECT_EQ(snap.max, kTotal);
    EXPECT_GE(histogram.AllocatedShards(), 1u);
    EXPECT_LE(histogram.AllocatedShards(), Histogram::kShards);
  }
}

TEST(HistogramTest, NeverRecordedHistogramReadsAndClearsEmpty) {
  Histogram histogram;
  EXPECT_EQ(histogram.Snap().count, 0u);
  EXPECT_TRUE(histogram.CumulativeBuckets().empty());
  histogram.Clear();
  EXPECT_EQ(histogram.Snap().count, 0u);
  EXPECT_EQ(histogram.AllocatedShards(), 0u) << "reading must not allocate";

  MetricsRegistry registry;
  Histogram& registered = registry.GetHistogram("test.never_recorded");
  registry.Reset();
  const MetricsRegistry::RegistrySnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 0u);
  EXPECT_TRUE(snap.histogram_buckets[0].second.empty());
  EXPECT_EQ(registered.AllocatedShards(), 0u);
}

TEST(GaugeTest, ConcurrentBalancedAddsCancel) {
  Gauge gauge;
  ThreadPool pool(8);
  pool.ParallelFor(0, 20000, [&](std::size_t) {
    gauge.Add(1);
    gauge.Add(-1);
  });
  EXPECT_EQ(gauge.Value(), 0);
}

TEST(GaugeTest, SetAndHighWaterMark) {
  Gauge gauge;
  gauge.Add(5);
  EXPECT_EQ(gauge.Value(), 5);
  EXPECT_EQ(gauge.Max(), 5);
  gauge.Set(3);
  EXPECT_EQ(gauge.Value(), 3);
  EXPECT_EQ(gauge.Max(), 5);  // high-water survives Set
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 0);
  gauge.Clear();
  EXPECT_EQ(gauge.Value(), 0);
  EXPECT_EQ(gauge.Max(), 0);
}

TEST(MetricsRegistryTest, ReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("test.counter");
  Counter& b = registry.GetCounter("test.counter");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = registry.GetHistogram("span.test");
  Histogram& h2 = registry.SpanHistogram("test");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistryTest, SnapshotJsonListsRegisteredMetrics) {
  MetricsRegistry registry;
  registry.GetCounter("alpha.count").Add(3);
  registry.GetGauge("beta.depth").Set(7);
  registry.GetHistogram("gamma.ns").Record(100);

  const std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"alpha.count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"beta.depth\":{\"value\":7,\"max\":7}"),
            std::string::npos);
  EXPECT_NE(json.find("\"gamma.ns\":{\"count\":1"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("reset.me");
  counter.Add(42);
  registry.Reset();
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(&registry.GetCounter("reset.me"), &counter);
}

TEST(SpanMacroTest, RecordsIntoGlobalSpanHistogram) {
  Histogram& histogram =
      MetricsRegistry::Global().SpanHistogram("obs_test.macro");
  const std::uint64_t before = histogram.Snap().count;
  for (int i = 0; i < 3; ++i) {
    QDCBIR_SPAN("obs_test.macro");
  }
#ifdef QDCBIR_DISABLE_OBS
  EXPECT_EQ(histogram.Snap().count, before);  // spans compile out
#else
  EXPECT_EQ(histogram.Snap().count, before + 3);
#endif
}

}  // namespace
}  // namespace obs
}  // namespace qdcbir
