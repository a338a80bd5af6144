// Flight-recorder contract: deterministic delta/rate math over an injected
// clock and a private registry, counter-reset handling, ring and series
// table bounds, event-mark windowing, and the /historyz JSON shapes.

#include "qdcbir/obs/timeseries.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "qdcbir/obs/metrics.h"

namespace qdcbir {
namespace obs {
namespace {

constexpr std::uint64_t kSecond = 1000ull * 1000 * 1000;

FlightRecorder::Options SmallOptions() {
  FlightRecorder::Options options;
  options.interval_ns = kSecond;
  options.capacity = 8;
  options.max_series = 64;
  options.max_events = 8;
  return options;
}

TEST(FlightRecorderTest, CounterDeltaAndRateMath) {
  MetricsRegistry registry;
  std::uint64_t now = 0;
  FlightRecorder recorder(SmallOptions(), &registry, [&now] { return now; });

  Counter& counter = registry.GetCounter("test.counter");
  counter.Add(5);
  now = 1 * kSecond;
  recorder.SampleNow();
  counter.Add(5);
  now = 3 * kSecond;  // 2s gap: rate must use actual inter-sample time
  recorder.SampleNow();

  const FlightRecorder::Series series = recorder.Query("test.counter", 0);
  ASSERT_TRUE(series.known);
  EXPECT_TRUE(series.is_counter);
  ASSERT_EQ(series.points.size(), 2u);
  EXPECT_EQ(series.points[0].t_ns, 1 * kSecond);
  EXPECT_EQ(series.points[0].value, 5.0);
  EXPECT_EQ(series.points[0].delta, 0.0);  // window's first point
  EXPECT_EQ(series.points[1].t_ns, 3 * kSecond);
  EXPECT_EQ(series.points[1].value, 10.0);
  EXPECT_EQ(series.points[1].delta, 5.0);
  EXPECT_DOUBLE_EQ(series.points[1].rate, 2.5);
  EXPECT_EQ(recorder.samples_taken(), 2u);
}

TEST(FlightRecorderTest, CounterResetReportsNewValueAsDelta) {
  MetricsRegistry registry;
  std::uint64_t now = 0;
  FlightRecorder recorder(SmallOptions(), &registry, [&now] { return now; });

  Counter& counter = registry.GetCounter("test.counter");
  counter.Add(10);
  now = 1 * kSecond;
  recorder.SampleNow();
  registry.Reset();  // reload epoch: every counter back to zero
  counter.Add(3);
  now = 2 * kSecond;
  recorder.SampleNow();

  const FlightRecorder::Series series = recorder.Query("test.counter", 0);
  ASSERT_EQ(series.points.size(), 2u);
  EXPECT_EQ(series.points[1].value, 3.0);
  // Prometheus-style: a counter that went backwards contributes its new
  // value as the delta, never a negative rate.
  EXPECT_EQ(series.points[1].delta, 3.0);
  EXPECT_DOUBLE_EQ(series.points[1].rate, 3.0);
}

TEST(FlightRecorderTest, GaugeSeriesKeepsSignedDeltas) {
  MetricsRegistry registry;
  std::uint64_t now = 0;
  FlightRecorder recorder(SmallOptions(), &registry, [&now] { return now; });

  Gauge& gauge = registry.GetGauge("test.gauge");
  gauge.Set(5);
  now = 1 * kSecond;
  recorder.SampleNow();
  gauge.Set(2);
  now = 2 * kSecond;
  recorder.SampleNow();

  const FlightRecorder::Series series = recorder.Query("test.gauge", 0);
  ASSERT_TRUE(series.known);
  EXPECT_FALSE(series.is_counter);
  ASSERT_EQ(series.points.size(), 2u);
  EXPECT_EQ(series.points[1].value, 2.0);
  EXPECT_EQ(series.points[1].delta, -3.0);  // gauges may go down
}

TEST(FlightRecorderTest, RingWrapKeepsNewestSamples) {
  MetricsRegistry registry;
  std::uint64_t now = 0;
  FlightRecorder::Options options = SmallOptions();
  options.capacity = 4;
  FlightRecorder recorder(options, &registry, [&now] { return now; });

  Counter& counter = registry.GetCounter("test.counter");
  for (int i = 1; i <= 6; ++i) {
    counter.Add(1);
    now = static_cast<std::uint64_t>(i) * kSecond;
    recorder.SampleNow();
  }

  const FlightRecorder::Series series = recorder.Query("test.counter", 0);
  ASSERT_EQ(series.points.size(), 4u);  // oldest two fell off the ring
  EXPECT_EQ(series.points.front().t_ns, 3 * kSecond);
  EXPECT_EQ(series.points.back().t_ns, 6 * kSecond);
  for (std::size_t i = 1; i < series.points.size(); ++i) {
    EXPECT_LT(series.points[i - 1].t_ns, series.points[i].t_ns);
    EXPECT_EQ(series.points[i].delta, 1.0);
  }
  EXPECT_EQ(recorder.samples_taken(), 6u);
}

TEST(FlightRecorderTest, SeriesTableOverflowTicksDroppedCounter) {
  MetricsRegistry registry;
  std::uint64_t now = 0;
  FlightRecorder::Options options = SmallOptions();
  // The constructor registers the three history.* self-metrics; they fill
  // the whole table, so this later counter cannot be tracked.
  options.max_series = 3;
  FlightRecorder recorder(options, &registry, [&now] { return now; });
  registry.GetCounter("zz.extra").Add(1);

  now = 1 * kSecond;
  recorder.SampleNow();
  EXPECT_GT(recorder.series_dropped(), 0u);
  EXPECT_FALSE(recorder.Query("zz.extra", 0).known);

  // The overflow is visible in the sampled data itself: the self-metric
  // ticked after the first sample, so the second sample records it.
  now = 2 * kSecond;
  recorder.SampleNow();
  const FlightRecorder::Series dropped =
      recorder.Query("history.series.dropped", 0);
  ASSERT_TRUE(dropped.known);
  EXPECT_GT(dropped.points.back().value, 0.0);
}

TEST(FlightRecorderTest, SelfSampleCounterIsMonotone) {
  MetricsRegistry registry;
  std::uint64_t now = 0;
  FlightRecorder recorder(SmallOptions(), &registry, [&now] { return now; });
  for (int i = 1; i <= 3; ++i) {
    now = static_cast<std::uint64_t>(i) * kSecond;
    recorder.SampleNow();
  }
  // Each sample reads the registry before ticking itself, so sample i
  // records i-1 prior samples: 0, 1, 2 — strictly consistent deltas.
  const FlightRecorder::Series series =
      recorder.Query("history.samples.taken", 0);
  ASSERT_EQ(series.points.size(), 3u);
  for (std::size_t i = 0; i < series.points.size(); ++i) {
    EXPECT_EQ(series.points[i].value, static_cast<double>(i));
    if (i > 0) {
      EXPECT_EQ(series.points[i].delta, 1.0);
    }
  }
}

TEST(FlightRecorderTest, ConcurrentSamplersKeepCountersMonotone) {
  // The sampler thread and the slow-trace hook call SampleNow at once. Each
  // sample must land in clock order with values no smaller than the one
  // before, or /historyz reports a counter reset and a full-value delta.
  for (const int threads : {2, 4}) {
    int backwards_rounds = 0;
    for (int round = 0; round < 20; ++round) {
      MetricsRegistry registry;
      Counter& sessions = registry.GetCounter("qd.sessions");
      // A histogram makes each registry snapshot take as long as the
      // server's does, so the samplers' snapshots really overlap.
      registry.GetHistogram("serve.session.latency_ns").Record(1);
      std::atomic<std::uint64_t> ticks{1};
      FlightRecorder::Options options = SmallOptions();
      options.capacity = 512;
      FlightRecorder recorder(options, &registry, [&ticks] {
        return ticks.fetch_add(1, std::memory_order_relaxed);
      });
      std::vector<std::thread> samplers;
      for (int t = 0; t < threads; ++t) {
        samplers.emplace_back([&] {
          for (int i = 0; i < 100; ++i) {
            sessions.Add(1);
            recorder.SampleNow();
          }
        });
      }
      for (std::thread& sampler : samplers) sampler.join();
      const FlightRecorder::Series series = recorder.Query("qd.sessions", 0);
      bool backwards = false;
      for (std::size_t i = 1; i < series.points.size(); ++i) {
        backwards |= series.points[i].value < series.points[i - 1].value ||
                     series.points[i].t_ns < series.points[i - 1].t_ns;
      }
      backwards_rounds += backwards ? 1 : 0;
    }
    EXPECT_EQ(backwards_rounds, 0) << threads << " threads";
  }
}

TEST(FlightRecorderTest, EventMarksAreWindowedAndBounded) {
  MetricsRegistry registry;
  std::uint64_t now = 0;
  FlightRecorder::Options options = SmallOptions();
  options.max_events = 2;
  FlightRecorder recorder(options, &registry, [&now] { return now; });

  now = 1 * kSecond;
  recorder.MarkEvent("trace-a");
  now = 2 * kSecond;
  recorder.MarkEvent("trace-b");
  now = 10 * kSecond;
  recorder.MarkEvent("trace-c");  // ring holds 2: trace-a evicted

  const std::vector<FlightRecorder::EventMark> all = recorder.Events(0);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].label, "trace-b");
  EXPECT_EQ(all[1].label, "trace-c");

  const std::vector<FlightRecorder::EventMark> recent =
      recorder.Events(2 * kSecond);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].label, "trace-c");
  EXPECT_EQ(registry.GetCounter("history.events.marked").Value(), 3u);
}

TEST(FlightRecorderTest, QueryWindowKeepsDeltaContinuity) {
  MetricsRegistry registry;
  std::uint64_t now = 0;
  FlightRecorder recorder(SmallOptions(), &registry, [&now] { return now; });

  Counter& counter = registry.GetCounter("test.counter");
  for (int i = 1; i <= 4; ++i) {
    counter.Add(static_cast<std::uint64_t>(i));
    now = static_cast<std::uint64_t>(i) * kSecond;
    recorder.SampleNow();
  }
  // Trailing 1.5s of a 4s history: only the samples at t=3s and t=4s, but
  // the t=3s delta is still computed against the out-of-window t=2s value.
  const FlightRecorder::Series series =
      recorder.Query("test.counter", kSecond + kSecond / 2);
  ASSERT_EQ(series.points.size(), 2u);
  EXPECT_EQ(series.points[0].t_ns, 3 * kSecond);
  EXPECT_EQ(series.points[0].value, 6.0);
  EXPECT_EQ(series.points[0].delta, 3.0);
  EXPECT_EQ(series.points[1].delta, 4.0);
}

TEST(FlightRecorderTest, RenderJsonShapes) {
  MetricsRegistry registry;
  std::uint64_t now = 0;
  FlightRecorder recorder(SmallOptions(), &registry, [&now] { return now; });
  registry.GetCounter("test.counter").Add(7);
  now = 1 * kSecond;
  recorder.SampleNow();
  recorder.MarkEvent("trace-x");

  const std::string known = recorder.RenderJson("test.counter", 0);
  EXPECT_NE(known.find("\"metric\":\"test.counter\""), std::string::npos);
  EXPECT_NE(known.find("\"known\":true"), std::string::npos);
  EXPECT_NE(known.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(known.find("\"interval_ms\":1000"), std::string::npos);
  EXPECT_NE(known.find("\"value\":7"), std::string::npos);
  EXPECT_NE(known.find("\"label\":\"trace-x\""), std::string::npos);
  EXPECT_NE(known.find("\"samples_taken\":1"), std::string::npos);
  EXPECT_EQ(known.find("\"series\":["), std::string::npos);

  // Unknown metric: known:false plus the series directory for discovery.
  const std::string unknown = recorder.RenderJson("nope", 0);
  EXPECT_NE(unknown.find("\"known\":false"), std::string::npos);
  EXPECT_NE(unknown.find("\"series\":["), std::string::npos);
  EXPECT_NE(unknown.find("\"test.counter\""), std::string::npos);
  EXPECT_NE(unknown.find("\"history.samples.taken\""), std::string::npos);
  EXPECT_EQ(unknown.find("\"type\":"), std::string::npos);
}

TEST(FlightRecorderTest, BackgroundSamplerStartStopIdempotent) {
  MetricsRegistry registry;
  FlightRecorder recorder(SmallOptions(), &registry);  // real clock
  recorder.Start();
  recorder.Start();  // no second thread
  recorder.Stop();
  recorder.Stop();
  // The loop samples once immediately on start, before its first wait.
  EXPECT_GE(recorder.samples_taken(), 1u);
  recorder.Start();  // restartable after stop
  recorder.Stop();
  EXPECT_GE(recorder.samples_taken(), 2u);
}

}  // namespace
}  // namespace obs
}  // namespace qdcbir
