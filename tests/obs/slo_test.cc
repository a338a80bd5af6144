#include "qdcbir/obs/slo.h"

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/prom_export.h"

namespace qdcbir {
namespace obs {
namespace {

constexpr std::uint64_t kSecond = 1000ull * 1000 * 1000;

SloDefinition LatencySlo() {
  SloDefinition def;
  def.name = "latency";
  def.kind = SloKind::kLatencyQuantile;
  def.metric = "test.latency";
  def.threshold = 1e6;  // 1 ms
  def.objective = 0.95;
  return def;
}

TEST(SloEngine, StartsOkWithRegisteredGauges) {
  MetricsRegistry registry;
  std::uint64_t now = 0;
  SloEngine engine({LatencySlo()}, &registry, [&] { return now; });
  ASSERT_EQ(engine.definition_count(), 1u);
  EXPECT_EQ(engine.WorstState(), SloState::kOk);
  // Gauge families exist (at 0) before any evaluation, so the first
  // /metrics scrape already exposes qdcbir_slo_*.
  EXPECT_EQ(registry.GetGauge("slo.latency.state").Value(), 0);
  EXPECT_EQ(registry.GetGauge("slo.latency.fast_burn_permille").Value(), 0);
}

TEST(SloEngine, BreachesUnderInjectedLatencyAndRecovers) {
  MetricsRegistry registry;
  Histogram& latency = registry.GetHistogram("test.latency");
  std::uint64_t now = 0;
  SloEngine engine({LatencySlo()}, &registry, [&] { return now; });

  engine.Evaluate();  // baseline sample at t=0, nothing recorded
  EXPECT_EQ(engine.WorstState(), SloState::kOk);

  // Ten sessions at 100 ms against a 1 ms target: the whole window is bad,
  // so burn = 1.0 / (1 - 0.95) = 20 in both windows -> breach.
  for (int i = 0; i < 10; ++i) latency.Record(100 * 1000 * 1000);
  now = 10 * kSecond;
  engine.Evaluate();
  EXPECT_EQ(engine.WorstState(), SloState::kBreach);
  EXPECT_EQ(registry.GetGauge("slo.latency.state").Value(), 2);
  EXPECT_GT(registry.GetGauge("slo.latency.fast_burn_permille").Value(),
            14400 - 1);

  // No new traffic; once the bad burst ages out of the fast window only the
  // slow window still burns -> warn.
  now = 400 * kSecond;
  engine.Evaluate();
  EXPECT_EQ(engine.WorstState(), SloState::kWarn);

  // A flood of fast sessions dilutes the slow window too -> ok.
  for (int i = 0; i < 1000; ++i) latency.Record(1000);
  now = 500 * kSecond;
  engine.Evaluate();
  EXPECT_EQ(engine.WorstState(), SloState::kOk);
  EXPECT_EQ(registry.GetGauge("slo.latency.state").Value(), 0);

  const std::vector<SloStatus> statuses = engine.Snapshot();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].total, 1010u);
  EXPECT_EQ(statuses[0].state, SloState::kOk);
}

TEST(SloEngine, AvailabilityCountsBadRequests) {
  MetricsRegistry registry;
  Counter& requests = registry.GetCounter("test.requests");
  Counter& bad = registry.GetCounter("test.bad");
  SloDefinition def;
  def.name = "availability";
  def.kind = SloKind::kAvailability;
  def.metric = "test.requests";
  def.bad_metric = "test.bad";
  def.objective = 0.95;
  std::uint64_t now = 0;
  SloEngine engine({def}, &registry, [&] { return now; });
  engine.Evaluate();

  for (int i = 0; i < 50; ++i) {
    requests.Add();
    bad.Add();
  }
  now = 10 * kSecond;
  engine.Evaluate();
  EXPECT_EQ(engine.WorstState(), SloState::kBreach);
}

TEST(SloEngine, SurvivesRegistryReset) {
  MetricsRegistry registry;
  Histogram& latency = registry.GetHistogram("test.latency");
  std::uint64_t now = 0;
  SloEngine engine({LatencySlo()}, &registry, [&] { return now; });
  engine.Evaluate();
  for (int i = 0; i < 10; ++i) latency.Record(100 * 1000 * 1000);
  now = 10 * kSecond;
  engine.Evaluate();
  EXPECT_EQ(engine.WorstState(), SloState::kBreach);

  // Totals regress after a reset; the monotonic guard restarts the window
  // ring instead of computing negative deltas.
  registry.Reset();
  now = 20 * kSecond;
  engine.Evaluate();
  now = 30 * kSecond;
  engine.Evaluate();
  EXPECT_EQ(engine.WorstState(), SloState::kOk);
}

TEST(SloEngine, RenderJsonListsEverySloWithState) {
  MetricsRegistry registry;
  std::uint64_t now = 0;
  SloDefinition floor;
  floor.name = "hit_rate";
  floor.kind = SloKind::kRatioFloor;
  floor.metric = "test.hits";
  floor.bad_metric = "test.misses";
  SloEngine engine({LatencySlo(), floor}, &registry, [&] { return now; });
  engine.Evaluate();
  const std::string json = engine.RenderJson();
  EXPECT_NE(json.find("\"slos\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"latency\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"hit_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"latency_quantile\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"ratio_floor\""), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"objective\":0.95"), std::string::npos);
}

TEST(SloEngine, ConcurrentEvaluatorsKeepTheBurnWindow) {
  // A 10%-bad burst of 10k requests, then every thread sends 20k good
  // requests and evaluates after each one, as lanes finishing sessions
  // together do. The slow window must still hold the burst: burn =
  // 1000 bad / (10k + 20k * threads) requests / (1 - 0.99).
  for (const int threads : {1, 2, 4}) {
    MetricsRegistry registry;
    Counter& requests = registry.GetCounter("test.requests");
    Counter& bad = registry.GetCounter("test.bad");
    SloDefinition def;
    def.name = "availability";
    def.kind = SloKind::kAvailability;
    def.metric = "test.requests";
    def.bad_metric = "test.bad";
    def.objective = 0.99;
    std::atomic<std::uint64_t> ticks{1};
    SloEngine engine({def}, &registry, [&ticks] {
      return ticks.fetch_add(1, std::memory_order_relaxed);
    });
    engine.Evaluate();
    requests.Add(10000);
    bad.Add(1000);
    std::vector<std::thread> lanes;
    for (int t = 0; t < threads; ++t) {
      lanes.emplace_back([&] {
        for (int i = 0; i < 20000; ++i) {
          requests.Add(1);
          engine.Evaluate();
        }
      });
    }
    for (std::thread& lane : lanes) lane.join();
    engine.Evaluate();
    const double expected = 1000.0 / (10000.0 + 20000.0 * threads) / 0.01;
    EXPECT_NEAR(engine.Snapshot()[0].slow_burn, expected, 1e-9)
        << threads << " threads";
  }
}

TEST(SloEngine, EvaluationsWithinASecondShareOneSample) {
  // A burst of evaluations inside one ring slot (one cadence tick) keeps
  // the slot's first reading, so a window that opens inside the burst takes
  // its baseline from the reading that opened the burst's slot: less than a
  // cadence earlier, never more.
  constexpr std::uint64_t kSlot = SloEngine::kCadenceNs;
  MetricsRegistry registry;
  Counter& requests = registry.GetCounter("test.requests");
  Counter& bad = registry.GetCounter("test.bad");
  SloDefinition def;
  def.name = "availability";
  def.kind = SloKind::kAvailability;
  def.metric = "test.requests";
  def.bad_metric = "test.bad";
  def.objective = 0.9;
  def.fast_window_ns = 10 * kSlot;
  std::uint64_t now = 0;
  SloEngine engine({def}, &registry, [&] { return now; });
  engine.Evaluate();

  // 50 bad requests more than a slot before the fast window opens.
  requests.Add(50);
  bad.Add(50);
  now = 2 * kSlot;
  engine.Evaluate();
  // Nine bad requests, one per evaluation, a tenth of a slot apart.
  for (int i = 1; i <= 9; ++i) {
    requests.Add();
    bad.Add();
    now = 2 * kSlot + static_cast<std::uint64_t>(i) * kSlot / 10;
    engine.Evaluate();
  }
  requests.Add(100);
  now = 3 * kSlot + kSlot / 2;
  engine.Evaluate();

  // The fast window opens at 2.5 slots. Its baseline is the reading taken
  // at 2 slots, so all nine burst requests count and the 50 before it do
  // not: 9 bad of 109 over a 10% budget. (Keeping every reading would count
  // 4 of 104; a baseline before 2 slots would count 59 of 159.)
  now = 12 * kSlot + kSlot / 2;
  engine.Evaluate();
  EXPECT_NEAR(engine.Snapshot()[0].fast_burn, 9.0 / 109.0 / 0.1, 1e-9);
}

TEST(SloEngine, TenHoursOfEvaluationsKeepTheRingAndTheWindows) {
  // One evaluation per simulated second for ten hours, 10 requests a
  // second, and 1 bad request a second over the last half hour. The ring
  // laps ten times without growing, and both windows still read exactly.
  MetricsRegistry registry;
  Counter& requests = registry.GetCounter("test.requests");
  Counter& bad = registry.GetCounter("test.bad");
  SloDefinition hour;
  hour.name = "availability";
  hour.kind = SloKind::kAvailability;
  hour.metric = "test.requests";
  hour.bad_metric = "test.bad";
  hour.objective = 0.99;
  SloDefinition half_hour = hour;
  half_hour.name = "availability_30m";
  half_hour.slow_window_ns = 1800 * kSecond;
  std::uint64_t now = 0;
  SloEngine engine({hour, half_hour}, &registry, [&] { return now; });
  const std::uint64_t cadence_s = SloEngine::kCadenceNs / kSecond;
  ASSERT_EQ(engine.ring_slots(0), 3600 / cadence_s + 1);
  ASSERT_EQ(engine.ring_slots(1), 1800 / cadence_s + 1);

  constexpr std::uint64_t kEnd = 10 * 3600;
  constexpr std::uint64_t kBadFrom = kEnd - 1800;
  for (std::uint64_t s = 0; s <= kEnd; ++s) {
    requests.Add(10);
    if (s >= kBadFrom) bad.Add(1);
    now = s * kSecond;
    engine.Evaluate();
  }
  EXPECT_EQ(engine.ring_slots(0), 3600 / cadence_s + 1);
  EXPECT_EQ(engine.ring_slots(1), 1800 / cadence_s + 1);

  // Each window's baseline is the reading taken exactly one window before
  // the last evaluation. The 5-minute window lies inside the bad half hour,
  // the hour holds all 1,801 bad requests, and the 30-minute window's
  // baseline already counts the first of them.
  const std::vector<SloStatus> statuses = engine.Snapshot();
  const double budget = 1.0 - 0.99;
  EXPECT_NEAR(statuses[0].fast_burn, 300.0 / 3000.0 / budget, 1e-9);
  EXPECT_NEAR(statuses[0].slow_burn, 1801.0 / 36000.0 / budget, 1e-9);
  EXPECT_NEAR(statuses[1].fast_burn, 300.0 / 3000.0 / budget, 1e-9);
  EXPECT_NEAR(statuses[1].slow_burn, 1800.0 / 18000.0 / budget, 1e-9);
  EXPECT_EQ(statuses[0].total, 10 * (kEnd + 1));
}

TEST(SloEngine, EvaluateIfDueEvaluatesOncePerCadence) {
  MetricsRegistry registry;
  Counter& requests = registry.GetCounter("test.requests");
  SloDefinition def;
  def.name = "availability";
  def.kind = SloKind::kAvailability;
  def.metric = "test.requests";
  def.bad_metric = "test.bad";
  std::atomic<std::uint64_t> now{0};
  std::atomic<std::uint64_t> clock_reads{0};
  SloEngine engine({def}, &registry, [&] {
    clock_reads.fetch_add(1, std::memory_order_relaxed);
    return now.load(std::memory_order_relaxed);
  });
  const auto total = [&] { return engine.Snapshot()[0].total; };

  engine.EvaluateIfDue();  // a fresh engine is due
  requests.Add(5);
  for (int i = 0; i < 1000; ++i) {
    now += kSecond / 1000;  // a second of finalizes, all inside tick 0
    engine.EvaluateIfDue();
  }
  EXPECT_EQ(total(), 0u);
  now = SloEngine::kCadenceNs;
  engine.EvaluateIfDue();
  EXPECT_EQ(total(), 5u);
  requests.Add(5);
  engine.EvaluateIfDue();
  EXPECT_EQ(total(), 5u);
  engine.Evaluate();  // renders evaluate whatever the gate says
  EXPECT_EQ(total(), 10u);

  // Lanes finishing sessions together at a due time: one of them
  // evaluates. Each EvaluateIfDue reads the clock once, each Evaluate once
  // more.
  now = 5 * SloEngine::kCadenceNs;
  clock_reads = 0;
  constexpr int kThreads = 4;
  constexpr int kCalls = 1000;
  std::vector<std::thread> lanes;
  for (int t = 0; t < kThreads; ++t) {
    lanes.emplace_back([&] {
      for (int i = 0; i < kCalls; ++i) engine.EvaluateIfDue();
    });
  }
  for (std::thread& lane : lanes) lane.join();
  EXPECT_EQ(clock_reads.load(), kThreads * kCalls + 1u);
}

TEST(SloEngine, NoErrorBudgetBurnsAtAFiniteCap) {
  // Objective 1 leaves no budget, and a NaN objective none that makes
  // sense: every bad event burns at the cap, and the permille gauges hold
  // the cap instead of an undefined cast.
  for (const double objective :
       {1.0, std::numeric_limits<double>::quiet_NaN()}) {
    MetricsRegistry registry;
    Counter& requests = registry.GetCounter("test.requests");
    Counter& bad = registry.GetCounter("test.bad");
    SloDefinition def;
    def.name = "availability";
    def.kind = SloKind::kAvailability;
    def.metric = "test.requests";
    def.bad_metric = "test.bad";
    def.objective = objective;
    std::uint64_t now = 0;
    SloEngine engine({def}, &registry, [&] { return now; });
    engine.Evaluate();
    requests.Add(10);
    bad.Add(10);
    now = 10 * kSecond;
    engine.Evaluate();
    const SloStatus status = engine.Snapshot()[0];
    EXPECT_EQ(status.fast_burn, 1e9) << objective;
    EXPECT_EQ(status.slow_burn, 1e9) << objective;
    EXPECT_EQ(status.state, SloState::kBreach) << objective;
    EXPECT_EQ(registry.GetGauge("slo.availability.fast_burn_permille").Value(),
              1000000000000)
        << objective;
    EXPECT_EQ(registry.GetGauge("slo.availability.slow_burn_permille").Value(),
              1000000000000)
        << objective;
  }
}

TEST(SloEngine, ResolvedHandlesKeepTheExpositionValid) {
  // Resolving a definition registers its metrics, as for cache.hit and
  // cache.miss on a server with the cache off: they render as zero-valued
  // families and the exposition stays valid.
  MetricsRegistry registry;
  SloDefinition cache_rate;
  cache_rate.name = "cache_hit_rate";
  cache_rate.kind = SloKind::kRatioFloor;
  cache_rate.metric = "cache.hit";
  cache_rate.bad_metric = "cache.miss";
  cache_rate.objective = 0.05;
  std::uint64_t now = 0;
  SloEngine engine({cache_rate, LatencySlo()}, &registry, [&] { return now; });
  engine.Evaluate();
  const std::string text = RenderPrometheusText(registry);
  std::string error;
  std::map<std::string, double> samples;
  ASSERT_TRUE(ValidatePrometheusText(text, &error, &samples))
      << error << "\n" << text;
  EXPECT_EQ(samples.at("qdcbir_cache_hit"), 0.0);
  EXPECT_EQ(samples.at("qdcbir_cache_miss"), 0.0);
  EXPECT_EQ(samples.at("qdcbir_test_latency_count"), 0.0);
}

}  // namespace
}  // namespace obs
}  // namespace qdcbir
