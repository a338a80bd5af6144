#include "qdcbir/obs/slo.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "qdcbir/obs/metrics.h"

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

TEST(SloEngine, ZeroFloorHistogramSloNeverBurns) {
  MetricsRegistry registry;
  Histogram& jaccard = registry.GetHistogram("test.jaccard");
  SloDefinition def;
  def.name = "stability";
  def.kind = SloKind::kHistogramFloor;
  def.metric = "test.jaccard";
  def.threshold = 0.0;  // opt-out floor: exported but always ok
  def.objective = 0.5;
  std::uint64_t now = 0;
  SloEngine engine({def}, &registry, [&] { return now; });
  engine.Evaluate();
  for (int i = 0; i < 20; ++i) jaccard.Record(0);  // worst possible overlap
  now = 10 * kSecond;
  engine.Evaluate();
  EXPECT_EQ(engine.WorstState(), SloState::kOk);
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
  floor.name = "stability";
  floor.kind = SloKind::kHistogramFloor;
  floor.metric = "test.jaccard";
  SloEngine engine({LatencySlo(), floor}, &registry, [&] { return now; });
  engine.Evaluate();
  const std::string json = engine.RenderJson();
  EXPECT_NE(json.find("\"slos\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"latency\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stability\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"latency_quantile\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"histogram_floor\""), std::string::npos);
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
  // A burst of evaluations inside one second keeps one sample for the
  // burst, so a window that starts inside the burst takes its baseline
  // from the sample before it: less than a second earlier, never more.
  MetricsRegistry registry;
  Counter& requests = registry.GetCounter("test.requests");
  Counter& bad = registry.GetCounter("test.bad");
  SloDefinition def;
  def.name = "availability";
  def.kind = SloKind::kAvailability;
  def.metric = "test.requests";
  def.bad_metric = "test.bad";
  def.objective = 0.9;
  def.fast_window_ns = 10 * kSecond;
  std::uint64_t now = 0;
  SloEngine engine({def}, &registry, [&] { return now; });
  engine.Evaluate();

  // 50 bad requests more than a second before the fast window opens.
  requests.Add(50);
  bad.Add(50);
  now = 2 * kSecond;
  engine.Evaluate();
  // Nine bad requests, one per evaluation, 0.1 s apart.
  for (int i = 1; i <= 9; ++i) {
    requests.Add();
    bad.Add();
    now = 2 * kSecond + static_cast<std::uint64_t>(i) * kSecond / 10;
    engine.Evaluate();
  }
  requests.Add(100);
  now = 3 * kSecond + kSecond / 2;
  engine.Evaluate();

  // The fast window opens at 2.5 s. Its baseline is the 2 s sample, so all
  // nine burst requests count and the 50 before it do not: 9 bad of 109
  // over a 10% budget. (Keeping every sample would count 4 of 104; a
  // baseline before 2 s would count 59 of 159.)
  now = 12 * kSecond + kSecond / 2;
  engine.Evaluate();
  EXPECT_NEAR(engine.Snapshot()[0].fast_burn, 9.0 / 109.0 / 0.1, 1e-9);
}

}  // namespace
}  // namespace obs
}  // namespace qdcbir
