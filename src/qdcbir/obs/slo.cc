#include "qdcbir/obs/slo.h"

#include <algorithm>

#include "qdcbir/obs/clock.h"
#include "qdcbir/obs/json.h"
#include "qdcbir/obs/log.h"

namespace qdcbir {
namespace obs {

namespace {

/// Window-sample resolution: one second against 5 min / 1 h windows.
constexpr std::uint64_t kSampleSpacingNs = 1000ull * 1000 * 1000;

std::uint64_t CounterValue(const MetricsRegistry::RegistrySnapshot& snap,
                           const std::string& name) {
  for (const auto& [counter, value] : snap.counters) {
    if (counter == name) return value;
  }
  return 0;
}

/// (good, total) from a histogram's cumulative buckets: events at or below
/// `threshold` are good. The HDR buckets quantize the cut to the first
/// upper bound at/above the threshold (≤ ~6% value error, same as the
/// percentile readouts).
std::pair<std::uint64_t, std::uint64_t> HistogramGoodAtOrBelow(
    const MetricsRegistry::RegistrySnapshot& snap, const std::string& name,
    double threshold) {
  for (const auto& [hist, buckets] : snap.histogram_buckets) {
    if (hist != name) continue;
    std::uint64_t good = 0;
    std::uint64_t total = 0;
    for (const auto& [upper, cumulative] : buckets) {
      total = cumulative;
      if (static_cast<double>(upper) <= threshold) good = cumulative;
    }
    // Threshold beyond the last finite bound: everything recorded is good.
    if (!buckets.empty() &&
        threshold >= static_cast<double>(buckets.back().first)) {
      good = total;
    }
    return {good, total};
  }
  return {0, 0};
}

}  // namespace

const char* SloKindName(SloKind kind) {
  switch (kind) {
    case SloKind::kLatencyQuantile: return "latency_quantile";
    case SloKind::kAvailability: return "availability";
    case SloKind::kRatioFloor: return "ratio_floor";
    case SloKind::kHistogramFloor: return "histogram_floor";
  }
  return "unknown";
}

const char* SloStateName(SloState state) {
  switch (state) {
    case SloState::kOk: return "ok";
    case SloState::kWarn: return "warn";
    case SloState::kBreach: return "breach";
  }
  return "unknown";
}

SloEngine::SloEngine(std::vector<SloDefinition> definitions,
                     MetricsRegistry* registry, Clock clock)
    : registry_(registry != nullptr ? registry : &MetricsRegistry::Global()),
      clock_(clock != nullptr ? std::move(clock) : [] {
        return MonotonicNanos();
      }) {
  slos_.reserve(definitions.size());
  for (SloDefinition& def : definitions) {
    TrackedSlo tracked;
    tracked.def = std::move(def);
    const std::string base = "slo." + tracked.def.name;
    tracked.state_gauge = &registry_->GetGauge(
        base + ".state", "SLO state: 0 ok, 1 warn, 2 breach");
    tracked.fast_gauge = &registry_->GetGauge(
        base + ".fast_burn_permille",
        "Error-budget burn rate over the fast window, x1000");
    tracked.slow_gauge = &registry_->GetGauge(
        base + ".slow_burn_permille",
        "Error-budget burn rate over the slow window, x1000");
    // Gauges exist (value 0 = ok) from construction so `/metrics` exposes
    // every qdcbir_slo_* family before the first evaluation.
    tracked.state_gauge->Set(0);
    tracked.fast_gauge->Set(0);
    tracked.slow_gauge->Set(0);
    slos_.push_back(std::move(tracked));
  }
}

SloEngine::WindowSample SloEngine::Sample(
    const MetricsRegistry::RegistrySnapshot& snap, const SloDefinition& def,
    std::uint64_t now_ns) const {
  WindowSample sample;
  sample.at_ns = now_ns;
  switch (def.kind) {
    case SloKind::kLatencyQuantile: {
      const auto [good, total] =
          HistogramGoodAtOrBelow(snap, def.metric, def.threshold);
      sample.good = good;
      sample.total = total;
      break;
    }
    case SloKind::kAvailability: {
      sample.total = CounterValue(snap, def.metric);
      const std::uint64_t bad = CounterValue(snap, def.bad_metric);
      sample.good = sample.total > bad ? sample.total - bad : 0;
      break;
    }
    case SloKind::kRatioFloor: {
      sample.good = CounterValue(snap, def.metric);
      sample.total = sample.good + CounterValue(snap, def.bad_metric);
      break;
    }
    case SloKind::kHistogramFloor: {
      const auto [at_or_below, total] =
          HistogramGoodAtOrBelow(snap, def.metric, def.threshold);
      // good = strictly above the floor; a non-positive floor accepts
      // everything (exported but never burning — opt-in floors).
      sample.good = def.threshold <= 0.0 ? total : total - at_or_below;
      sample.total = total;
      break;
    }
  }
  return sample;
}

double SloEngine::BurnOver(const TrackedSlo& slo, std::uint64_t now_ns,
                           std::uint64_t window_ns) {
  if (slo.samples.size() < 2) return 0.0;
  const WindowSample& newest = slo.samples.back();
  // Baseline: the latest sample at or before the window start; when the
  // ring does not reach back that far, the oldest sample (partial window).
  const std::uint64_t start_ns =
      now_ns > window_ns ? now_ns - window_ns : 0;
  const WindowSample* baseline = &slo.samples.front();
  for (const WindowSample& sample : slo.samples) {
    if (sample.at_ns > start_ns) break;
    baseline = &sample;
  }
  if (baseline == &newest) return 0.0;
  const std::uint64_t total = newest.total - baseline->total;
  if (total == 0) return 0.0;
  const std::uint64_t good = newest.good - baseline->good;
  const double bad_fraction =
      static_cast<double>(total - good) / static_cast<double>(total);
  const double budget = 1.0 - slo.def.objective;
  if (budget <= 0.0) return bad_fraction > 0.0 ? 1e9 : 0.0;
  return bad_fraction / budget;
}

void SloEngine::Evaluate() {
  // The clock reading and the snapshot are taken under the lock: callers
  // racing here (sessions finishing on several lanes) then append samples
  // in time order with non-decreasing counts, and the monotonic guard
  // below only fires on a real clock or registry reset.
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t now_ns = clock_();
  const MetricsRegistry::RegistrySnapshot snap = registry_->Snapshot();
  for (TrackedSlo& slo : slos_) {
    const WindowSample sample = Sample(snap, slo.def, now_ns);
    // Monotonic guard: a clock hiccup or reset registry must not make the
    // window deltas go negative.
    if (!slo.samples.empty() &&
        (sample.at_ns < slo.samples.back().at_ns ||
         sample.total < slo.samples.back().total ||
         sample.good < slo.samples.back().good)) {
      slo.samples.clear();
    }
    // At most two samples per kSampleSpacingNs: a sample that lands within
    // the spacing of the one before the newest replaces the newest. The
    // newest reading stays exact, a window's baseline moves by less than
    // the spacing, and a busy server no longer grows the vector by one
    // sample per finalize.
    const std::size_t n = slo.samples.size();
    if (n >= 2 && sample.at_ns - slo.samples[n - 2].at_ns < kSampleSpacingNs) {
      slo.samples.back() = sample;
    } else {
      slo.samples.push_back(sample);
    }
    // Prune to the slow window, keeping one baseline sample beyond it.
    const std::uint64_t horizon =
        now_ns > slo.def.slow_window_ns ? now_ns - slo.def.slow_window_ns : 0;
    std::size_t keep_from = 0;
    while (keep_from + 1 < slo.samples.size() &&
           slo.samples[keep_from + 1].at_ns <= horizon) {
      ++keep_from;
    }
    if (keep_from > 0) {
      slo.samples.erase(slo.samples.begin(),
                        slo.samples.begin() + static_cast<long>(keep_from));
    }

    slo.good = sample.good;
    slo.total = sample.total;
    slo.fast_burn = BurnOver(slo, now_ns, slo.def.fast_window_ns);
    slo.slow_burn = BurnOver(slo, now_ns, slo.def.slow_window_ns);
    const bool fast_hot = slo.fast_burn >= slo.def.fast_burn_threshold;
    const bool slow_hot = slo.slow_burn >= slo.def.slow_burn_threshold;
    const SloState next = fast_hot && slow_hot ? SloState::kBreach
                          : fast_hot || slow_hot ? SloState::kWarn
                                                 : SloState::kOk;
    if (next != slo.state) {
      if (next > slo.state) {
        QDCBIR_LOG(obs::LogLevel::kWarn,
                   "slo " + slo.def.name + " " + SloStateName(slo.state) +
                       " -> " + SloStateName(next));
      } else {
        QDCBIR_LOG(obs::LogLevel::kInfo,
                   "slo " + slo.def.name + " recovered: " +
                       SloStateName(slo.state) + " -> " + SloStateName(next));
      }
      slo.state = next;
    }
    slo.state_gauge->Set(static_cast<std::int64_t>(slo.state));
    slo.fast_gauge->Set(static_cast<std::int64_t>(slo.fast_burn * 1000.0));
    slo.slow_gauge->Set(static_cast<std::int64_t>(slo.slow_burn * 1000.0));
  }
}

std::vector<SloStatus> SloEngine::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SloStatus> out;
  out.reserve(slos_.size());
  for (const TrackedSlo& slo : slos_) {
    SloStatus status;
    status.name = slo.def.name;
    status.kind = slo.def.kind;
    status.state = slo.state;
    status.objective = slo.def.objective;
    status.threshold = slo.def.threshold;
    status.fast_burn = slo.fast_burn;
    status.slow_burn = slo.slow_burn;
    status.good = slo.good;
    status.total = slo.total;
    out.push_back(std::move(status));
  }
  return out;
}

std::string SloEngine::RenderJson() const {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("slos").BeginArray();
  for (const SloStatus& status : Snapshot()) {
    w.BeginObject();
    w.Key("name").String(status.name);
    w.Key("kind").String(SloKindName(status.kind));
    w.Key("state").String(SloStateName(status.state));
    w.Key("objective").Double(status.objective, "%.6g");
    w.Key("threshold").Double(status.threshold, "%.6g");
    w.Key("fast_burn").Double(status.fast_burn, "%.6g");
    w.Key("slow_burn").Double(status.slow_burn, "%.6g");
    w.Key("good").Uint(status.good);
    w.Key("total").Uint(status.total);
    w.EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

SloState SloEngine::WorstState() const {
  std::lock_guard<std::mutex> lock(mu_);
  SloState worst = SloState::kOk;
  for (const TrackedSlo& slo : slos_) {
    worst = std::max(worst, slo.state);
  }
  return worst;
}

}  // namespace obs
}  // namespace qdcbir
