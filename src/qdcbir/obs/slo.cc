#include "qdcbir/obs/slo.h"

#include <algorithm>
#include <tuple>

#include "qdcbir/obs/clock.h"
#include "qdcbir/obs/json.h"
#include "qdcbir/obs/log.h"

namespace qdcbir {
namespace obs {

namespace {

/// Cap on a burn rate. A budget of zero burns "infinitely" on one bad
/// event, and the permille gauges cast the burn to an integer, which must
/// stay finite and in range.
constexpr double kMaxBurn = 1e9;

}  // namespace

const char* SloKindName(SloKind kind) {
  switch (kind) {
    case SloKind::kLatencyQuantile: return "latency_quantile";
    case SloKind::kAvailability: return "availability";
    case SloKind::kRatioFloor: return "ratio_floor";
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
    const SloDefinition& d = tracked.def;
    if (!d.metric.empty()) {
      if (d.kind == SloKind::kLatencyQuantile) {
        tracked.histogram = &registry_->GetHistogram(d.metric);
      } else {
        tracked.counter = &registry_->GetCounter(d.metric);
      }
    }
    if (!d.bad_metric.empty() && (d.kind == SloKind::kAvailability ||
                                  d.kind == SloKind::kRatioFloor)) {
      tracked.bad_counter = &registry_->GetCounter(d.bad_metric);
    }
    tracked.ring.resize(
        std::max(d.fast_window_ns, d.slow_window_ns) / kCadenceNs + 1);
    const std::string base = "slo." + d.name;
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

SloEngine::Reading SloEngine::Read(const TrackedSlo& slo) {
  const auto value = [](const Counter* counter) -> std::uint64_t {
    return counter != nullptr ? counter->Value() : 0;
  };
  Reading reading;
  switch (slo.def.kind) {
    case SloKind::kLatencyQuantile:
      // (events at or below the threshold, all events). The HDR buckets
      // quantize the cut to the last bucket upper bound at or below the
      // threshold (≤ ~6% value error, as for the percentile readouts).
      if (slo.histogram != nullptr) {
        std::tie(reading.good, reading.total) =
            slo.histogram->CountAtOrBelow(slo.def.threshold);
      }
      break;
    case SloKind::kAvailability: {
      reading.total = value(slo.counter);
      const std::uint64_t bad = value(slo.bad_counter);
      reading.good = reading.total > bad ? reading.total - bad : 0;
      break;
    }
    case SloKind::kRatioFloor:
      reading.good = value(slo.counter);
      reading.total = reading.good + value(slo.bad_counter);
      break;
  }
  return reading;
}

void SloEngine::Record(TrackedSlo& slo, Reading reading,
                       std::uint64_t now_ns) {
  // Monotonic guard: a clock hiccup or reset registry must not make the
  // window deltas go negative, so the ring restarts.
  if (slo.primed &&
      (now_ns < slo.newest_ns || reading.total < slo.newest.total ||
       reading.good < slo.newest.good)) {
    slo.primed = false;
  }
  const std::uint64_t slots = slo.ring.size();
  const std::uint64_t tick = now_ns / kCadenceNs;
  if (!slo.primed) {
    slo.primed = true;
    slo.oldest_tick = tick;
    slo.ring[tick % slots] = reading;
  } else if (tick > slo.newest_tick) {
    // Ticks without a reading carry the last one forward; past a full lap
    // every slot is overwritten, so at most `slots` writes happen.
    const std::uint64_t lap_start = tick >= slots ? tick - slots + 1 : 0;
    for (std::uint64_t t = std::max(slo.newest_tick + 1, lap_start); t < tick;
         ++t) {
      slo.ring[t % slots] = slo.newest;
    }
    slo.ring[tick % slots] = reading;
    slo.oldest_tick = std::max(slo.oldest_tick, lap_start);
  }
  slo.newest_tick = tick;
  slo.newest = reading;
  slo.newest_ns = now_ns;
}

double SloEngine::BurnOver(const TrackedSlo& slo, std::uint64_t window_ns) {
  // Baseline: the slot `window / cadence` ticks back, found by index; when
  // the ring does not reach back that far, the oldest slot (a partial
  // window).
  const std::uint64_t back = window_ns / kCadenceNs;
  const std::uint64_t tick =
      slo.newest_tick - std::min(back, slo.newest_tick - slo.oldest_tick);
  const Reading& baseline = slo.ring[tick % slo.ring.size()];
  const std::uint64_t total = slo.newest.total - baseline.total;
  if (total == 0) return 0.0;
  const std::uint64_t good = slo.newest.good - baseline.good;
  const double bad_fraction =
      static_cast<double>(total - good) / static_cast<double>(total);
  const double budget = 1.0 - slo.def.objective;
  // An objective of 1 (or above 1, or NaN) leaves no budget: any bad event
  // burns at the cap.
  if (!(budget > 0.0)) return bad_fraction > 0.0 ? kMaxBurn : 0.0;
  return std::min(bad_fraction / budget, kMaxBurn);
}

void SloEngine::Evaluate() {
  // The clock reading and the handle reads happen under the lock: callers
  // racing here (a render and a due finalize) then record readings in time
  // order with non-decreasing counts, and the monotonic guard only fires on
  // a real clock or registry reset.
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t now_ns = clock_();
  for (TrackedSlo& slo : slos_) {
    Record(slo, Read(slo), now_ns);
    slo.fast_burn = BurnOver(slo, slo.def.fast_window_ns);
    slo.slow_burn = BurnOver(slo, slo.def.slow_window_ns);
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

void SloEngine::EvaluateIfDue() {
  const std::uint64_t now_ns = clock_();
  std::uint64_t due = next_due_ns_.load(std::memory_order_relaxed);
  if (now_ns < due) return;
  // Of the callers that find the engine due, the one whose CAS moves the
  // due time to the next tick evaluates; the others return.
  const std::uint64_t next = (now_ns / kCadenceNs + 1) * kCadenceNs;
  if (!next_due_ns_.compare_exchange_strong(due, next,
                                            std::memory_order_relaxed)) {
    return;
  }
  Evaluate();
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
    status.good = slo.newest.good;
    status.total = slo.newest.total;
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
