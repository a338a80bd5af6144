#ifndef QDCBIR_OBS_SLO_H_
#define QDCBIR_OBS_SLO_H_

/// \file
/// In-process SLO engine: declarative objectives evaluated over sliding
/// multi-window burn rates (fast/slow window à la the SRE workbook).
///
/// An SLO reduces every source — latency histograms, availability counters,
/// hit-rate counter pairs — to a cumulative (good, total) event pair. The engine resolves each definition's metrics
/// to `Histogram&` / `Counter&` handles once, at construction (registering
/// any that do not exist yet), so an evaluation reads those handles and
/// never snapshots the registry. Each `Evaluate` call records the pair in a
/// per-SLO ring of `kCadenceNs` ticks; burn rate over a window is the bad
/// fraction of the window's event delta divided by the error budget
/// (1 - objective). The state machine follows the multi-window alerting
/// pattern: *breach* when both the fast and slow windows burn above their
/// thresholds (the fast window confirms the problem is still happening),
/// *warn* when only one does, *ok* otherwise.
///
/// Evaluation is pull-driven — the serve layer calls `Evaluate` from the
/// `/metrics`, `/sloz`, and `/statusz` handlers, and `EvaluateIfDue` after
/// each session finalize, which evaluates at most once per cadence — and
/// publishes `slo.<name>.{state,fast_burn_permille,slow_burn_permille}`
/// gauges (rendered as `qdcbir_slo_*` on `/metrics`). Between renders the
/// state and gauges may be up to one cadence old. State transitions emit
/// rate-limited `/logz` entries. The clock is injectable so tests can drive
/// window arithmetic deterministically.

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "qdcbir/obs/metrics.h"

namespace qdcbir {
namespace obs {

/// How an SLO's (good, total) event pair is derived from the registry.
enum class SloKind {
  /// `metric` is a histogram; an event is good when its value is at or
  /// below `threshold` (e.g. session latency under the target). The
  /// objective says what fraction must be good — a latency-percentile
  /// target expressed in burn-rate form.
  kLatencyQuantile,
  /// `metric` counts all events, `bad_metric` the failed ones;
  /// good = total - bad (e.g. HTTP requests vs malformed requests).
  kAvailability,
  /// `metric` counts good events, `bad_metric` the complementary misses;
  /// total = good + bad (e.g. cache hits vs misses).
  kRatioFloor,
};

const char* SloKindName(SloKind kind);

enum class SloState : std::int64_t { kOk = 0, kWarn = 1, kBreach = 2 };

const char* SloStateName(SloState state);

struct SloDefinition {
  std::string name;  ///< metric-safe slug, e.g. "session_latency_p95"
  SloKind kind = SloKind::kLatencyQuantile;
  std::string metric;      ///< histogram or total/good counter (see kind)
  std::string bad_metric;  ///< bad/miss counter for the counter kinds
  /// Good-value cut of kLatencyQuantile: an event is good at or below it.
  double threshold = 0.0;
  double objective = 0.99;  ///< required good fraction (error budget = 1-o)
  std::uint64_t fast_window_ns = 300ull * 1000 * 1000 * 1000;    ///< 5 min
  std::uint64_t slow_window_ns = 3600ull * 1000 * 1000 * 1000;   ///< 1 h
  double fast_burn_threshold = 14.4;  ///< SRE workbook page threshold
  double slow_burn_threshold = 6.0;
};

/// Evaluated status of one SLO, for `/sloz` and `/statusz`.
struct SloStatus {
  std::string name;
  SloKind kind = SloKind::kLatencyQuantile;
  SloState state = SloState::kOk;
  double objective = 0.0;
  double threshold = 0.0;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  std::uint64_t good = 0;   ///< cumulative good events at last evaluation
  std::uint64_t total = 0;  ///< cumulative total events at last evaluation
};

class SloEngine {
 public:
  using Clock = std::function<std::uint64_t()>;

  /// Width of one window-ring slot, and the most often `EvaluateIfDue`
  /// evaluates. A window's baseline is the first reading of the tick
  /// `window / kCadenceNs` ticks back, so window edges move by less than one
  /// cadence.
  static constexpr std::uint64_t kCadenceNs = 10ull * 1000 * 1000 * 1000;

  /// `registry` defaults to the process-global one; tests pass their own
  /// registry and clock to drive breaches deterministically.
  explicit SloEngine(std::vector<SloDefinition> definitions,
                     MetricsRegistry* registry = nullptr,
                     Clock clock = nullptr);

  /// Reads every SLO's metric handles, advances the burn-rate windows,
  /// updates states, publishes the `slo.*` gauges, and logs transitions.
  /// Thread-safe.
  void Evaluate();

  /// `Evaluate`, unless this engine already evaluated through here in the
  /// current cadence tick: one clock read and compare when not due, so the
  /// per-session path pays nothing for SLOs between ticks. Thread-safe.
  void EvaluateIfDue();

  /// Current status per SLO (does not re-evaluate).
  std::vector<SloStatus> Snapshot() const;

  /// `/sloz` document: `{"slos":[{...}]}`.
  std::string RenderJson() const;

  /// Worst state across all SLOs, for the `/statusz` row.
  SloState WorstState() const;

  std::size_t definition_count() const { return slos_.size(); }

  /// Slots of an SLO's window ring: its longer window over the cadence,
  /// plus the newest tick's slot. Fixed at construction.
  std::size_t ring_slots(std::size_t slo) const {
    return slos_[slo].ring.size();
  }

 private:
  struct Reading {
    std::uint64_t good = 0;
    std::uint64_t total = 0;
  };
  struct TrackedSlo {
    SloDefinition def;
    /// The handles `def` names; null for an empty name (reads as 0).
    Histogram* histogram = nullptr;
    Counter* counter = nullptr;
    Counter* bad_counter = nullptr;
    /// Slot `tick % ring.size()` holds the first reading taken in `tick`;
    /// ticks with no reading carry the reading before them. Valid ticks are
    /// [oldest_tick, newest_tick] while `primed`.
    std::vector<Reading> ring;
    bool primed = false;
    std::uint64_t oldest_tick = 0;
    std::uint64_t newest_tick = 0;
    /// The latest reading, kept apart from its tick's slot.
    Reading newest;
    std::uint64_t newest_ns = 0;
    SloState state = SloState::kOk;
    double fast_burn = 0.0;
    double slow_burn = 0.0;
    Gauge* state_gauge = nullptr;
    Gauge* fast_gauge = nullptr;
    Gauge* slow_gauge = nullptr;
  };

  static Reading Read(const TrackedSlo& slo);
  static void Record(TrackedSlo& slo, Reading reading, std::uint64_t now_ns);
  static double BurnOver(const TrackedSlo& slo, std::uint64_t window_ns);

  MetricsRegistry* registry_;
  Clock clock_;
  /// Clock reading from which `EvaluateIfDue` evaluates again: the start of
  /// the tick after its last evaluation.
  std::atomic<std::uint64_t> next_due_ns_{0};
  mutable std::mutex mu_;
  std::vector<TrackedSlo> slos_;
};

}  // namespace obs
}  // namespace qdcbir

#endif  // QDCBIR_OBS_SLO_H_
