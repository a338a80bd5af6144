#include "qdcbir/obs/timeseries.h"

#include <algorithm>
#include <chrono>

#include "qdcbir/obs/clock.h"
#include "qdcbir/obs/json.h"

namespace qdcbir {
namespace obs {

FlightRecorder::FlightRecorder(Options options, MetricsRegistry* registry,
                               Clock clock)
    : options_(options),
      registry_(registry != nullptr ? registry : &MetricsRegistry::Global()),
      clock_(clock != nullptr ? std::move(clock) : [] {
        return MonotonicNanos();
      }),
      // Registered up front so the very first sample already contains the
      // self-accounting families (and /metrics shows them at zero).
      samples_counter_(registry_->GetCounter(
          "history.samples.taken", "Flight-recorder registry samples taken.")),
      dropped_counter_(registry_->GetCounter(
          "history.series.dropped",
          "Metrics the flight recorder could not track (name table full).")),
      events_counter_(registry_->GetCounter(
          "history.events.marked",
          "Event marks pinned into the flight-recorder ring.")) {
  ring_.resize(options_.capacity == 0 ? 1 : options_.capacity);
  events_.resize(options_.max_events == 0 ? 1 : options_.max_events);
}

FlightRecorder::~FlightRecorder() { Stop(); }

void FlightRecorder::Start() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (sampler_.joinable()) return;
  stopping_ = false;
  sampler_ = std::thread([this] { BackgroundLoop(); });
}

void FlightRecorder::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    stopping_ = true;
  }
  thread_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
}

void FlightRecorder::BackgroundLoop() {
  std::unique_lock<std::mutex> lock(thread_mu_);
  // Sample-then-wait (not wait-then-sample): every Start/Stop cycle records
  // at least one sample even if Stop lands before the thread is scheduled.
  do {
    lock.unlock();
    SampleNow();
    lock.lock();
    thread_cv_.wait_for(lock, std::chrono::nanoseconds(options_.interval_ns),
                        [this] { return stopping_; });
  } while (!stopping_);
}

std::size_t FlightRecorder::SeriesIdLocked(const std::string& name,
                                           bool is_counter) {
  auto it = series_ids_.find(name);
  if (it != series_ids_.end()) return it->second;
  if (series_names_.size() >= options_.max_series) {
    ++series_dropped_;
    return options_.max_series;  // sentinel: untracked
  }
  const std::size_t id = series_names_.size();
  series_ids_.emplace(name, id);
  series_names_.push_back(name);
  series_is_counter_.push_back(is_counter);
  return id;
}

void FlightRecorder::SampleNow() {
  std::uint64_t dropped_delta = 0;
  {
    // The clock reading and the registry reads are taken under the lock,
    // so concurrent callers (the sampler thread and the slow-trace hook)
    // append samples in time order and each sample's values are at least
    // those of the one before it. Only counters and gauges are read: no
    // histogram is merged.
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t dropped_before = series_dropped_;
    Sample& slot = ring_[ring_head_];
    slot.values.assign(series_names_.size(), 0.0);
    const auto record = [&](std::size_t id, double value) {
      if (id >= options_.max_series) return;
      if (id >= slot.values.size()) slot.values.resize(id + 1, 0.0);
      slot.values[id] = value;
    };
    registry_->VisitCountersAndGauges(
        [&](const std::string& name, std::uint64_t value) {
          record(SeriesIdLocked(name, /*is_counter=*/true),
                 static_cast<double>(value));
        },
        [&](const std::string& name, std::int64_t value) {
          record(SeriesIdLocked(name, /*is_counter=*/false),
                 static_cast<double>(value));
        });
    slot.t_ns = clock_();
    ring_head_ = (ring_head_ + 1) % ring_.size();
    if (ring_size_ < ring_.size()) ++ring_size_;
    ++samples_taken_;
    dropped_delta = series_dropped_ - dropped_before;
  }

  // Registry ticks happen outside mu_; the next sample picks them up.
  samples_counter_.Add(1);
  if (dropped_delta > 0) dropped_counter_.Add(dropped_delta);
}

void FlightRecorder::MarkEvent(const std::string& label) {
  const std::uint64_t now_ns = clock_();
  {
    std::lock_guard<std::mutex> lock(mu_);
    EventMark& slot = events_[events_head_];
    slot.t_ns = now_ns;
    slot.label = label;
    events_head_ = (events_head_ + 1) % events_.size();
    if (events_size_ < events_.size()) ++events_size_;
  }
  events_counter_.Add(1);
}

FlightRecorder::Series FlightRecorder::Query(const std::string& metric,
                                             std::uint64_t window_ns) const {
  Series series;
  series.name = metric;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = series_ids_.find(metric);
  if (it == series_ids_.end()) return series;
  series.known = true;
  series.is_counter = series_is_counter_[it->second];
  const std::size_t id = it->second;

  // Ring slots oldest-first.
  const std::size_t oldest =
      (ring_head_ + ring_.size() - ring_size_) % ring_.size();
  std::uint64_t newest_t = 0;
  for (std::size_t i = 0; i < ring_size_; ++i) {
    const Sample& sample = ring_[(oldest + i) % ring_.size()];
    if (id < sample.values.size()) newest_t = sample.t_ns;
  }
  const std::uint64_t cutoff =
      (window_ns == 0 || newest_t < window_ns) ? 0 : newest_t - window_ns;

  bool have_prev = false;
  double prev_value = 0.0;
  std::uint64_t prev_t = 0;
  for (std::size_t i = 0; i < ring_size_; ++i) {
    const Sample& sample = ring_[(oldest + i) % ring_.size()];
    if (id >= sample.values.size()) continue;
    const double value = sample.values[id];
    if (sample.t_ns >= cutoff) {
      Point point;
      point.t_ns = sample.t_ns;
      point.value = value;
      if (have_prev) {
        double delta = value - prev_value;
        if (series.is_counter && delta < 0) delta = value;  // reset
        point.delta = delta;
        const std::uint64_t dt = sample.t_ns - prev_t;
        point.rate = dt == 0 ? 0.0 : delta * 1e9 / static_cast<double>(dt);
      }
      series.points.push_back(point);
    }
    have_prev = true;
    prev_value = value;
    prev_t = sample.t_ns;
  }
  return series;
}

std::vector<std::string> FlightRecorder::SeriesNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names = series_names_;
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<FlightRecorder::EventMark> FlightRecorder::Events(
    std::uint64_t window_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<EventMark> marks;
  const std::size_t oldest =
      (events_head_ + events_.size() - events_size_) % events_.size();
  std::uint64_t newest_t = 0;
  for (std::size_t i = 0; i < events_size_; ++i) {
    newest_t = std::max(newest_t,
                        events_[(oldest + i) % events_.size()].t_ns);
  }
  const std::uint64_t cutoff =
      (window_ns == 0 || newest_t < window_ns) ? 0 : newest_t - window_ns;
  for (std::size_t i = 0; i < events_size_; ++i) {
    const EventMark& mark = events_[(oldest + i) % events_.size()];
    if (mark.t_ns >= cutoff) marks.push_back(mark);
  }
  return marks;
}

std::string FlightRecorder::RenderJson(const std::string& metric,
                                       std::uint64_t window_ns) const {
  const Series series = Query(metric, window_ns);
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("metric").String(metric);
  w.Key("known").Bool(series.known);
  if (series.known) {
    w.Key("type").String(series.is_counter ? "counter" : "gauge");
  }
  w.Key("interval_ms").Uint(options_.interval_ns / 1000000ull);
  w.Key("window_ns").Uint(window_ns);
  w.Key("points").BeginArray();
  for (const Point& point : series.points) {
    w.BeginObject();
    w.Key("t_ns").Uint(point.t_ns);
    w.Key("value").Number(point.value, "%.6g");
    w.Key("delta").Number(point.delta, "%.6g");
    w.Key("rate").Number(point.rate, "%.6g");
    w.EndObject();
  }
  w.EndArray();
  w.Key("events").BeginArray();
  for (const EventMark& mark : Events(window_ns)) {
    w.BeginObject();
    w.Key("t_ns").Uint(mark.t_ns);
    w.Key("label").String(mark.label);
    w.EndObject();
  }
  w.EndArray();
  if (!series.known) {
    w.Key("series").BeginArray();
    for (const std::string& name : SeriesNames()) w.String(name);
    w.EndArray();
  }
  w.Key("samples_taken").Uint(samples_taken());
  w.Key("series_dropped").Uint(series_dropped());
  w.EndObject();
  return out;
}

std::uint64_t FlightRecorder::samples_taken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_taken_;
}

std::uint64_t FlightRecorder::series_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_dropped_;
}

}  // namespace obs
}  // namespace qdcbir
