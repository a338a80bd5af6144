#include "qdcbir/obs/metrics.h"

#include <bit>

namespace qdcbir {
namespace obs {

std::size_t Histogram::BucketOf(std::uint64_t value) {
  if (value < kSubBuckets) return static_cast<std::size_t>(value);
  const std::size_t msb = 63 - static_cast<std::size_t>(std::countl_zero(value));
  const std::size_t shift = msb - kSubBits;
  const std::size_t sub =
      static_cast<std::size_t>(value >> shift) - kSubBuckets;
  return (msb - kSubBits + 1) * kSubBuckets + sub;
}

double Histogram::BucketMidpoint(std::size_t bucket) {
  if (bucket < kSubBuckets) return static_cast<double>(bucket);
  const std::size_t octave = bucket / kSubBuckets;  // >= 1
  const std::size_t sub = bucket % kSubBuckets;
  const std::size_t shift = octave - 1;
  const double lower =
      static_cast<double>((kSubBuckets + sub)) * static_cast<double>(
          std::uint64_t{1} << shift);
  const double width = static_cast<double>(std::uint64_t{1} << shift);
  return lower + width / 2.0;
}

std::uint64_t Histogram::BucketUpperBound(std::size_t bucket) {
  if (bucket < kSubBuckets) return static_cast<std::uint64_t>(bucket);
  const std::size_t octave = bucket / kSubBuckets;  // >= 1
  const std::size_t sub = bucket % kSubBuckets;
  const std::size_t shift = octave - 1;
  const std::uint64_t lower = (kSubBuckets + sub) << shift;
  const std::uint64_t width = std::uint64_t{1} << shift;
  return lower + width - 1;
}

Histogram::~Histogram() {
  for (std::atomic<Shard*>& slot : shards_) {
    delete slot.load(std::memory_order_relaxed);
  }
}

std::size_t Histogram::AllocatedShards() const {
  std::size_t n = 0;
  for (const std::atomic<Shard*>& slot : shards_) {
    if (slot.load(std::memory_order_acquire) != nullptr) ++n;
  }
  return n;
}

Histogram::Shard& Histogram::WriteShard() {
  std::atomic<Shard*>& slot = shards_[internal::ShardIndex(kShards)];
  Shard* shard = slot.load(std::memory_order_acquire);
  if (shard != nullptr) return *shard;
  // Threads sharing the slot may race to allocate it: one CAS publishes a
  // shard, and the losers free theirs and write into the winner's.
  Shard* fresh = new Shard();
  if (slot.compare_exchange_strong(shard, fresh, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return *fresh;
  }
  delete fresh;
  return *shard;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
Histogram::CumulativeBuckets() const {
  std::uint64_t merged[kNumBuckets] = {};
  for (const std::atomic<Shard*>& slot : shards_) {
    const Shard* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      merged[b] += shard->buckets[b].load(std::memory_order_relaxed);
    }
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    if (merged[b] == 0) continue;
    cumulative += merged[b];
    out.emplace_back(BucketUpperBound(b), cumulative);
  }
  return out;
}

void Histogram::Record(std::uint64_t value) {
  Shard& shard = WriteShard();
  shard.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = shard.min.load(std::memory_order_relaxed);
  while (value < seen && !shard.min.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
  seen = shard.max.load(std::memory_order_relaxed);
  while (value > seen && !shard.max.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::Snap() const {
  std::uint64_t merged[kNumBuckets] = {};
  Snapshot snap;
  snap.min = ~std::uint64_t{0};
  for (const std::atomic<Shard*>& slot : shards_) {
    const Shard* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      merged[b] += shard->buckets[b].load(std::memory_order_relaxed);
    }
    snap.count += shard->count.load(std::memory_order_relaxed);
    snap.sum += shard->sum.load(std::memory_order_relaxed);
    const std::uint64_t mn = shard->min.load(std::memory_order_relaxed);
    const std::uint64_t mx = shard->max.load(std::memory_order_relaxed);
    if (mn < snap.min) snap.min = mn;
    if (mx > snap.max) snap.max = mx;
  }
  if (snap.count == 0) {
    snap.min = 0;
    return snap;
  }

  const auto percentile = [&](double q) {
    // The value at rank ceil(q * count), reported as its bucket midpoint
    // clamped into the observed [min, max] range (so p100-ish quantiles of
    // tiny samples do not overshoot the true maximum).
    const std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(snap.count) + 0.5);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      seen += merged[b];
      if (seen >= rank && merged[b] > 0) {
        double v = BucketMidpoint(b);
        if (v < static_cast<double>(snap.min)) {
          v = static_cast<double>(snap.min);
        }
        if (v > static_cast<double>(snap.max)) {
          v = static_cast<double>(snap.max);
        }
        return v;
      }
    }
    return static_cast<double>(snap.max);
  };
  snap.p50 = percentile(0.50);
  snap.p90 = percentile(0.90);
  snap.p95 = percentile(0.95);
  snap.p99 = percentile(0.99);
  return snap;
}

void Histogram::Clear() {
  for (std::atomic<Shard*>& slot : shards_) {
    Shard* shard = slot.load(std::memory_order_acquire);
    if (shard == nullptr) continue;
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      shard->buckets[b].store(0, std::memory_order_relaxed);
    }
    shard->count.store(0, std::memory_order_relaxed);
    shard->sum.store(0, std::memory_order_relaxed);
    shard->min.store(~std::uint64_t{0}, std::memory_order_relaxed);
    shard->max.store(0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

namespace {

/// Unit inference from the repo's metric-naming convention
/// (docs/observability.md): `_ns` measures nanoseconds, `bytes` bytes.
std::string UnitOfName(const std::string& name) {
  if (name.size() >= 3 && name.compare(name.size() - 3, 3, "_ns") == 0) {
    return "nanoseconds";
  }
  if (name.find("bytes") != std::string::npos) return "bytes";
  return "";
}

}  // namespace

void MetricsRegistry::RecordMeta(const std::string& name, const char* help) {
  MetricMeta& meta = meta_[name];
  if (meta.unit.empty()) meta.unit = UnitOfName(name);
  if (meta.help.empty() && help != nullptr) meta.help = help;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const char* help) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordMeta(name, help);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name, const char* help) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordMeta(name, help);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const char* help) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordMeta(name, help);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

Histogram& MetricsRegistry::SpanHistogram(const char* span_name) {
  return GetHistogram(std::string("span.") + span_name,
                      "Wall time of the identically-named engine phase span");
}

void MetricsRegistry::RecordExemplar(const std::string& name,
                                     std::uint64_t value,
                                     const std::string& trace_id) {
  if (trace_id.empty()) return;
  const std::uint64_t le = Histogram::BucketUpperBound(
      Histogram::BucketOf(value));
  std::lock_guard<std::mutex> lock(mu_);
  exemplars_[name][le] = HistogramExemplar{value, le, trace_id};
}

MetricsRegistry::RegistrySnapshot MetricsRegistry::Snapshot() const {
  RegistrySnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->Value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name,
                             std::make_pair(gauge->Value(), gauge->Max()));
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace_back(name, histogram->Snap());
    snap.histogram_buckets.emplace_back(name, histogram->CumulativeBuckets());
  }
  snap.meta = meta_;
  for (const auto& [name, by_bucket] : exemplars_) {
    std::vector<HistogramExemplar>& list = snap.exemplars[name];
    list.reserve(by_bucket.size());
    for (const auto& [le, exemplar] : by_bucket) list.push_back(exemplar);
  }
  return snap;
}

std::string MetricsRegistry::SnapshotJson() const {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  WriteSnapshotFields(&w);
  w.EndObject();
  return out;
}

void MetricsRegistry::WriteSnapshotFields(JsonWriter* w) const {
  const RegistrySnapshot snap = Snapshot();
  w->Key("counters").BeginObject();
  for (const auto& [name, value] : snap.counters) w->Key(name).Uint(value);
  w->EndObject();
  w->Key("gauges").BeginObject();
  for (const auto& [name, value_max] : snap.gauges) {
    w->Key(name).BeginObject();
    w->Key("value").Int(value_max.first);
    w->Key("max").Int(value_max.second);
    w->EndObject();
  }
  w->EndObject();
  w->Key("histograms").BeginObject();
  for (const auto& [name, h] : snap.histograms) {
    w->Key(name).BeginObject();
    w->Key("count").Uint(h.count);
    w->Key("sum").Uint(h.sum);
    w->Key("min").Uint(h.min);
    w->Key("max").Uint(h.max);
    w->Key("mean").Double(h.mean(), "%.9g");
    w->Key("p50").Double(h.p50, "%.9g");
    w->Key("p90").Double(h.p90, "%.9g");
    w->Key("p95").Double(h.p95, "%.9g");
    w->Key("p99").Double(h.p99, "%.9g");
    w->EndObject();
  }
  w->EndObject();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Clear();
  for (auto& [name, gauge] : gauges_) gauge->Clear();
  for (auto& [name, histogram] : histograms_) histogram->Clear();
  exemplars_.clear();
}

}  // namespace obs
}  // namespace qdcbir
