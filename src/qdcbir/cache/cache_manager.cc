#include "qdcbir/cache/cache_manager.h"

#include <algorithm>
#include <utility>

#include "qdcbir/obs/metrics.h"

namespace qdcbir {
namespace cache {

namespace {

/// Process-wide cache observability. Totals plus per-kind hit/miss
/// families, exactly as listed in docs/observability.md; every CacheManager
/// instance in the process reports into the same registry families.
struct CacheMetrics {
  obs::Counter& hit;
  obs::Counter& miss;
  obs::Counter& evictions;
  obs::Counter& insertions;
  obs::Counter& rejected;
  obs::Counter& flushes;
  obs::Gauge& bytes;
  obs::Gauge& entries;
  obs::Counter* kind_hit[kNumCacheKinds];
  obs::Counter* kind_miss[kNumCacheKinds];

  static CacheMetrics& Get() {
    static CacheMetrics* metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      auto* m = new CacheMetrics{
          registry.GetCounter("cache.hit", "Cache lookups served from memory"),
          registry.GetCounter("cache.miss", "Cache lookups that missed"),
          registry.GetCounter("cache.evictions",
                              "Entries evicted under budget pressure"),
          registry.GetCounter("cache.insertions", "Entries inserted"),
          registry.GetCounter(
              "cache.insert.rejected",
              "Inserts refused (stale epoch or budget exhausted)"),
          registry.GetCounter("cache.invalidation.flushes",
                              "Epoch flushes (snapshot re-loads)"),
          registry.GetGauge("cache.bytes", "Live charged cache bytes"),
          registry.GetGauge("cache.entries", "Live cache entries"),
          {},
          {},
      };
      for (std::size_t k = 0; k < kNumCacheKinds; ++k) {
        const std::string name = CacheKindName(static_cast<CacheKind>(k));
        m->kind_hit[k] = &registry.GetCounter("cache." + name + ".hit",
                                              "Cache hits of this kind");
        m->kind_miss[k] = &registry.GetCounter("cache." + name + ".miss",
                                               "Cache misses of this kind");
      }
      return m;
    }();
    return *metrics;
  }
};

}  // namespace

const char* CacheKindName(CacheKind kind) {
  switch (kind) {
    case CacheKind::kLeafScan: return "leaf_scan";
    case CacheKind::kRepresentatives: return "representatives";
    case CacheKind::kTopK: return "topk";
  }
  return "unknown";
}

std::uint64_t HashBytes(const void* data, std::size_t size,
                        std::uint64_t seed) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;  // FNV-1a prime
  }
  return hash;
}

std::size_t CacheManager::KeyHash::operator()(const CacheKey& key) const {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  hash = HashCombine(hash, static_cast<std::uint64_t>(key.kind));
  hash = HashCombine(hash, key.a);
  hash = HashCombine(hash, key.b);
  hash = HashCombine(hash, key.c);
  return static_cast<std::size_t>(hash);
}

CacheManager::CacheManager(const Options& options)
    : budget_bytes_(options.budget_bytes) {
  const std::size_t shards =
      std::min<std::size_t>(256, std::max<std::size_t>(1, options.shard_count));
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

CacheManager::Shard& CacheManager::ShardFor(const CacheKey& key) {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

CacheManager::LookupResult CacheManager::Lookup(const CacheKey& key) {
  CacheMetrics& metrics = CacheMetrics::Get();
  const std::size_t kind_index = static_cast<std::size_t>(key.kind);
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      // Natural uint16 wrap: a saturated entry ages back to zero, so
      // long-lived once-hot entries eventually become evictable again.
      it->second.frequency = static_cast<std::uint16_t>(
          it->second.frequency + 1);
      kind_counters_[kind_index].hits.fetch_add(1, std::memory_order_relaxed);
      metrics.hit.Add(1);
      metrics.kind_hit[kind_index]->Add(1);
      return LookupResult{it->second.value, 0};
    }
  }
  kind_counters_[kind_index].misses.fetch_add(1, std::memory_order_relaxed);
  metrics.miss.Add(1);
  metrics.kind_miss[kind_index]->Add(1);
  return LookupResult{nullptr, epoch_.load(std::memory_order_acquire)};
}

void CacheManager::CountEviction(CacheKind kind, std::size_t charged_bytes) {
  CacheMetrics& metrics = CacheMetrics::Get();
  const std::size_t kind_index = static_cast<std::size_t>(kind);
  kind_counters_[kind_index].evictions.fetch_add(1, std::memory_order_relaxed);
  kind_counters_[kind_index].bytes_used.fetch_sub(charged_bytes,
                                                  std::memory_order_relaxed);
  kind_counters_[kind_index].entries.fetch_sub(1, std::memory_order_relaxed);
  live_entries_.fetch_sub(1, std::memory_order_relaxed);
  metrics.evictions.Add(1);
  metrics.entries.Add(-1);
  metrics.bytes.Add(-static_cast<std::int64_t>(charged_bytes));
}

bool CacheManager::EvictOneLocked(Shard& shard) {
  if (shard.map.empty()) return false;
  auto victim = shard.map.begin();
  for (auto it = shard.map.begin(); it != shard.map.end(); ++it) {
    const Entry& e = it->second;
    const Entry& v = victim->second;
    if (e.frequency < v.frequency ||
        (e.frequency == v.frequency && e.insert_seq < v.insert_seq)) {
      victim = it;
    }
  }
  const std::size_t freed = victim->second.charged_bytes;
  const CacheKind kind = victim->second.kind;
  shard.map.erase(victim);
  ReleaseBytes(freed);
  CountEviction(kind, freed);
  return true;
}

void CacheManager::ReleaseBytes(std::size_t bytes) {
  used_.fetch_sub(bytes, std::memory_order_relaxed);
}

bool CacheManager::ReserveBytes(std::size_t bytes, Shard& own_shard) {
  if (bytes > budget_bytes_) return false;
  for (;;) {
    std::uint64_t current = used_.load(std::memory_order_relaxed);
    while (current + bytes <= budget_bytes_) {
      if (used_.compare_exchange_weak(current, current + bytes,
                                      std::memory_order_relaxed)) {
        // The reservation is what bounds the footprint, so the high-water
        // mark derived from it can never exceed the budget.
        const std::uint64_t now = current + bytes;
        std::uint64_t seen = highwater_.load(std::memory_order_relaxed);
        while (now > seen &&
               !highwater_.compare_exchange_weak(seen, now,
                                                 std::memory_order_relaxed)) {
        }
        return true;
      }
    }
    // Over budget: free something. Own shard first (its lock is held), then
    // siblings via try_lock only — lock order stays acyclic.
    if (EvictOneLocked(own_shard)) continue;
    bool freed = false;
    for (const std::unique_ptr<Shard>& other : shards_) {
      if (other.get() == &own_shard) continue;
      std::unique_lock<std::mutex> lock(other->mu, std::try_to_lock);
      if (!lock.owns_lock()) continue;
      if (EvictOneLocked(*other)) {
        freed = true;
        break;
      }
    }
    if (!freed) return false;  // nothing evictable (contended or all empty)
  }
}

bool CacheManager::Insert(const CacheKey& key,
                          std::shared_ptr<const void> value,
                          std::size_t value_bytes, std::uint64_t epoch) {
  CacheMetrics& metrics = CacheMetrics::Get();
  const std::size_t kind_index = static_cast<std::size_t>(key.kind);
  const std::size_t charged = value_bytes + kEntryOverheadBytes;
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  // Stale token: an invalidation ran between the Lookup and this Insert,
  // so the value was computed against a snapshot no longer being served.
  if (epoch != epoch_.load(std::memory_order_acquire)) {
    kind_counters_[kind_index].rejected.fetch_add(1, std::memory_order_relaxed);
    metrics.rejected.Add(1);
    return false;
  }
  if (shard.map.find(key) != shard.map.end()) {
    // A concurrent compute already published this key. By the determinism
    // contract its value is byte-identical to ours.
    return true;
  }
  if (!ReserveBytes(charged, shard)) {
    kind_counters_[kind_index].rejected.fetch_add(1, std::memory_order_relaxed);
    metrics.rejected.Add(1);
    return false;
  }
  Entry entry;
  entry.value = std::move(value);
  entry.charged_bytes = charged;
  entry.insert_seq = insert_seq_.fetch_add(1, std::memory_order_relaxed);
  entry.kind = key.kind;
  shard.map.emplace(key, std::move(entry));
  kind_counters_[kind_index].insertions.fetch_add(1,
                                                  std::memory_order_relaxed);
  kind_counters_[kind_index].bytes_used.fetch_add(charged,
                                                  std::memory_order_relaxed);
  kind_counters_[kind_index].entries.fetch_add(1, std::memory_order_relaxed);
  live_entries_.fetch_add(1, std::memory_order_relaxed);
  metrics.insertions.Add(1);
  metrics.entries.Add(1);
  metrics.bytes.Add(static_cast<std::int64_t>(charged));
  return true;
}

void CacheManager::BeginEpoch(std::uint64_t snapshot_identity) {
  // Epoch first: any in-flight compute holding the old token is refused at
  // Insert, so no value derived from the stale snapshot can surface later.
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  snapshot_identity_.store(snapshot_identity, std::memory_order_relaxed);
  CacheMetrics& metrics = CacheMetrics::Get();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [key, entry] : shard->map) {
      const std::size_t kind_index = static_cast<std::size_t>(entry.kind);
      kind_counters_[kind_index].bytes_used.fetch_sub(
          entry.charged_bytes, std::memory_order_relaxed);
      kind_counters_[kind_index].entries.fetch_sub(1,
                                                   std::memory_order_relaxed);
      live_entries_.fetch_sub(1, std::memory_order_relaxed);
      ReleaseBytes(entry.charged_bytes);
      metrics.entries.Add(-1);
      metrics.bytes.Add(-static_cast<std::int64_t>(entry.charged_bytes));
    }
    shard->map.clear();
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);
  metrics.flushes.Add(1);
}

CacheStats CacheManager::TotalStats() const {
  CacheStats stats;
  for (std::size_t k = 0; k < kNumCacheKinds; ++k) {
    const KindCounters& c = kind_counters_[k];
    stats.hits += c.hits.load(std::memory_order_relaxed);
    stats.misses += c.misses.load(std::memory_order_relaxed);
    stats.insertions += c.insertions.load(std::memory_order_relaxed);
    stats.evictions += c.evictions.load(std::memory_order_relaxed);
    stats.rejected += c.rejected.load(std::memory_order_relaxed);
  }
  stats.flushes = flushes_.load(std::memory_order_relaxed);
  stats.bytes_used = bytes_used();
  stats.bytes_highwater = bytes_highwater();
  stats.entries = live_entries_.load(std::memory_order_relaxed);
  return stats;
}

CacheStats CacheManager::KindStats(CacheKind kind) const {
  const KindCounters& c = kind_counters_[static_cast<std::size_t>(kind)];
  CacheStats stats;
  stats.hits = c.hits.load(std::memory_order_relaxed);
  stats.misses = c.misses.load(std::memory_order_relaxed);
  stats.insertions = c.insertions.load(std::memory_order_relaxed);
  stats.evictions = c.evictions.load(std::memory_order_relaxed);
  stats.rejected = c.rejected.load(std::memory_order_relaxed);
  stats.flushes = flushes_.load(std::memory_order_relaxed);
  stats.bytes_used = c.bytes_used.load(std::memory_order_relaxed);
  stats.bytes_highwater = bytes_highwater();
  stats.entries = c.entries.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace cache
}  // namespace qdcbir
