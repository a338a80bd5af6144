#ifndef QDCBIR_OBS_RESOURCE_STATS_H_
#define QDCBIR_OBS_RESOURCE_STATS_H_

#include <atomic>
#include <cstdint>

namespace qdcbir {
namespace obs {

/// Physical work performed on behalf of one query/feedback round. Counted
/// at the engine hot paths (distance kernels' call sites, tree descent,
/// tile gathers, hot-container allocations) and summed across every pool
/// worker that touched the session, then published to `/queryz` and the
/// `serve.session.*` metric family. These are the "where did the cycles
/// go" denominators the sampling profiler's percentages divide into.
struct ResourceUsage {
  std::uint64_t distance_evals = 0;   ///< query-point × candidate distances
  std::uint64_t feature_bytes = 0;    ///< feature-vector bytes scanned
  std::uint64_t leaves_visited = 0;   ///< RFS tree nodes/leaves descended
  std::uint64_t tiles_gathered = 0;   ///< blocked-layout gather tiles built
  std::uint64_t container_allocs = 0; ///< hot-container allocations
  std::uint64_t alloc_bytes = 0;      ///< bytes those allocations requested
  /// Result-cache traffic, counted by the engines' per-leaf taps: a hit
  /// legitimately *reduces* the other fields relative to a cold run — the
  /// logical cost model (QdSessionStats) stays identical either way.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  void Add(const ResourceUsage& other) {
    distance_evals += other.distance_evals;
    feature_bytes += other.feature_bytes;
    leaves_visited += other.leaves_visited;
    tiles_gathered += other.tiles_gathered;
    container_allocs += other.container_allocs;
    alloc_bytes += other.alloc_bytes;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
  }

  bool IsZero() const {
    return (distance_evals | feature_bytes | leaves_visited | tiles_gathered |
            container_allocs | alloc_bytes | cache_hits | cache_misses) == 0;
  }
};

/// Shared sink for one query's usage. Workers batch increments in plain
/// thread-local deltas and merge once per task, so the per-event cost on
/// the hot path is a thread-local null check plus an ordinary add — no
/// atomics, no sharing.
class ResourceAccumulator {
 public:
  void Merge(const ResourceUsage& usage) {
    if (usage.IsZero()) return;
    distance_evals_.fetch_add(usage.distance_evals, std::memory_order_relaxed);
    feature_bytes_.fetch_add(usage.feature_bytes, std::memory_order_relaxed);
    leaves_visited_.fetch_add(usage.leaves_visited, std::memory_order_relaxed);
    tiles_gathered_.fetch_add(usage.tiles_gathered, std::memory_order_relaxed);
    container_allocs_.fetch_add(usage.container_allocs,
                                std::memory_order_relaxed);
    alloc_bytes_.fetch_add(usage.alloc_bytes, std::memory_order_relaxed);
    cache_hits_.fetch_add(usage.cache_hits, std::memory_order_relaxed);
    cache_misses_.fetch_add(usage.cache_misses, std::memory_order_relaxed);
  }

  ResourceUsage Snapshot() const {
    ResourceUsage usage;
    usage.distance_evals = distance_evals_.load(std::memory_order_relaxed);
    usage.feature_bytes = feature_bytes_.load(std::memory_order_relaxed);
    usage.leaves_visited = leaves_visited_.load(std::memory_order_relaxed);
    usage.tiles_gathered = tiles_gathered_.load(std::memory_order_relaxed);
    usage.container_allocs = container_allocs_.load(std::memory_order_relaxed);
    usage.alloc_bytes = alloc_bytes_.load(std::memory_order_relaxed);
    usage.cache_hits = cache_hits_.load(std::memory_order_relaxed);
    usage.cache_misses = cache_misses_.load(std::memory_order_relaxed);
    return usage;
  }

 private:
  std::atomic<std::uint64_t> distance_evals_{0};
  std::atomic<std::uint64_t> feature_bytes_{0};
  std::atomic<std::uint64_t> leaves_visited_{0};
  std::atomic<std::uint64_t> tiles_gathered_{0};
  std::atomic<std::uint64_t> container_allocs_{0};
  std::atomic<std::uint64_t> alloc_bytes_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
};

namespace internal {

/// Per-thread accounting state: the active sink (null = accounting off,
/// every tap is a single predictable branch) and the local deltas batched
/// toward it.
struct ResourceTls {
  ResourceAccumulator* accumulator = nullptr;
  ResourceUsage local;
};

inline ResourceTls& ResourceState() {
  constinit thread_local ResourceTls state;
  return state;
}

}  // namespace internal

/// The sink active on this thread, or null. `ThreadPool` captures this at
/// enqueue so tasks spawned while accounting carry the session's sink onto
/// workers, exactly like trace context.
inline ResourceAccumulator* CurrentResourceAccumulator() {
  return internal::ResourceState().accumulator;
}

/// Hot-path taps. Each compiles to a TLS load, a branch, and an add; with
/// no active accumulator they are pure overheadless no-ops past the branch.
/// Call granularity should be per *scan or phase*, not per element — pass
/// the batch size. Scans and cache lookups tap through access_stats.h.
inline void CountLeafVisits(std::uint64_t n) {
  internal::ResourceTls& state = internal::ResourceState();
  if (state.accumulator != nullptr) state.local.leaves_visited += n;
}
inline void CountTileGathers(std::uint64_t n) {
  internal::ResourceTls& state = internal::ResourceState();
  if (state.accumulator != nullptr) state.local.tiles_gathered += n;
}
inline void CountContainerAlloc(std::uint64_t bytes) {
  internal::ResourceTls& state = internal::ResourceState();
  if (state.accumulator != nullptr) {
    state.local.container_allocs += 1;
    state.local.alloc_bytes += bytes;
  }
}

/// Merges this thread's pending local deltas into the active sink now,
/// without waiting for the enclosing scope to close. Callers that read the
/// accumulator while their own scope is still open (session runners
/// publishing audit records) flush first.
inline void FlushResourceAccounting() {
  internal::ResourceTls& state = internal::ResourceState();
  if (state.accumulator != nullptr) {
    state.accumulator->Merge(state.local);
    state.local = ResourceUsage{};
  }
}

/// Installs `accumulator` as this thread's sink for the enclosing scope and
/// flushes the deltas gathered inside the scope into it on destruction.
/// Nests (inner scopes may re-install the same or another sink); a null
/// accumulator disables accounting for the scope. The serve layer opens one
/// per request around the engine calls; the thread-pool task wrapper opens
/// one per task with the enqueuer's sink.
class ScopedResourceAccounting {
 public:
  explicit ScopedResourceAccounting(ResourceAccumulator* accumulator)
      : saved_accumulator_(internal::ResourceState().accumulator),
        saved_local_(internal::ResourceState().local) {
    internal::ResourceTls& state = internal::ResourceState();
    state.accumulator = accumulator;
    state.local = ResourceUsage{};
  }

  ScopedResourceAccounting(const ScopedResourceAccounting&) = delete;
  ScopedResourceAccounting& operator=(const ScopedResourceAccounting&) =
      delete;

  ~ScopedResourceAccounting() {
    internal::ResourceTls& state = internal::ResourceState();
    if (state.accumulator != nullptr) state.accumulator->Merge(state.local);
    state.accumulator = saved_accumulator_;
    state.local = saved_local_;
  }

 private:
  ResourceAccumulator* saved_accumulator_;
  ResourceUsage saved_local_;
};

}  // namespace obs
}  // namespace qdcbir

#endif  // QDCBIR_OBS_RESOURCE_STATS_H_
