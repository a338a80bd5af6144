#ifndef QDCBIR_OBS_ACCESS_STATS_H_
#define QDCBIR_OBS_ACCESS_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "qdcbir/obs/resource_stats.h"

namespace qdcbir {
namespace obs {

/// Index region identifier for access accounting. RFS-backed localized
/// scans record the stable NodeId of the searched subtree root (a leaf
/// until boundary expansion widens it); engines that scan the flat feature
/// table (Qcluster list merging, Fagin sorted-list building) account under
/// `kTableScanLeaf`, so full-table work shows up in the same heatmap
/// without faking tree coordinates. Ids are stable within one loaded
/// snapshot generation — the serve layer resets the global table on reload.
using AccessLeafId = std::uint32_t;
inline constexpr AccessLeafId kTableScanLeaf = 0xffffffffu;

/// Physical index work attributed to one leaf (or the table-scan bucket).
/// Like `ResourceUsage` these are physical-work counters: a cache hit
/// legitimately reduces scans/evals relative to a cold run, while the
/// logical cost model (QdSessionStats) stays byte-identical either way.
struct LeafAccessCounts {
  std::uint64_t scans = 0;           ///< localized scans over this leaf
  std::uint64_t distance_evals = 0;  ///< query × candidate distances in them
  std::uint64_t feature_bytes = 0;   ///< feature-vector bytes read from it
  std::uint64_t cache_hits = 0;      ///< scans answered from the result cache
  std::uint64_t cache_misses = 0;    ///< scans that had to touch the leaf

  void Add(const LeafAccessCounts& other) {
    scans += other.scans;
    distance_evals += other.distance_evals;
    feature_bytes += other.feature_bytes;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
  }

  bool IsZero() const {
    return (scans | distance_evals | feature_bytes | cache_hits |
            cache_misses) == 0;
  }
};

/// One row of an access snapshot.
struct LeafAccess {
  AccessLeafId leaf = 0;
  LeafAccessCounts counts;
};

/// Per-session sink for leaf access. Workers batch increments in a small
/// thread-local slot table and merge once per task (or on slot overflow),
/// so the hot-path cost stays a TLS load, a short linear probe, and plain
/// adds — the same contract as `ResourceAccumulator`. Snapshots are sorted
/// by leaf id so downstream consumers see a deterministic order.
class AccessAccumulator {
 public:
  void Merge(AccessLeafId leaf, const LeafAccessCounts& counts) {
    if (counts.IsZero()) return;
    std::lock_guard<std::mutex> lock(mu_);
    leaves_[leaf].Add(counts);
  }

  std::vector<LeafAccess> Snapshot() const;

  bool empty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return leaves_.empty();
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<AccessLeafId, LeafAccessCounts> leaves_;
};

namespace internal {

inline constexpr std::size_t kAccessTlsSlots = 8;

/// Per-thread access-accounting state: the active sink (null = accounting
/// off, every tap is one predictable branch) and a fixed slot table of
/// per-leaf deltas batched toward it. A localized search touches one leaf
/// at a time, so eight slots absorb a whole task between flushes.
struct AccessTls {
  AccessAccumulator* accumulator = nullptr;
  std::uint32_t used = 0;
  AccessLeafId leaf[kAccessTlsSlots] = {};
  LeafAccessCounts counts[kAccessTlsSlots] = {};
};

inline AccessTls& AccessState() {
  constinit thread_local AccessTls state;
  return state;
}

/// Cold path: merge every occupied slot into the sink and reset the table.
void FlushAccessTlsSlots(AccessTls& state);

/// Returns the delta slot for `leaf`, or null when accounting is off or
/// compiled out (`-DQDCBIR_OBS=OFF`).
inline LeafAccessCounts* AccessSlot([[maybe_unused]] AccessLeafId leaf) {
#ifdef QDCBIR_DISABLE_OBS
  return nullptr;
#else
  AccessTls& state = AccessState();
  if (state.accumulator == nullptr) return nullptr;
  for (std::uint32_t i = 0; i < state.used; ++i) {
    if (state.leaf[i] == leaf) return &state.counts[i];
  }
  if (state.used == kAccessTlsSlots) FlushAccessTlsSlots(state);
  const std::uint32_t slot = state.used++;
  state.leaf[slot] = leaf;
  state.counts[slot] = LeafAccessCounts{};
  return &state.counts[slot];
#endif
}

}  // namespace internal

/// The sink active on this thread, or null. `ThreadPool` captures this at
/// enqueue so tasks spawned while accounting carry the session's sink onto
/// workers, exactly like trace context and resource accounting.
inline AccessAccumulator* CurrentAccessAccumulator() {
  return internal::AccessState().accumulator;
}

/// Hot-path taps, one per scan or cache lookup, feeding both the session's
/// totals (`ResourceUsage`) and the leaf's row: totals are the sum of rows
/// by construction. Purely observational — they never influence ranking.
/// The per-leaf half compiles out under `-DQDCBIR_OBS=OFF`; the totals do
/// not. Call granularity is per *scan*: pass the batch totals.
inline void CountLeafScan(AccessLeafId leaf, std::uint64_t distance_evals,
                          std::uint64_t feature_bytes) {
  internal::ResourceTls& totals = internal::ResourceState();
  if (totals.accumulator != nullptr) {
    totals.local.distance_evals += distance_evals;
    totals.local.feature_bytes += feature_bytes;
  }
  if (LeafAccessCounts* slot = internal::AccessSlot(leaf)) {
    slot->scans += 1;
    slot->distance_evals += distance_evals;
    slot->feature_bytes += feature_bytes;
  }
}
inline void CountLeafCacheHit(AccessLeafId leaf) {
  internal::ResourceTls& totals = internal::ResourceState();
  if (totals.accumulator != nullptr) totals.local.cache_hits += 1;
  if (LeafAccessCounts* slot = internal::AccessSlot(leaf)) {
    slot->cache_hits += 1;
  }
}
inline void CountLeafCacheMiss(AccessLeafId leaf) {
  internal::ResourceTls& totals = internal::ResourceState();
  if (totals.accumulator != nullptr) totals.local.cache_misses += 1;
  if (LeafAccessCounts* slot = internal::AccessSlot(leaf)) {
    slot->cache_misses += 1;
  }
}

/// Merges this thread's pending slot deltas into the active sink now,
/// without waiting for the enclosing scope to close. Callers that read the
/// accumulator while their own scope is still open (the serve layer
/// draining a session at finalize) flush first.
inline void FlushAccessAccounting() {
  internal::AccessTls& state = internal::AccessState();
  if (state.accumulator != nullptr && state.used != 0) {
    internal::FlushAccessTlsSlots(state);
  }
}

/// Installs `accumulator` as this thread's access sink for the enclosing
/// scope and flushes the slot deltas gathered inside the scope into it on
/// destruction. Nests; a null accumulator disables access accounting for
/// the scope. The serve layer opens one per request around the engine
/// calls; the thread-pool task wrapper opens one per task with the
/// enqueuer's sink.
class ScopedAccessAccounting {
 public:
  explicit ScopedAccessAccounting(AccessAccumulator* accumulator)
      : saved_(internal::AccessState()) {
    internal::AccessTls& state = internal::AccessState();
    state.accumulator = accumulator;
    state.used = 0;
  }

  ScopedAccessAccounting(const ScopedAccessAccounting&) = delete;
  ScopedAccessAccounting& operator=(const ScopedAccessAccounting&) = delete;

  ~ScopedAccessAccounting() {
    internal::AccessTls& state = internal::AccessState();
    if (state.accumulator != nullptr && state.used != 0) {
      internal::FlushAccessTlsSlots(state);
    }
    state = saved_;
  }

 private:
  internal::AccessTls saved_;
};

/// Process-wide per-leaf access table: the serve layer drains each
/// session's `AccessAccumulator` into it at finalize, and `/indexz` joins
/// its snapshot with the RFS tree walk. Sharded by leaf id so concurrent
/// finalizes don't contend; `Reset` starts a fresh epoch on snapshot
/// reload (leaf ids are only stable within one loaded tree).
class AccessStatsTable {
 public:
  static AccessStatsTable& Global();

  void MergeLeaf(AccessLeafId leaf, const LeafAccessCounts& counts);
  void MergeSession(const std::vector<LeafAccess>& rows);

  /// Every leaf ever touched this epoch, sorted by leaf id.
  std::vector<LeafAccess> Snapshot() const;
  LeafAccessCounts Totals() const;
  std::uint64_t sessions_merged() const {
    return sessions_merged_.load(std::memory_order_relaxed);
  }

  void Reset();

 private:
  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<AccessLeafId, LeafAccessCounts> leaves;
  };
  Shard shards_[kShards];
  std::atomic<std::uint64_t> sessions_merged_{0};
};

/// Bounded top-K leaf-pair co-occurrence tracker (Space-Saving style): per
/// completed session the touched-leaf set is recorded and every unordered
/// pair's count bumped. At capacity the minimum-count pair is evicted and
/// the newcomer inherits its count + 1, so heavy pairs survive while
/// `evictions()` makes the approximation visible. Sets larger than the
/// per-set leaf cap are truncated (lowest leaf ids kept) and counted in
/// `leaves_truncated()` — memory stays fixed no matter the workload.
class CoAccessTracker {
 public:
  struct PairCount {
    AccessLeafId a = 0;  ///< a < b always
    AccessLeafId b = 0;
    std::uint64_t count = 0;
  };

  explicit CoAccessTracker(std::size_t max_pairs = 4096,
                           std::size_t max_set_leaves = 64);

  static CoAccessTracker& Global();

  /// Records one session's touched-leaf set (deduped internally).
  void RecordTouchedSet(std::vector<AccessLeafId> leaves);

  /// The heaviest pairs, count-descending (ties by a then b), at most `n`.
  std::vector<PairCount> TopPairs(std::size_t n) const;

  std::uint64_t sets_recorded() const;
  std::uint64_t evictions() const;
  std::uint64_t leaves_truncated() const;

  void Reset();

 private:
  const std::size_t max_pairs_;
  const std::size_t max_set_leaves_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::uint64_t> pairs_;
  std::uint64_t sets_recorded_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t leaves_truncated_ = 0;
};

/// Renders the hottest `top_n` leaves of an access snapshot as labeled
/// Prometheus samples (`qdcbir_index_leaf_*{leaf="17"}`), with TYPE/HELP
/// headers and label values escaped per the exposition format. The
/// table-scan bucket renders as leaf="table". Appended to `/metrics` after
/// the registry families — the registry itself stays label-free.
std::string RenderIndexLeafPrometheusText(const std::vector<LeafAccess>& rows,
                                          std::size_t top_n);

}  // namespace obs
}  // namespace qdcbir

#endif  // QDCBIR_OBS_ACCESS_STATS_H_
