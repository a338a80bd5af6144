/// Concurrency stress for CacheManager, written to run under TSan (the CI
/// sanitizer matrix picks it up via the `cache_` name prefix). The
/// invariants under contention:
///
///   * the budget is a hard ceiling — `bytes_highwater()` never exceeds it,
///     even while many threads insert under eviction pressure;
///   * a payload handed back by Lookup stays valid after a concurrent
///     eviction removes its entry (immutability via shared_ptr);
///   * after `BeginEpoch`, no value computed against the old snapshot is
///     ever returned — including the compute-then-insert race where the
///     insert lands after the flush.
///
/// The invalidation cases phase on worker progress, never on sleeps, so a
/// loaded machine slows them down instead of skipping a phase.

#include "qdcbir/cache/cache_manager.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace qdcbir {
namespace cache {
namespace {

CacheKey Key(std::uint64_t a, CacheKind kind = CacheKind::kLeafScan) {
  CacheKey key;
  key.kind = kind;
  key.a = a;
  return key;
}

/// What one worker has done so far, for the main thread to phase on. A
/// worker whose loop ends early (a failed ASSERT returns from it) sets
/// `exited`, so no wait hangs on it.
struct Progress {
  std::atomic<std::uint64_t> inserts{0};
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<bool> exited{false};
};

/// Yields until every worker has exited or satisfies `reached`.
template <typename Reached>
void WaitForEvery(const std::vector<Progress>& workers, Reached reached) {
  for (const Progress& worker : workers) {
    while (!worker.exited.load(std::memory_order_acquire) && !reached(worker)) {
      std::this_thread::yield();
    }
  }
}

TEST(CacheConcurrencyTest, BudgetHoldsUnderMixedLoad) {
  CacheManager::Options options;
  options.shard_count = 8;
  // Small enough that ~every insert needs an eviction: maximum pressure.
  options.budget_bytes = 64 * (128 + CacheManager::kEntryOverheadBytes);
  CacheManager cache(options);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::atomic<std::uint64_t> total_hits{0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &total_hits, t] {
      std::uint64_t hits = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Overlapping key ranges across threads: contended shards, real
        // hit/evict races, not thread-private traffic.
        const std::uint64_t id =
            static_cast<std::uint64_t>((t * kOpsPerThread + i) % 512);
        std::uint64_t epoch = 0;
        auto value = cache.LookupAs<std::string>(Key(id), &epoch);
        if (value == nullptr) {
          cache.InsertAs<std::string>(
              Key(id), std::make_shared<const std::string>(128, 'v'), 128,
              epoch);
          // Read the fresh entry back. Each thread walks its ids in one
          // run against a 64-entry budget, so without this a hit needs
          // another thread's recent insert, i.e. threads that really run
          // at the same time; this one hits unless a racing insert evicted
          // the entry in between.
          value = cache.LookupAs<std::string>(Key(id), &epoch);
        }
        if (value != nullptr) {
          // The payload must stay readable even if another thread evicts
          // this entry right now.
          ASSERT_EQ(value->size(), 128u);
          ASSERT_EQ((*value)[0], 'v');
          ++hits;
        }
      }
      total_hits.fetch_add(hits, std::memory_order_relaxed);
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_LE(cache.bytes_highwater(), options.budget_bytes);
  EXPECT_LE(cache.bytes_used(), options.budget_bytes);
  EXPECT_GT(cache.TotalStats().evictions, 0u);
  EXPECT_GT(total_hits.load(), 0u);

  // Live byte/entry accounting survived the churn: re-derive it.
  const CacheStats stats = cache.TotalStats();
  EXPECT_EQ(stats.bytes_used,
            stats.entries * (128 + CacheManager::kEntryOverheadBytes));
}

TEST(CacheConcurrencyTest, NoStaleValueAfterInvalidation) {
  CacheManager::Options options;
  options.shard_count = 4;
  CacheManager cache(options);

  // Phase tag encoded in the payload, derived from the epoch token the
  // Lookup handed out: tokens equal to the starting epoch tag "old",
  // anything later tags "new". Writers simulate compute-then-insert; if the
  // epoch check has a hole, an "old" payload survives the flush and a
  // reader whose lookup *started after* the flush sees it.
  constexpr int kWorkers = 6;
  // Lookups each worker completes after the flush before the test stops.
  constexpr std::uint64_t kLookupsAfterFlush = 2000;
  const std::uint64_t pre_epoch = cache.epoch();
  std::atomic<bool> flushed{false};
  std::atomic<bool> stop{false};
  std::vector<Progress> progress(kWorkers);

  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&cache, &flushed, &stop, &progress, pre_epoch, t] {
      Progress& mine = progress[t];
      [&] {
        std::uint64_t i = 0;
        while (!stop.load(std::memory_order_acquire)) {
          // The first key is the worker's own, so its first lookup misses
          // and it inserts even when the others have filled the shared
          // 256 keys before it starts.
          const std::uint64_t id = i == 0 ? 256 + t : (t * 131 + i) % 256;
          ++i;
          // Ordering matters: observing flushed==true here means BeginEpoch
          // finished before the lookup below started, so an "old" hit would
          // be a genuine stale read.
          const bool after = flushed.load(std::memory_order_acquire);
          std::uint64_t epoch = 0;
          auto value = cache.LookupAs<std::string>(Key(id), &epoch);
          if (after) mine.lookups.fetch_add(1, std::memory_order_release);
          if (value != nullptr) {
            if (after) {
              ASSERT_EQ(*value, "new") << "stale entry served after flush";
            }
            continue;
          }
          // The "computation" — insert with the token from the miss. A
          // pre-flush token makes an "old" payload, which the manager must
          // either clear (inserted before the flush) or reject (after).
          cache.InsertAs<std::string>(
              Key(id),
              std::make_shared<const std::string>(epoch == pre_epoch ? "old"
                                                                     : "new"),
              8, epoch);
          mine.inserts.fetch_add(1, std::memory_order_release);
        }
      }();
      mine.exited.store(true, std::memory_order_release);
    });
  }

  // Invalidate once every worker has populated, then stop once every
  // worker has looked up kLookupsAfterFlush times since. Order matters:
  // BeginEpoch first (kills outstanding "old" tokens), then the flag
  // writers use to tag fresh payloads "new".
  WaitForEvery(progress, [](const Progress& p) {
    return p.inserts.load(std::memory_order_acquire) > 0;
  });
  cache.BeginEpoch(/*snapshot_identity=*/42);
  flushed.store(true, std::memory_order_release);
  WaitForEvery(progress, [](const Progress& p) {
    return p.lookups.load(std::memory_order_acquire) >= kLookupsAfterFlush;
  });
  stop.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(cache.snapshot_identity(), 42u);
  EXPECT_EQ(cache.TotalStats().flushes, 1u);
}

TEST(CacheConcurrencyTest, InvalidationRacesInsertAndLookup) {
  // Hammer BeginEpoch itself: one thread flushes in a loop while others
  // insert and read. Checks internal consistency (accounting, no deadlock,
  // no torn entries) rather than a phase property.
  CacheManager::Options options;
  options.shard_count = 4;
  options.budget_bytes = 32 * (64 + CacheManager::kEntryOverheadBytes);
  CacheManager cache(options);

  constexpr int kWorkers = 4;
  // The flusher stops after this many flushes, each one after every worker
  // has looked up again since the previous flush.
  constexpr std::uint64_t kFlushes = 200;
  std::atomic<bool> stop{false};
  std::vector<Progress> progress(kWorkers);
  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&cache, &stop, &progress, t] {
      Progress& mine = progress[t];
      [&] {
        std::uint64_t i = 0;
        while (!stop.load(std::memory_order_acquire)) {
          const std::uint64_t id = (t * 97 + i++) % 128;
          std::uint64_t epoch = 0;
          auto value = cache.LookupAs<std::string>(Key(id), &epoch);
          mine.lookups.fetch_add(1, std::memory_order_release);
          if (value == nullptr) {
            cache.InsertAs<std::string>(
                Key(id), std::make_shared<const std::string>(64, 'y'), 64,
                epoch);
            mine.inserts.fetch_add(1, std::memory_order_release);
          } else {
            ASSERT_EQ(value->size(), 64u);
          }
        }
      }();
      mine.exited.store(true, std::memory_order_release);
    });
  }
  std::thread flusher([&cache, &progress] {
    WaitForEvery(progress, [](const Progress& p) {
      return p.inserts.load(std::memory_order_acquire) > 0;
    });
    std::vector<std::uint64_t> seen(progress.size());
    for (std::uint64_t generation = 1; generation <= kFlushes; ++generation) {
      cache.BeginEpoch(generation);
      for (std::size_t w = 0; w < progress.size(); ++w) {
        seen[w] = progress[w].lookups.load(std::memory_order_acquire);
      }
      for (std::size_t w = 0; w < progress.size(); ++w) {
        const Progress& p = progress[w];
        while (!p.exited.load(std::memory_order_acquire) &&
               p.lookups.load(std::memory_order_acquire) == seen[w]) {
          std::this_thread::yield();
        }
      }
    }
  });

  flusher.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();

  EXPECT_LE(cache.bytes_highwater(), options.budget_bytes);
  const CacheStats stats = cache.TotalStats();
  EXPECT_EQ(stats.bytes_used,
            stats.entries * (64 + CacheManager::kEntryOverheadBytes));
  EXPECT_GT(stats.flushes, 0u);
}

}  // namespace
}  // namespace cache
}  // namespace qdcbir
