#include "qdcbir/core/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "qdcbir/obs/log.h"
#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/span.h"
#include "qdcbir/obs/task_context.h"
#include "qdcbir/obs/trace_context.h"
#include "qdcbir/obs/trace_tree.h"

namespace qdcbir {
namespace {

TEST(ThreadPoolTest, SizeReflectsConfiguredLanes) {
  ThreadPool pool(5);
  EXPECT_EQ(pool.size(), 5u);
  ThreadPool sequential(1);
  EXPECT_EQ(sequential.size(), 1u);
}

TEST(ThreadPoolTest, ZeroSizePicksDefaultThreadCount) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::DefaultThreadCount());
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, EnvOverrideControlsDefaultThreadCount) {
  ASSERT_EQ(setenv("QDCBIR_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3u);
  ASSERT_EQ(setenv("QDCBIR_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
  ASSERT_EQ(setenv("QDCBIR_THREADS", "-2", 1), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
  ASSERT_EQ(unsetenv("QDCBIR_THREADS"), 0);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> visits(1000);
    pool.ParallelFor(0, visits.size(),
                     [&](std::size_t i) { visits[i].fetch_add(1); });
    for (const std::atomic<int>& v : visits) EXPECT_EQ(v.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForHonorsNonZeroBegin) {
  ThreadPool pool(4);
  std::atomic<std::size_t> sum{0};
  pool.ParallelFor(10, 20, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 145u);  // 10 + 11 + ... + 19
}

TEST(ThreadPoolTest, EmptyRangeAndEmptyBatchAreNoOps) {
  ThreadPool pool(4);
  pool.ParallelFor(5, 5, [](std::size_t) { FAIL(); });
  pool.ParallelFor(7, 3, [](std::size_t) { FAIL(); });
  pool.Run({});
  pool.ParallelForChunks(0, 0, 4, [](std::size_t, std::size_t, std::size_t) {
    FAIL();
  });
}

TEST(ThreadPoolTest, ParallelForChunksPartitionsContiguously) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::set<std::size_t> chunk_ids;
  pool.ParallelForChunks(
      3, 103, 7, [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
        std::lock_guard<std::mutex> lock(mu);
        ranges.emplace_back(lo, hi);
        chunk_ids.insert(chunk);
      });
  EXPECT_EQ(ranges.size(), 7u);
  EXPECT_EQ(chunk_ids.size(), 7u);
  EXPECT_EQ(*chunk_ids.begin(), 0u);
  EXPECT_EQ(*chunk_ids.rbegin(), 6u);
  std::sort(ranges.begin(), ranges.end());
  EXPECT_EQ(ranges.front().first, 3u);
  EXPECT_EQ(ranges.back().second, 103u);
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i - 1].second, ranges[i].first);  // no gap, no overlap
  }
}

TEST(ThreadPoolTest, ChunkCountClampsToRangeSize) {
  ThreadPool pool(8);
  std::atomic<int> calls{0};
  pool.ParallelForChunks(0, 3, 100,
                         [&](std::size_t, std::size_t lo, std::size_t hi) {
                           EXPECT_EQ(hi - lo, 1u);
                           calls.fetch_add(1);
                         });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPoolTest, RunExecutesAllTasks) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> done(16);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < done.size(); ++i) {
    tasks.push_back([&done, i] { done[i].fetch_add(1); });
  }
  pool.Run(std::move(tasks));
  for (const std::atomic<int>& d : done) EXPECT_EQ(d.load(), 1);
}

TEST(ThreadPoolTest, ExceptionPropagatesAfterBatchCompletes) {
  // One lane runs the batch inline, more lanes queue it: same contract.
  for (const std::size_t lanes : {1u, 2u, 4u}) {
    ThreadPool pool(lanes);
    std::atomic<int> completed{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 12; ++i) {
      tasks.push_back([&completed, i] {
        if (i == 5) throw std::runtime_error("task 5 failed");
        completed.fetch_add(1);
      });
    }
    EXPECT_THROW(pool.Run(std::move(tasks)), std::runtime_error);
    // Every non-throwing task of the batch still ran to completion.
    EXPECT_EQ(completed.load(), 11) << lanes << " lanes";
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesFromParallelFor) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(0, 100,
                                [](std::size_t i) {
                                  if (i == 42) {
                                    throw std::invalid_argument("boom");
                                  }
                                }),
               std::invalid_argument);
}

TEST(ThreadPoolTest, SequentialPoolPropagatesExceptionsToo) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(0, 10,
                                [](std::size_t i) {
                                  if (i == 3) throw std::runtime_error("x");
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, PoolIsReusableAfterExceptionAndAcrossBatches) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 8, [](std::size_t) { throw std::runtime_error(""); }),
      std::runtime_error);
  // 50 follow-up batches all run fine on the same pool.
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.ParallelFor(0, 100, [&](std::size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 5050u);
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  // 16 outer tasks on a pool of 4, each fanning out again on the same pool:
  // waits must drain queued tasks instead of blocking, or this deadlocks.
  pool.ParallelFor(0, 16, [&](std::size_t) {
    pool.ParallelFor(0, 64, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16u * 64u);
}

TEST(ThreadPoolTest, NestedExceptionPropagatesThroughOuterBatch) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(0, 8,
                                [&](std::size_t outer) {
                                  pool.ParallelFor(0, 8, [&](std::size_t i) {
                                    if (outer == 3 && i == 3) {
                                      throw std::runtime_error("nested");
                                    }
                                  });
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, PostRunsTasksAndDestructorDrainsThem) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Post([&done] { done.fetch_add(1); });
    }
    // The destructor must not drop queued posted tasks.
  }
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, PostOnSequentialPoolRunsInline) {
  ThreadPool pool(1);
  bool ran = false;
  pool.Post([&ran] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, PostDiscardsExceptions) {
  // Inline path (sequential pool): the exception must not escape Post.
  ThreadPool sequential(1);
  EXPECT_NO_THROW(sequential.Post([] { throw std::runtime_error("inline"); }));
  // Queued path: there is no submitter to rethrow on; the pool (and its
  // destructor) must survive a throwing posted task and keep running later
  // work.
  std::atomic<int> after{0};
  {
    ThreadPool pool(2);
    pool.Post([] { throw std::runtime_error("queued"); });
    pool.Post([&after] { after.fetch_add(1); });
  }
  EXPECT_EQ(after.load(), 1);
}

TEST(ThreadPoolTest, PostedTasksInterleaveWithBatches) {
  std::atomic<int> posted{0};
  std::atomic<std::size_t> batched{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 32; ++i) {
      pool.Post([&posted] { posted.fetch_add(1); });
      pool.ParallelFor(0, 16,
                       [&batched](std::size_t) { batched.fetch_add(1); });
    }
    // ParallelFor's completion wait only covers its own batch, so posted
    // tasks may still be queued here — but destruction drains them.
    EXPECT_EQ(batched.load(), 32u * 16u);
  }
  EXPECT_EQ(posted.load(), 32);
}

TEST(ThreadPoolTest, QueueDepthGaugeNeverGoesNegativeUnderScrapes) {
  // Regression: the queue-depth gauge used to be maintained with sharded
  // Add() deltas — increments on the submitter's shard, decrements on each
  // worker's shard — so a concurrent scrape could sum the decrement shard
  // before the increment shard and report a negative depth. The pool now
  // publishes an absolute count (Set under the pool mutex), which can
  // never expose a negative or torn value, and destruction leaves the
  // gauge balanced.
  obs::Gauge& depth =
      obs::MetricsRegistry::Global().GetGauge("pool.queue_depth");
  const std::int64_t base = depth.Value();
  std::atomic<bool> done{false};
  std::int64_t min_seen = base;
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      min_seen = std::min(min_seen, depth.Value());
    }
  });
  {
    ThreadPool pool(4);
    for (int round = 0; round < 200; ++round) {
      pool.ParallelFor(0, 64, [](std::size_t) {});
      pool.Post([] {});
    }
  }
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_GE(min_seen, base);
  // With every pool of this test destroyed, the accounting balances.
  EXPECT_EQ(depth.Value(), base);
}

TEST(ThreadPoolTest, TraceContextParentageSurvivesNestedParallelFor) {
  // Regression for trace propagation: the pool captures the submitter's
  // TraceContext at enqueue and restores it around each task, so spans
  // opened inside pool tasks — including tasks of a nested ParallelFor and
  // tasks the caller itself adopts while waiting — parent correctly under
  // the submitter's open span.
  obs::TraceContext context = obs::NewTraceContext();
  context.buffer = std::make_shared<obs::TraceBuffer>();
  const std::shared_ptr<obs::TraceBuffer> buffer = context.buffer;

  std::atomic<std::size_t> wrong_trace{0};
  std::atomic<std::size_t> outer_tasks{0};
  std::atomic<std::size_t> inner_tasks{0};
  [[maybe_unused]] std::uint64_t root_span = 0;
  {
    ThreadPool pool(4);
    const obs::ScopedTraceContext scoped(context);
    QDCBIR_SPAN("test.root");
#ifndef QDCBIR_DISABLE_OBS
    root_span = obs::CurrentTraceContext().span_id;
    ASSERT_NE(root_span, 0u);
#endif
    pool.ParallelFor(0, 8, [&](std::size_t) {
      const obs::TraceContext& outer = obs::CurrentTraceContext();
      if (outer.trace_hi != context.trace_hi ||
          outer.trace_lo != context.trace_lo) {
        wrong_trace.fetch_add(1);
      }
      outer_tasks.fetch_add(1);
      QDCBIR_SPAN("test.outer");
      pool.ParallelFor(0, 4, [&](std::size_t) {
        const obs::TraceContext& inner = obs::CurrentTraceContext();
        if (inner.trace_lo != context.trace_lo) wrong_trace.fetch_add(1);
        inner_tasks.fetch_add(1);
        QDCBIR_SPAN("test.leaf");
      });
    });
  }
  EXPECT_EQ(wrong_trace.load(), 0u);
  EXPECT_EQ(outer_tasks.load(), 8u);
  EXPECT_EQ(inner_tasks.load(), 32u);

#ifndef QDCBIR_DISABLE_OBS
  // The recorded tree must link leaf → outer → root exactly.
  const std::vector<obs::SpanRecord> spans = buffer->spans();
  std::set<std::uint64_t> outer_ids;
  std::size_t roots = 0, outers = 0, leaves = 0;
  for (const obs::SpanRecord& span : spans) {
    if (std::string(span.name) == "test.outer") outer_ids.insert(span.span_id);
  }
  for (const obs::SpanRecord& span : spans) {
    const std::string name = span.name;
    if (name == "test.root") {
      ++roots;
      EXPECT_EQ(span.span_id, root_span);
      EXPECT_EQ(span.parent_id, 0u);
    } else if (name == "test.outer") {
      ++outers;
      EXPECT_EQ(span.parent_id, root_span);
    } else if (name == "test.leaf") {
      ++leaves;
      EXPECT_TRUE(outer_ids.count(span.parent_id) == 1)
          << "leaf parented under unknown span " << span.parent_id;
    }
  }
  EXPECT_EQ(roots, 1u);
  EXPECT_EQ(outers, 8u);
  EXPECT_EQ(leaves, 32u);
  EXPECT_EQ(buffer->dropped(), 0u);
#endif
}

TEST(ThreadPoolTest, PostedTaskCarriesSubmitterTraceContext) {
  const obs::TraceContext trace = obs::NewTraceContext();
  obs::ResourceAccumulator resources;
  obs::AccessAccumulator access;
  // What each posted task saw; written on the pool's one worker, read
  // after the destructor joined it.
  std::vector<obs::TaskContext> seen;
  std::atomic<int> ran{0};
  const auto record = [&] {
    seen.push_back(obs::CaptureTaskContext());
    obs::CountLeafScan(7, 3, 24);
    ran.fetch_add(1);
  };
  {
    ThreadPool pool(2);
    {
      const obs::ScopedTaskContext scoped(
          obs::TaskContext{trace, "test.submit", &resources, &access});
      pool.Post(record);
    }
    // The submitter's scope ended; the task still runs under the captured
    // context. Once it has, a task posted outside any context runs on the
    // same worker and must inherit none of it.
    while (ran.load() == 0) std::this_thread::yield();
    pool.Post(record);
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].trace.trace_lo, trace.trace_lo);
  EXPECT_STREQ(seen[0].span, "test.submit");
  EXPECT_EQ(seen[0].resources, &resources);
  EXPECT_EQ(seen[0].access, &access);
  EXPECT_FALSE(seen[1].trace.has_trace_id());
  EXPECT_EQ(seen[1].span, nullptr);
  EXPECT_EQ(seen[1].resources, nullptr);
  EXPECT_EQ(seen[1].access, nullptr);
  // Only the first task's tap reached the sinks.
  EXPECT_EQ(resources.Snapshot().distance_evals, 3u);
#ifndef QDCBIR_DISABLE_OBS
  ASSERT_EQ(access.Snapshot().size(), 1u);
  EXPECT_EQ(access.Snapshot()[0].counts.scans, 1u);
#endif
}

TEST(ThreadPoolTest, PostedTaskFailureLogsUnderSubmitterTrace) {
  const obs::TraceContext trace = obs::NewTraceContext();
  obs::LogRing::Global().Clear();
  {
    ThreadPool pool(2);
    const obs::ScopedTraceContext scoped(trace);
    pool.Post([] { throw std::runtime_error("posted failure"); });
  }
  const std::vector<obs::LogEntry> entries = obs::LogRing::Global().Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].message, "posted task threw: posted failure");
  EXPECT_EQ(entries[0].trace_id, obs::TraceIdHex(trace));
}

TEST(ThreadPoolTest, GlobalPoolIsUsableAndStable) {
  ThreadPool& a = ThreadPool::Global();
  ThreadPool& b = ThreadPool::Global();
  EXPECT_EQ(&a, &b);
  std::atomic<int> hits{0};
  a.ParallelFor(0, 32, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 32);
}

}  // namespace
}  // namespace qdcbir
