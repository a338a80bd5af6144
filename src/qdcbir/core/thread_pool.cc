#include "qdcbir/core/thread_pool.h"

#include <cstdlib>
#include <string>
#include <utility>

#include "qdcbir/obs/clock.h"
#include "qdcbir/obs/log.h"
#include "qdcbir/obs/profiler.h"

namespace qdcbir {

namespace {

/// Single source of truth behind the `pool.queue_depth` gauge, shared by
/// every pool. The gauge is published with `Set()` (an absolute
/// single-shard store) instead of sharded `Add()` deltas: with deltas, a
/// scrape can sum a worker's decrement shard before the submitter's
/// increment shard and report a negative depth. Each increment happens
/// before its task is visible to workers, so this counter never goes
/// below zero.
std::atomic<std::int64_t> g_queued_tasks{0};

}  // namespace

std::size_t ThreadPool::DefaultThreadCount() {
  if (const char* env = std::getenv("QDCBIR_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed > 0) return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<std::size_t>(hw) : 1;
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(DefaultThreadCount());
  return pool;
}

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads > 0 ? threads : DefaultThreadCount()),
      queue_depth_(obs::MetricsRegistry::Global().GetGauge(
          "pool.queue_depth",
          "Tasks enqueued on any thread pool but not yet started")),
      task_wait_ns_(obs::MetricsRegistry::Global().GetHistogram(
          "pool.task.wait_ns",
          "Queue wait of a pool task from enqueue to first run")),
      task_run_ns_(obs::MetricsRegistry::Global().GetHistogram(
          "pool.task.run_ns", "Execution wall time of one pool task")),
      tasks_executed_(obs::MetricsRegistry::Global().GetCounter(
          "pool.tasks.executed", "Pool tasks run to completion")),
      busy_ns_(obs::MetricsRegistry::Global().GetCounter(
          "pool.worker.busy_ns",
          "Total wall time pool lanes spent executing tasks")) {
  workers_.reserve(threads_ - 1);
  for (std::size_t i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  // Every pool lane is sampleable: when the profiler is (or becomes)
  // active, this worker gets a CPU-time timer; the RAII guard disarms it
  // before the thread exits.
  const obs::ScopedThreadProfiling profiling;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ set and nothing left to run
    RunOneTask(lock);
  }
}

bool ThreadPool::RunOneTask(std::unique_lock<std::mutex>& lock) {
  if (queue_.empty()) return false;
  // LIFO: nested batches enqueue last and complete first, which bounds the
  // queue depth under recursive ParallelFor use.
  Task task = std::move(queue_.back());
  queue_.pop_back();
  // Published under mu_ so this pool's depth history is exact.
  queue_depth_.Set(g_queued_tasks.fetch_sub(1, std::memory_order_relaxed) -
                   1);
  lock.unlock();

  task_wait_ns_.Record(obs::MonotonicNanos() - task.enqueue_ns);
  std::exception_ptr error;
  {
    // Adopt the submitter's context for the task's duration, then restore
    // this lane's own: a worker interleaving tasks of different requests
    // must never cross their span trees, profiler tags or work sinks.
    const obs::ScopedTaskContext scoped(std::move(task.context));
    error = Execute(task.fn, task.batch->detached);
  }

  lock.lock();
  if (error && !task.batch->error) task.batch->error = error;
  if (--task.batch->pending == 0) done_cv_.notify_all();
  return true;
}

std::exception_ptr ThreadPool::Execute(const std::function<void()>& fn,
                                       bool detached) {
  std::exception_ptr error;
  const std::uint64_t start_ns = obs::MonotonicNanos();
  try {
    fn();
  } catch (const std::exception& e) {
    error = std::current_exception();
    if (detached) {
      QDCBIR_LOG(obs::LogLevel::kError,
                 std::string("posted task threw: ") + e.what());
    }
  } catch (...) {
    error = std::current_exception();
    if (detached) {
      QDCBIR_LOG(obs::LogLevel::kError,
                 "posted task threw a non-std exception");
    }
  }
  const std::uint64_t run_ns = obs::MonotonicNanos() - start_ns;
  task_run_ns_.Record(run_ns);
  busy_ns_.Add(run_ns);
  tasks_executed_.Add(1);
  return error;
}

void ThreadPool::Post(std::function<void()> task) {
  if (threads_ <= 1) {
    Execute(task, /*detached=*/true);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->pending = 1;
  batch->detached = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_depth_.Set(g_queued_tasks.fetch_add(1, std::memory_order_relaxed) +
                     1);
    queue_.push_back(Task{std::move(task), std::move(batch),
                          obs::MonotonicNanos(), obs::CaptureTaskContext()});
  }
  work_cv_.notify_one();
}

void ThreadPool::Run(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (threads_ <= 1 || tasks.size() == 1) {
    // Inline path: no queue, but the same telemetry and the same contract
    // as the queued path: every task runs, then the first error rethrows.
    std::exception_ptr first_error;
    for (const std::function<void()>& task : tasks) {
      std::exception_ptr error = Execute(task, /*detached=*/false);
      if (error && !first_error) first_error = std::move(error);
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->pending = tasks.size();
  const std::uint64_t enqueue_ns = obs::MonotonicNanos();
  const obs::TaskContext context = obs::CaptureTaskContext();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The gauge goes up before any worker can pop a task (the pop needs
    // this same lock): a concurrent scrape must never observe more
    // decrements than increments (a transiently negative queue depth).
    queue_depth_.Set(
        g_queued_tasks.fetch_add(static_cast<std::int64_t>(tasks.size()),
                                 std::memory_order_relaxed) +
        static_cast<std::int64_t>(tasks.size()));
    for (std::function<void()>& task : tasks) {
      queue_.push_back(Task{std::move(task), batch, enqueue_ns, context});
    }
  }
  work_cv_.notify_all();
  // New tasks may be stolen by waiting submitters of outer batches.
  done_cv_.notify_all();

  std::unique_lock<std::mutex> lock(mu_);
  while (batch->pending > 0) {
    if (RunOneTask(lock)) continue;  // help: run any queued task
    done_cv_.wait(lock,
                  [&] { return batch->pending == 0 || !queue_.empty(); });
  }
  const std::exception_ptr error = batch->error;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace qdcbir
