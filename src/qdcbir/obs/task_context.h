#ifndef QDCBIR_OBS_TASK_CONTEXT_H_
#define QDCBIR_OBS_TASK_CONTEXT_H_

#include <utility>

#include "qdcbir/obs/access_stats.h"
#include "qdcbir/obs/resource_stats.h"
#include "qdcbir/obs/span_stack.h"
#include "qdcbir/obs/trace_context.h"

namespace qdcbir {
namespace obs {

/// What a unit of work carries for observability: its trace, the span that
/// scheduled it (so profiler samples attribute to it), and the sinks its
/// taps feed (the session's totals and its per-leaf rows). `ThreadPool`
/// captures one at enqueue and installs it around the task; each serve
/// request handler installs one built from its session.
struct TaskContext {
  TraceContext trace;
  const char* span = nullptr;  ///< innermost span name; nullptr = none
  ResourceAccumulator* resources = nullptr;
  AccessAccumulator* access = nullptr;
};

/// The calling thread's current context.
inline TaskContext CaptureTaskContext() {
  return TaskContext{CurrentTraceContext(), CurrentSpanName(),
                     CurrentResourceAccumulator(), CurrentAccessAccumulator()};
}

/// Installs `context` for the enclosing scope. On destruction it flushes
/// the deltas batched toward the context's sinks and restores the previous
/// context.
class ScopedTaskContext {
 public:
  explicit ScopedTaskContext(TaskContext context)
      : trace_(std::move(context.trace)),
        span_(context.span),
        resources_(context.resources),
        access_(context.access) {}

 private:
  const ScopedTraceContext trace_;
  const ScopedSpanTag span_;
  const ScopedResourceAccounting resources_;
  const ScopedAccessAccounting access_;
};

/// Merges this thread's pending deltas into both installed sinks now, for
/// a caller that reads them while its own scope is still open.
inline void FlushTaskContext() {
  FlushResourceAccounting();
  FlushAccessAccounting();
}

}  // namespace obs
}  // namespace qdcbir

#endif  // QDCBIR_OBS_TASK_CONTEXT_H_
