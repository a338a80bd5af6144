#ifndef QDCBIR_OBS_SPAN_H_
#define QDCBIR_OBS_SPAN_H_

#include "qdcbir/obs/clock.h"
#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/span_stack.h"
#include "qdcbir/obs/trace_context.h"
#include "qdcbir/obs/trace_tree.h"

namespace qdcbir {
namespace obs {

/// RAII phase marker. On destruction it records the span's wall-time into
/// its latency histogram (`span.<name>`, nanoseconds). When the calling
/// thread carries a recording `TraceContext` (a serve request with tree
/// capture on), the span additionally registers itself as the thread's
/// innermost span for its lifetime and appends a `SpanRecord` (name,
/// start, end, tid) — parent links come from the context, so trees stay
/// correct across the thread pool's capture/restore.
/// Instantiate through `QDCBIR_SPAN` — the macro resolves the histogram
/// once per call site, so steady-state cost is two clock reads, one push
/// and pop of the span stack, one thread-local check for tree capture and
/// one sharded histogram increment (~tens of nanoseconds).
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Histogram& histogram)
      : name_(name), histogram_(histogram), start_ns_(MonotonicNanos()) {
    // Always mirrored onto the signal-safe span stack, so the sampling
    // profiler can attribute CPU samples even when no trace is recording.
    CurrentSpanStack().Push(name_);
    TraceContext& context = MutableCurrentTraceContext();
    if (context.buffer != nullptr) {
      parent_id_ = context.span_id;
      span_id_ = context.buffer->NewSpanId();
      context.span_id = span_id_;
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    CurrentSpanStack().Pop();
    const std::uint64_t end_ns = MonotonicNanos();
    if (span_id_ != 0) {
      TraceContext& context = MutableCurrentTraceContext();
      // Spans and context scopes nest strictly, so the buffer seen here is
      // the one the constructor allocated the id from.
      if (context.buffer != nullptr) {
        context.buffer->Append(SpanRecord{span_id_, parent_id_, name_,
                                          start_ns_, end_ns, ThreadTid()});
        context.span_id = parent_id_;
      }
    }
    histogram_.Record(end_ns - start_ns_);
  }

 private:
  const char* name_;
  Histogram& histogram_;
  std::uint64_t start_ns_;
  std::uint64_t span_id_ = 0;  ///< 0 = no tree capture at construction
  std::uint64_t parent_id_ = 0;
};

/// Attaches `key = value` to the thread's innermost open span (no-op when
/// no tree is being captured). The per-subquery spans use this for leaf /
/// search-node attribution on `/tracez`.
inline void AnnotateCurrentSpan(const char* key, std::int64_t value) {
  TraceContext& context = MutableCurrentTraceContext();
  if (context.buffer != nullptr && context.span_id != 0) {
    context.buffer->Annotate(context.span_id, key, value);
  }
}

}  // namespace obs
}  // namespace qdcbir

/// `QDCBIR_SPAN("qd.finalize.subquery");` times the enclosing scope.
/// `name` must be a string literal (span records store the pointer). Span
/// taxonomy lives in docs/observability.md. Building with
/// -DQDCBIR_DISABLE_OBS compiles every span to nothing.
#ifndef QDCBIR_DISABLE_OBS
#define QDCBIR_SPAN(name) QDCBIR_SPAN_IMPL_(name, __COUNTER__)
#define QDCBIR_SPAN_IMPL_(name, counter) QDCBIR_SPAN_IMPL2_(name, counter)
#define QDCBIR_SPAN_IMPL2_(name, counter)                              \
  static ::qdcbir::obs::Histogram& qdcbir_span_hist_##counter =        \
      ::qdcbir::obs::MetricsRegistry::Global().SpanHistogram(name);    \
  const ::qdcbir::obs::ScopedSpan qdcbir_span_##counter(               \
      name, qdcbir_span_hist_##counter)
/// `QDCBIR_SPAN_ANNOTATE("leaf", leaf_id);` tags the innermost open span.
/// `key` must be a string literal; compiles to nothing with the spans.
#define QDCBIR_SPAN_ANNOTATE(key, value) \
  ::qdcbir::obs::AnnotateCurrentSpan((key), static_cast<std::int64_t>(value))
#else
#define QDCBIR_SPAN(name) \
  do {                    \
  } while (false)
#define QDCBIR_SPAN_ANNOTATE(key, value) \
  do {                                   \
  } while (false)
#endif

#endif  // QDCBIR_OBS_SPAN_H_
