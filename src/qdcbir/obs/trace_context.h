#ifndef QDCBIR_OBS_TRACE_CONTEXT_H_
#define QDCBIR_OBS_TRACE_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "qdcbir/obs/span_stack.h"

namespace qdcbir {
namespace obs {

class TraceBuffer;

/// The request-scoped tracing identity of the calling thread: which trace
/// (128-bit id, W3C-compatible) the thread is currently working for, which
/// span is the innermost open one (the parent of any span opened next),
/// and the buffer that collects the trace's span tree. A default-constructed
/// context is inert: spans still record their histograms but no tree is
/// assembled.
///
/// Propagation: the context lives in a thread-local. `ThreadPool` captures
/// it at enqueue time and restores it around each task, so parent→child
/// span links survive the hop onto pool workers (including nested
/// `ParallelFor` and caller participation).
struct TraceContext {
  std::uint64_t trace_hi = 0;  ///< high 64 bits of the 128-bit trace id
  std::uint64_t trace_lo = 0;  ///< low 64 bits
  std::uint64_t span_id = 0;   ///< innermost open span (0 = trace root)
  /// Span-tree collector; null means "identified but not recorded".
  std::shared_ptr<TraceBuffer> buffer;

  bool has_trace_id() const { return (trace_hi | trace_lo) != 0; }
  bool recording() const { return buffer != nullptr; }
};

/// The calling thread's current context. The reference is to thread-local
/// storage: valid for the thread's lifetime, mutated by ScopedTraceContext
/// and by span construction/destruction.
TraceContext& MutableCurrentTraceContext();
inline const TraceContext& CurrentTraceContext() {
  return MutableCurrentTraceContext();
}

/// Installs `context` as the thread's current context for the enclosing
/// scope and restores the previous one on destruction. The thread-pool
/// task wrapper and the serve layer's request handlers use this; it nests.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext context)
      : saved_(std::move(MutableCurrentTraceContext())) {
    TraceContext& current = MutableCurrentTraceContext();
    current = std::move(context);
    // Mirror the trace id into the signal-safe span stack so profiler
    // samples can be joined with /tracez by trace id.
    SetCurrentSpanStackTrace(current.trace_hi, current.trace_lo);
  }

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

  ~ScopedTraceContext() {
    TraceContext& current = MutableCurrentTraceContext();
    current = std::move(saved_);
    SetCurrentSpanStackTrace(current.trace_hi, current.trace_lo);
  }

 private:
  TraceContext saved_;
};

/// A fresh context with a process-unique, well-mixed 128-bit trace id
/// (splitmix64 over a counter and the monotonic clock — not a CSPRNG,
/// collision-resistant enough for request correlation). `span_id` is 0 and
/// no buffer is attached.
TraceContext NewTraceContext();

/// Parses a W3C `traceparent` header (`00-<32 hex>-<16 hex>-<2 hex>`).
/// Returns false (leaving `*out` untouched) on any malformation, including
/// the all-zero trace id the spec declares invalid. On success `out->span_id`
/// carries the caller's parent span id and no buffer is attached.
bool ParseTraceparent(std::string_view header, TraceContext* out);

/// Formats `context` as a version-00 `traceparent` value with the sampled
/// flag set. The span id field renders `context.span_id` (0 becomes a
/// generated-looking but stable `0000000000000001`, since the spec forbids
/// all-zero parent ids).
std::string FormatTraceparent(const TraceContext& context);

/// The 32-lowercase-hex trace id, or "" when the context has none. The
/// one formatter of trace ids: audit records and profile samples carry the
/// two halves and format through the second overload.
std::string TraceIdHex(const TraceContext& context);
std::string TraceIdHex(std::uint64_t trace_hi, std::uint64_t trace_lo);

}  // namespace obs
}  // namespace qdcbir

#endif  // QDCBIR_OBS_TRACE_CONTEXT_H_
