#include "qdcbir/obs/trace_tree.h"

#include <algorithm>
#include <map>

#include "qdcbir/obs/json.h"
#include "qdcbir/obs/metrics.h"

namespace qdcbir {
namespace obs {

void TraceBuffer::Append(const SpanRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    // Cold path only: the registered reference is cached so a trace stuck
    // at capacity doesn't re-walk the registry map per span.
    static Counter& dropped_counter = MetricsRegistry::Global().GetCounter(
        "trace.spans.dropped",
        "Spans dropped because a trace's span buffer was full");
    dropped_counter.Add(1);
    return;
  }
  spans_.push_back(record);
}

void TraceBuffer::Annotate(std::uint64_t span_id, const char* key,
                           std::int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (annotations_.size() >= kMaxSpans) {
    static Counter& dropped_counter = MetricsRegistry::Global().GetCounter(
        "trace.annotations.dropped",
        "Span annotations dropped because a trace's buffer was full");
    dropped_counter.Add(1);
    return;
  }
  annotations_.push_back(SpanAnnotation{span_id, key, value});
}

std::vector<SpanRecord> TraceBuffer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<SpanAnnotation> TraceBuffer::annotations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return annotations_;
}

std::uint64_t TraceBuffer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceStore::Publish(CompletedTrace trace) {
  std::lock_guard<std::mutex> lock(mu_);
  ++published_;
  std::deque<CompletedTrace>& bucket =
      trace.reason == "slow" ? slow_ : sampled_;
  bucket.push_back(std::move(trace));
  if (bucket.size() > kKeepPerReason) bucket.pop_front();
}

std::vector<CompletedTrace> TraceStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CompletedTrace> out;
  out.reserve(sampled_.size() + slow_.size());
  out.insert(out.end(), sampled_.begin(), sampled_.end());
  out.insert(out.end(), slow_.begin(), slow_.end());
  return out;
}

std::uint64_t TraceStore::total_published() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_;
}

void TraceStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  sampled_.clear();
  slow_.clear();
}

namespace {

/// Renders the subtree rooted at span index `idx` (children in start-time
/// order), computing self time as duration minus the direct children's
/// summed durations.
void WriteSpanTree(
    JsonWriter* w, const CompletedTrace& trace, std::size_t idx,
    const std::multimap<std::uint64_t, std::size_t>& children_of,
    const std::multimap<std::uint64_t, const SpanAnnotation*>& notes_of) {
  const SpanRecord& span = trace.spans[idx];
  const std::uint64_t duration =
      span.end_ns >= span.start_ns ? span.end_ns - span.start_ns : 0;

  std::uint64_t child_ns = 0;
  std::vector<std::size_t> kids;
  const auto [lo, hi] = children_of.equal_range(span.span_id);
  for (auto it = lo; it != hi; ++it) {
    const SpanRecord& child = trace.spans[it->second];
    child_ns += child.end_ns >= child.start_ns
                    ? child.end_ns - child.start_ns
                    : 0;
    kids.push_back(it->second);
  }
  std::sort(kids.begin(), kids.end(), [&trace](std::size_t a, std::size_t b) {
    if (trace.spans[a].start_ns != trace.spans[b].start_ns) {
      return trace.spans[a].start_ns < trace.spans[b].start_ns;
    }
    return trace.spans[a].span_id < trace.spans[b].span_id;
  });
  // Parallel children can overlap, so their sum may exceed the parent's
  // wall time; self time clamps at zero rather than going negative.
  const std::uint64_t self_ns = child_ns < duration ? duration - child_ns : 0;

  w->BeginObject();
  w->Key("name").String(span.name != nullptr ? span.name : "");
  w->Key("span_id").Uint(span.span_id);
  w->Key("tid").Uint(span.tid);
  w->Key("start_ns").Uint(span.start_ns);
  w->Key("duration_ns").Uint(duration);
  w->Key("self_ns").Uint(self_ns);

  const auto [nlo, nhi] = notes_of.equal_range(span.span_id);
  if (nlo != nhi) {
    w->Key("annotations").BeginObject();
    for (auto it = nlo; it != nhi; ++it) {
      w->Key(it->second->key != nullptr ? it->second->key : "")
          .Int(it->second->value);
    }
    w->EndObject();
  }

  w->Key("children").BeginArray();
  for (const std::size_t kid : kids) {
    WriteSpanTree(w, trace, kid, children_of, notes_of);
  }
  w->EndArray().EndObject();
}

}  // namespace

std::string TraceStore::RenderJson() const {
  const std::vector<CompletedTrace> traces = Snapshot();
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("total_published").Uint(total_published());
  w.Key("traces").BeginArray();
  for (const CompletedTrace& trace : traces) {
    // span_id → index, then children grouped by parent. Spans whose parent
    // never closed (or was dropped) surface as roots instead of vanishing.
    std::map<std::uint64_t, std::size_t> by_id;
    for (std::size_t i = 0; i < trace.spans.size(); ++i) {
      by_id.emplace(trace.spans[i].span_id, i);
    }
    std::multimap<std::uint64_t, std::size_t> children_of;
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < trace.spans.size(); ++i) {
      const std::uint64_t parent = trace.spans[i].parent_id;
      if (parent != 0 && by_id.count(parent) != 0) {
        children_of.emplace(parent, i);
      } else {
        roots.push_back(i);
      }
    }
    std::sort(roots.begin(), roots.end(),
              [&trace](std::size_t a, std::size_t b) {
                if (trace.spans[a].start_ns != trace.spans[b].start_ns) {
                  return trace.spans[a].start_ns < trace.spans[b].start_ns;
                }
                return trace.spans[a].span_id < trace.spans[b].span_id;
              });
    std::multimap<std::uint64_t, const SpanAnnotation*> notes_of;
    for (const SpanAnnotation& note : trace.annotations) {
      notes_of.emplace(note.span_id, &note);
    }

    w.BeginObject();
    w.Key("trace_id").String(trace.trace_id);
    w.Key("label").String(trace.label);
    w.Key("reason").String(trace.reason);
    w.Key("total_ns").Uint(trace.total_ns);
    w.Key("span_count").Uint(trace.spans.size());
    w.Key("dropped_spans").Uint(trace.dropped_spans);
    w.Key("spans").BeginArray();
    for (const std::size_t root : roots) {
      WriteSpanTree(&w, trace, root, children_of, notes_of);
    }
    w.EndArray().EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

TraceStore& TraceStore::Global() {
  static TraceStore* store = new TraceStore();
  return *store;
}

}  // namespace obs
}  // namespace qdcbir
