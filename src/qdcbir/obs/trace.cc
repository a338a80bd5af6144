#include "qdcbir/obs/trace.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "qdcbir/obs/clock.h"
#include "qdcbir/obs/json.h"

namespace qdcbir {
namespace obs {

Tracer& Tracer::Global() {
  static Tracer* tracer = [] {
    Tracer* t = new Tracer();
    if (const char* path = std::getenv("QDCBIR_TRACE")) {
      if (path[0] != '\0') {
        std::string error;
        if (t->Start(path, &error)) {
          // Flush whatever was recorded when the process exits. Spans that
          // fire during static teardown after the flush see enabled()
          // false and are dropped, never lost mid-file.
          std::atexit([] {
            // Tools that flush explicitly (tests, bench_micro) already
            // stopped the tracer; only flush what is still armed.
            if (!Tracer::Global().enabled()) return;
            std::string stop_error;
            if (!Tracer::Global().Stop(&stop_error)) {
              std::fprintf(stderr, "[qdcbir] trace flush failed: %s\n",
                           stop_error.c_str());
            }
          });
        } else {
          std::fprintf(stderr, "[qdcbir] QDCBIR_TRACE ignored: %s\n",
                       error.c_str());
        }
      }
    }
    return t;
  }();
  return *tracer;
}

bool Tracer::Start(const std::string& path, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (enabled_.load(std::memory_order_relaxed)) {
    if (error != nullptr) *error = "tracer already started (" + path_ + ")";
    return false;
  }
  path_ = path;
  start_ns_ = MonotonicNanos();
  events_.clear();
  events_.reserve(4096);
  enabled_.store(true, std::memory_order_release);
  return true;
}

void Tracer::Append(const char* name, char ph) {
  const std::uint64_t now = MonotonicNanos();
  const std::uint32_t tid = ThreadTid();
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  events_.push_back(Event{name, now, tid, ph});
}

void Tracer::Begin(const char* name) { Append(name, 'B'); }
void Tracer::End(const char* name) { Append(name, 'E'); }

std::size_t Tracer::buffered_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

bool Tracer::Stop(std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_.load(std::memory_order_relaxed)) {
    if (error != nullptr) *error = "tracer is not started";
    return false;
  }
  enabled_.store(false, std::memory_order_release);

  std::ofstream out(path_);
  if (!out) {
    if (error != nullptr) *error = "cannot open trace file: " + path_;
    events_.clear();
    return false;
  }
  // Spans that straddle Start()/Stop() leave a lone "E" (begin recorded
  // before arming) or a lone "B" (still open at flush). Drop those so the
  // emitted file always has balanced, well-nested pairs per thread.
  std::vector<bool> skip(events_.size(), false);
  std::map<std::uint32_t, std::vector<std::size_t>> open;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (e.ph == 'B') {
      open[e.tid].push_back(i);
    } else {
      std::vector<std::size_t>& stack = open[e.tid];
      if (stack.empty() || events_[stack.back()].name != e.name) {
        skip[i] = true;
      } else {
        stack.pop_back();
      }
    }
  }
  for (const auto& [tid, stack] : open) {
    for (const std::size_t i : stack) skip[i] = true;
  }

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  std::string line;
  bool first = true;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (skip[i]) continue;
    const Event& e = events_[i];
    line.assign(first ? "" : ",\n");
    first = false;
    JsonWriter w(&line);
    w.BeginObject();
    w.Key("name").String(e.name);
    w.Key("cat").String("qdcbir");
    w.Key("ph").String(std::string_view(&e.ph, 1));
    // Timestamps are microseconds (Chrome's unit) relative to Start(),
    // with nanosecond resolution kept in the fraction.
    w.Key("ts").Double(static_cast<double>(e.ts_ns - start_ns_) / 1e3,
                       "%.3f");
    w.Key("pid").Uint(1);
    w.Key("tid").Uint(e.tid);
    w.EndObject();
    out << line;
  }
  out << "\n]}\n";
  out.flush();
  events_.clear();
  if (!out) {
    if (error != nullptr) *error = "trace write failed: " + path_;
    return false;
  }
  return true;
}

namespace {

/// A tid as the validator keys and reports it: the number's shortest
/// decimal form, or the string itself.
std::string TidText(const JsonValue& tid) {
  if (!tid.is_number()) return tid.string;
  std::string out;
  JsonWriter(&out).Double(tid.number, "%.17g");
  return out;
}

}  // namespace

bool ValidateChromeTrace(const std::string& json, std::string* error,
                         std::map<std::string, std::size_t>* begin_counts) {
  std::string local_error;
  if (error == nullptr) error = &local_error;

  JsonValue doc;
  if (!ParseJson(json, &doc, error)) return false;
  const JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr) {
    *error = "no \"traceEvents\" key";
    return false;
  }
  if (!events->is_array()) {
    *error = "\"traceEvents\" is not an array";
    return false;
  }

  std::map<std::string, std::vector<std::string>> stacks;  // tid → B names
  std::map<std::string, double> last_ts;                   // tid → last ts
  std::map<std::string, std::size_t> counts;
  for (std::size_t index = 0; index < events->items.size(); ++index) {
    const JsonValue& event = events->items[index];
    const std::string at = " (event " + std::to_string(index) + ")";
    if (!event.is_object()) {
      *error = "expected event object" + at;
      return false;
    }
    for (const char* required : {"name", "ph", "ts", "tid"}) {
      if (event.Find(required) == nullptr) {
        *error = std::string("event missing \"") + required + "\"" + at;
        return false;
      }
    }
    const std::string& ph = event.Find("ph")->string;
    const std::string& name = event.Find("name")->string;
    const std::string tid = TidText(*event.Find("tid"));
    const JsonValue& ts_value = *event.Find("ts");
    const double ts = ts_value.number;
    if (!ts_value.is_number() || !(ts >= 0.0)) {
      *error = "bad ts" + at;
      return false;
    }
    const auto it = last_ts.find(tid);
    if (it != last_ts.end() && ts < it->second) {
      *error = "timestamps regress on tid " + tid + at;
      return false;
    }
    last_ts[tid] = ts;

    if (ph == "B") {
      stacks[tid].push_back(name);
      ++counts[name];
    } else if (ph == "E") {
      std::vector<std::string>& stack = stacks[tid];
      if (stack.empty()) {
        *error = "\"E\" event without matching \"B\" on tid " + tid + at;
        return false;
      }
      if (stack.back() != name) {
        *error = "mismatched span nesting on tid " + tid + ": \"" +
                 stack.back() + "\" closed by \"" + name + "\"" + at;
        return false;
      }
      stack.pop_back();
    } else if (ph != "I" && ph != "X" && ph != "M") {
      *error = "unsupported ph \"" + ph + "\"" + at;
      return false;
    }
  }
  for (const auto& [tid, stack] : stacks) {
    if (!stack.empty()) {
      *error = "unbalanced trace: " + std::to_string(stack.size()) +
               " open span(s) on tid " + tid + " (top: \"" + stack.back() +
               "\")";
      return false;
    }
  }
  if (begin_counts != nullptr) *begin_counts = std::move(counts);
  return true;
}

}  // namespace obs
}  // namespace qdcbir
