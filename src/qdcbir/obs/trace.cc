#include "qdcbir/obs/trace.h"

#include <utility>
#include <vector>

#include "qdcbir/obs/json.h"

namespace qdcbir {
namespace obs {

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
