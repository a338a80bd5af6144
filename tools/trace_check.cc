// Validates observability artifacts produced by an instrumented run:
//
//   trace_check --trace=<chrome_trace.json>
//               [--require-span=<name>[:min_count]]...
//               [--metrics=<metrics.json>] [--prom=<metrics.prom>]
//               [--require-metric=<name>[:min]]...
//
// The trace file must be valid Chrome trace_event JSON with balanced,
// properly nested B/E pairs per thread (the same contract enforced by the
// obs unit tests). Each --require-span name must appear at least once as a
// begin event — or at least min_count times when the spec carries a colon
// suffix. The metrics file, when given, must be a non-empty JSON
// object with the registry's three top-level sections. The prom file must
// be well-formed Prometheus text exposition: every sample preceded by its
// # TYPE line, no duplicate or interleaved families, histogram buckets
// cumulative and monotonic and closed by a +Inf bucket equal to _count;
// OpenMetrics exemplars are allowed on histogram bucket samples only and
// any trace_id exemplar label must be 32 lowercase hex characters.
// Each --require-metric names a sample that must exist, optionally with a
// minimum value after a colon. With --prom it matches exposition sample
// names (qdcbir_dist_block_batch); with only --metrics it matches the
// registry's dotted counter names in the JSON snapshot (dist.block.batch)
// and each histogram's count as <name>.count (span.qd.finalize.merge.count,
// which matches qdcbir_span_qd_finalize_merge_count under --prom).
//
// Latency-percentile gates run against the same --prom scrape:
//
//   --require-quantile=<hist>:<p>:<max>
//
// reads the histogram family's cumulative `_bucket{le="..."}` samples and
// fails when the p-th percentile (p as 95 or 0.95) exceeds max. The value
// reported is the matched bucket's upper bound, so the gate inherits the
// HDR layout's bounded relative error.
//
// Index-access gates read a /indexz scrape:
//
//   --indexz=<indexz.json> [--require-leaf-scans=N]
//           [--require-coaccess-pairs=N]
//
// The document must carry the tree/leaves/access/coaccess sections.
// --require-leaf-scans gates the access totals' scan count (table-scan
// bucket excluded), --require-coaccess-pairs the number of reported
// co-access pairs.
//
//   trace_check --profile=<profile.collapsed>
//               [--require-profile-samples=N]
//               [--require-profile-span=<prefix>[:min]]...
//
// The profile file must be flamegraph collapsed-stack text: one
// `frame;frame;...;frame count` line per distinct stack, positive integer
// counts. --require-profile-samples gates the total sample count;
// each --require-profile-span requires at least min (default 1) samples
// whose root frame — the span the profiler attributed the sample to —
// starts with the given prefix ("qd." matches every engine-phase span).
// Every JSON artifact is read with the repository's one JSON reader
// (obs/json.h), so a document that does not parse fails its gate.
// Exit code 0 means all checks passed; diagnostics go to stderr. Any
// argument but the flags above as --<flag>=<value> prints the usage and
// exits 1, so a misspelt gate cannot pass unchecked. CI runs
// this against the bench_micro and serve-smoke artifacts so a
// silently-broken exporter (or a profiler that stopped attributing
// samples) fails the build.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "qdcbir/obs/json.h"
#include "qdcbir/obs/prom_export.h"
#include "qdcbir/obs/trace.h"

namespace {

using qdcbir::obs::JsonValue;
using qdcbir::obs::ParseJson;

/// Every flag name main() reads; any other argument is rejected.
std::set<std::string> g_flags_read;

std::vector<std::string> FlagList(int argc, char** argv,
                                  const std::string& name) {
  g_flags_read.insert(name);
  const std::string prefix = "--" + name + "=";
  std::vector<std::string> out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) out.push_back(arg.substr(prefix.size()));
  }
  return out;
}

std::string Flag(int argc, char** argv, const std::string& name) {
  const std::vector<std::string> values = FlagList(argc, argv, name);
  return values.empty() ? "" : values.front();
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

/// Reads `path` and parses it as one JSON document; prints a diagnostic
/// naming the artifact `kind` and returns false when either step fails.
bool ReadJsonFile(const std::string& path, const char* kind, JsonValue* doc) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "cannot read %s file: %s\n", kind, path.c_str());
    return false;
  }
  std::string error;
  if (!ParseJson(text, doc, &error)) {
    std::fprintf(stderr, "%s file %s is not valid JSON: %s\n", kind,
                 path.c_str(), error.c_str());
    return false;
  }
  return true;
}

/// `object[key]` when it is a number, else nullptr.
const JsonValue* NumberAt(const JsonValue* object, const char* key) {
  const JsonValue* value = object != nullptr ? object->Find(key) : nullptr;
  return value != nullptr && value->is_number() ? value : nullptr;
}

/// Checks one `name[:min]` spec against the parsed samples; prints the
/// matched value or a diagnostic naming `source`.
bool CheckRequiredMetric(const std::string& spec,
                         const std::map<std::string, double>& samples,
                         const char* source) {
  std::string name = spec;
  double min_value = 0.0;
  bool has_min = false;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    name = spec.substr(0, colon);
    min_value = std::strtod(spec.c_str() + colon + 1, nullptr);
    has_min = true;
  }
  auto it = samples.find(name);
  if (it == samples.end()) {
    // Dotted registry names are accepted against exposition samples too:
    // access.leaf.scans matches qdcbir_access_leaf_scans, so CI specs stay
    // the same whether they gate the JSON snapshot or the prom scrape.
    it = samples.find(qdcbir::obs::PrometheusName(name));
  }
  if (it == samples.end()) {
    std::fprintf(stderr, "required metric missing from %s: %s\n", source,
                 name.c_str());
    return false;
  }
  if (has_min && it->second < min_value) {
    std::fprintf(stderr, "metric %s = %g below required minimum %g\n",
                 name.c_str(), it->second, min_value);
    return false;
  }
  std::printf("  metric %-40s %g%s\n", name.c_str(), it->second,
              has_min ? " (>= min)" : "");
  return true;
}

/// Cumulative `(le, count)` buckets of one histogram family in exposition
/// text, in document order (exemplar suffixes after " # " are ignored).
/// The +Inf bucket is included with le = infinity.
std::vector<std::pair<double, double>> ParsePromBuckets(
    const std::string& text, const std::string& family) {
  std::vector<std::pair<double, double>> buckets;
  const std::string prefix = family + "_bucket{le=\"";
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t le_begin = prefix.size();
    const std::size_t le_end = line.find('"', le_begin);
    if (le_end == std::string::npos) continue;
    const std::string le_text = line.substr(le_begin, le_end - le_begin);
    double le = 0.0;
    if (le_text == "+Inf") {
      le = std::numeric_limits<double>::infinity();
    } else {
      char* end = nullptr;
      le = std::strtod(le_text.c_str(), &end);
      if (end == le_text.c_str()) continue;
    }
    std::size_t value_begin = line.find(' ', le_end);
    if (value_begin == std::string::npos) continue;
    ++value_begin;
    char* end = nullptr;
    const double count = std::strtod(line.c_str() + value_begin, &end);
    if (end == line.c_str() + value_begin) continue;
    buckets.emplace_back(le, count);
  }
  return buckets;
}

/// Checks one `<hist>:<p>:<max>` quantile spec against exposition text.
bool CheckRequiredQuantile(const std::string& spec, const std::string& text) {
  const std::size_t c2 = spec.rfind(':');
  const std::size_t c1 = c2 == std::string::npos ? std::string::npos
                                                 : spec.rfind(':', c2 - 1);
  if (c1 == std::string::npos || c1 == 0 || c2 <= c1 + 1 ||
      c2 + 1 >= spec.size()) {
    std::fprintf(stderr,
                 "bad --require-quantile spec (want <hist>:<p>:<max>): %s\n",
                 spec.c_str());
    return false;
  }
  const std::string family = spec.substr(0, c1);
  double p = std::strtod(spec.c_str() + c1 + 1, nullptr);
  if (p > 1.0) p /= 100.0;  // accept 95 and 0.95
  const double max_value = std::strtod(spec.c_str() + c2 + 1, nullptr);
  if (p <= 0.0 || p > 1.0) {
    std::fprintf(stderr, "quantile p out of range in spec: %s\n",
                 spec.c_str());
    return false;
  }
  const std::vector<std::pair<double, double>> buckets =
      ParsePromBuckets(text, family);
  if (buckets.empty()) {
    std::fprintf(stderr, "histogram %s has no _bucket samples\n",
                 family.c_str());
    return false;
  }
  const double total = buckets.back().second;
  if (total <= 0.0) {
    std::fprintf(stderr, "histogram %s is empty\n", family.c_str());
    return false;
  }
  // The percentile's value is the upper bound of the first bucket whose
  // cumulative count reaches p*total (the exposition form is cumulative).
  const double target = p * total;
  double value = buckets.back().first;
  for (const auto& [le, count] : buckets) {
    if (count >= target) {
      value = le;
      break;
    }
  }
  if (value > max_value) {
    std::fprintf(stderr, "quantile %s p%g = %g exceeds max %g\n",
                 family.c_str(), p * 100.0, value, max_value);
    return false;
  }
  std::printf("  quantile %-32s p%-4g %g (<= %g)\n", family.c_str(),
              p * 100.0, value, max_value);
  return true;
}

/// One parsed collapsed-stack line: the root (span) frame and the count.
struct CollapsedStack {
  std::string root;
  std::uint64_t count = 0;
};

/// Parses flamegraph collapsed-stack text. Returns false (with a
/// diagnostic in `*error`) on structurally broken lines: no space-separated
/// trailing count, a non-positive count, or an empty stack.
bool ParseCollapsed(const std::string& text,
                    std::vector<CollapsedStack>* out, std::string* error) {
  std::size_t line_no = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 ||
        space + 1 >= line.size()) {
      *error = "line " + std::to_string(line_no) +
               ": expected 'stack count'";
      return false;
    }
    char* end = nullptr;
    const unsigned long long count =
        std::strtoull(line.c_str() + space + 1, &end, 10);
    if (count == 0 || end != line.c_str() + line.size()) {
      *error = "line " + std::to_string(line_no) +
               ": count must be a positive integer";
      return false;
    }
    CollapsedStack stack;
    const std::size_t semi = line.find(';');
    stack.root = line.substr(0, semi == std::string::npos || semi > space
                                    ? space
                                    : semi);
    if (stack.root.empty()) {
      *error = "line " + std::to_string(line_no) + ": empty root frame";
      return false;
    }
    stack.count = count;
    out->push_back(std::move(stack));
  }
  return true;
}

/// Validates a /indexz scrape and its optional gates: the structural
/// sections, a minimum on the access totals' scan count, and a minimum on
/// the co-access pair count.
bool CheckIndexz(const JsonValue& doc, const std::string& path,
                 const std::string& min_scans_spec,
                 const std::string& min_pairs_spec) {
  for (const char* section : {"tree", "leaves", "access", "coaccess"}) {
    if (doc.Find(section) == nullptr) {
      std::fprintf(stderr, "indexz file %s missing section \"%s\"\n",
                   path.c_str(), section);
      return false;
    }
  }
  // The access rollup's totals (table-scan bucket excluded).
  const JsonValue* scans =
      NumberAt(doc.Find("access")->Find("totals"), "scans");
  if (scans == nullptr) {
    std::fprintf(stderr, "indexz file %s carries no access rollup\n",
                 path.c_str());
    return false;
  }
  const double total_scans = scans->number;
  const JsonValue* pairs = doc.Find("coaccess")->Find("pairs");
  const std::size_t pair_count = pairs != nullptr ? pairs->items.size() : 0;
  std::printf("indexz ok: %s (%g leaf scans, %zu co-access pairs)\n",
              path.c_str(), total_scans, pair_count);
  if (!min_scans_spec.empty()) {
    const double min_scans = std::strtod(min_scans_spec.c_str(), nullptr);
    if (total_scans < min_scans) {
      std::fprintf(stderr, "indexz leaf scans %g below required %g\n",
                   total_scans, min_scans);
      return false;
    }
    std::printf("  leaf scans %g (>= %g)\n", total_scans, min_scans);
  }
  if (!min_pairs_spec.empty()) {
    const std::size_t min_pairs = static_cast<std::size_t>(
        std::strtoull(min_pairs_spec.c_str(), nullptr, 10));
    if (pair_count < min_pairs) {
      std::fprintf(stderr, "indexz co-access pairs %zu below required %zu\n",
                   pair_count, min_pairs);
      return false;
    }
    std::printf("  co-access pairs %zu (>= %zu)\n", pair_count, min_pairs);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path = Flag(argc, argv, "trace");
  const std::string metrics_path = Flag(argc, argv, "metrics");
  const std::string prom_path = Flag(argc, argv, "prom");
  const std::string profile_path = Flag(argc, argv, "profile");
  const std::vector<std::string> required = FlagList(argc, argv,
                                                     "require-span");
  const std::vector<std::string> required_metrics =
      FlagList(argc, argv, "require-metric");
  const std::string required_samples_spec =
      Flag(argc, argv, "require-profile-samples");
  const std::vector<std::string> required_profile_spans =
      FlagList(argc, argv, "require-profile-span");
  const std::vector<std::string> required_quantiles =
      FlagList(argc, argv, "require-quantile");
  const std::string indexz_path = Flag(argc, argv, "indexz");
  const std::string required_leaf_scans =
      Flag(argc, argv, "require-leaf-scans");
  const std::string required_coaccess_pairs =
      Flag(argc, argv, "require-coaccess-pairs");
  // Every flag has been read above, so g_flags_read is complete.
  bool unknown_flag = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos ||
        g_flags_read.count(arg.substr(2, eq - 2)) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      unknown_flag = true;
    }
  }
  if (unknown_flag || (trace_path.empty() && metrics_path.empty() &&
                       prom_path.empty() && profile_path.empty() &&
                       indexz_path.empty())) {
    std::fprintf(stderr,
                 "usage: trace_check --trace=<file>"
                 " [--require-span=<name>[:min_count]]\n"
                 "                   [--metrics=<file>] [--prom=<file>]"
                 " [--require-metric=<name>[:min]]\n"
                 "                   "
                 "[--require-quantile=<hist>:<p>:<max>]\n"
                 "                   [--profile=<collapsed file>]"
                 " [--require-profile-samples=N]\n"
                 "                   "
                 "[--require-profile-span=<prefix>[:min]]\n"
                 "                   [--indexz=<file>]"
                 " [--require-leaf-scans=N]"
                 " [--require-coaccess-pairs=N]\n");
    return 1;
  }
  if ((!required_leaf_scans.empty() || !required_coaccess_pairs.empty()) &&
      indexz_path.empty()) {
    std::fprintf(stderr,
                 "--require-leaf-scans/--require-coaccess-pairs need "
                 "--indexz=<file>\n");
    return 1;
  }
  if (!required_metrics.empty() && prom_path.empty() &&
      metrics_path.empty()) {
    std::fprintf(stderr,
                 "--require-metric needs --prom=<file> or --metrics=<file>\n");
    return 1;
  }
  if (!required_quantiles.empty() && prom_path.empty()) {
    std::fprintf(stderr, "--require-quantile needs --prom=<file>\n");
    return 1;
  }

  if (!trace_path.empty()) {
    std::string json;
    if (!ReadFile(trace_path, &json)) {
      std::fprintf(stderr, "cannot read trace file: %s\n", trace_path.c_str());
      return 1;
    }
    std::string error;
    std::map<std::string, std::size_t> begin_counts;
    if (!qdcbir::obs::ValidateChromeTrace(json, &error, &begin_counts)) {
      std::fprintf(stderr, "invalid trace %s: %s\n", trace_path.c_str(),
                   error.c_str());
      return 1;
    }
    std::size_t total = 0;
    for (const auto& [name, count] : begin_counts) total += count;
    std::printf("trace ok: %zu spans across %zu distinct names\n", total,
                begin_counts.size());
    for (const std::string& spec : required) {
      std::string name = spec;
      std::size_t min_count = 1;
      const std::size_t colon = spec.rfind(':');
      if (colon != std::string::npos) {
        name = spec.substr(0, colon);
        min_count = static_cast<std::size_t>(
            std::strtoull(spec.c_str() + colon + 1, nullptr, 10));
        if (min_count == 0) min_count = 1;
      }
      const auto it = begin_counts.find(name);
      const std::size_t count = it == begin_counts.end() ? 0 : it->second;
      if (count < min_count) {
        std::fprintf(stderr,
                     "required span %s: %zu occurrence(s), need >= %zu\n",
                     name.c_str(), count, min_count);
        return 1;
      }
      std::printf("  span %-32s x%zu (>= %zu)\n", name.c_str(), count,
                  min_count);
    }
  }

  if (!metrics_path.empty()) {
    JsonValue doc;
    if (!ReadJsonFile(metrics_path, "metrics", &doc)) return 1;
    for (const char* section : {"counters", "gauges", "histograms"}) {
      const JsonValue* value = doc.Find(section);
      if (value == nullptr || !value->is_object()) {
        std::fprintf(stderr, "metrics file %s missing section \"%s\"\n",
                     metrics_path.c_str(), section);
        return 1;
      }
    }
    const JsonValue& counters = *doc.Find("counters");
    std::printf("metrics ok: %s (%zu counters)\n", metrics_path.c_str(),
                counters.fields.size());
    // Prom exposition takes precedence for --require-metric when both
    // artifacts are given (it is the exported, scrape-facing view).
    if (!required_metrics.empty() && prom_path.empty()) {
      std::map<std::string, double> samples;
      for (const auto& [name, value] : counters.fields) {
        if (value.is_number()) samples[name] = value.number;
      }
      for (const auto& [name, histogram] : doc.Find("histograms")->fields) {
        if (const JsonValue* count = NumberAt(&histogram, "count")) {
          samples[name + ".count"] = count->number;
        }
      }
      for (const std::string& spec : required_metrics) {
        if (!CheckRequiredMetric(spec, samples, "metrics json")) return 1;
      }
    }
  }

  if (!prom_path.empty()) {
    std::string text;
    if (!ReadFile(prom_path, &text)) {
      std::fprintf(stderr, "cannot read prom file: %s\n", prom_path.c_str());
      return 1;
    }
    std::string error;
    std::map<std::string, double> samples;
    std::vector<std::string> exemplar_trace_ids;
    if (!qdcbir::obs::ValidatePrometheusText(text, &error, &samples,
                                             &exemplar_trace_ids)) {
      std::fprintf(stderr, "invalid prom exposition %s: %s\n",
                   prom_path.c_str(), error.c_str());
      return 1;
    }
    std::printf("prom ok: %s (%zu samples, %zu trace exemplars)\n",
                prom_path.c_str(), samples.size(), exemplar_trace_ids.size());
    for (const std::string& spec : required_metrics) {
      if (!CheckRequiredMetric(spec, samples, "prom exposition")) return 1;
    }
    for (const std::string& spec : required_quantiles) {
      if (!CheckRequiredQuantile(spec, text)) return 1;
    }
  }

  if (!indexz_path.empty()) {
    JsonValue doc;
    if (!ReadJsonFile(indexz_path, "indexz", &doc) ||
        !CheckIndexz(doc, indexz_path, required_leaf_scans,
                     required_coaccess_pairs)) {
      return 1;
    }
  }

  if (!profile_path.empty()) {
    std::string text;
    if (!ReadFile(profile_path, &text)) {
      std::fprintf(stderr, "cannot read profile file: %s\n",
                   profile_path.c_str());
      return 1;
    }
    std::vector<CollapsedStack> stacks;
    std::string error;
    if (!ParseCollapsed(text, &stacks, &error)) {
      std::fprintf(stderr, "invalid collapsed profile %s: %s\n",
                   profile_path.c_str(), error.c_str());
      return 1;
    }
    std::uint64_t total = 0;
    for (const CollapsedStack& stack : stacks) total += stack.count;
    std::printf("profile ok: %s (%zu stacks, %llu samples)\n",
                profile_path.c_str(), stacks.size(),
                static_cast<unsigned long long>(total));
    if (!required_samples_spec.empty()) {
      const unsigned long long min_samples =
          std::strtoull(required_samples_spec.c_str(), nullptr, 10);
      if (total < min_samples) {
        std::fprintf(stderr,
                     "profile has %llu samples, need >= %llu\n",
                     static_cast<unsigned long long>(total), min_samples);
        return 1;
      }
      std::printf("  samples %llu (>= %llu)\n",
                  static_cast<unsigned long long>(total), min_samples);
    }
    for (const std::string& spec : required_profile_spans) {
      std::string prefix = spec;
      std::uint64_t min_count = 1;
      const std::size_t colon = spec.rfind(':');
      if (colon != std::string::npos) {
        prefix = spec.substr(0, colon);
        min_count = std::strtoull(spec.c_str() + colon + 1, nullptr, 10);
        if (min_count == 0) min_count = 1;
      }
      std::uint64_t count = 0;
      for (const CollapsedStack& stack : stacks) {
        if (stack.root.rfind(prefix, 0) == 0) count += stack.count;
      }
      if (count < min_count) {
        std::fprintf(stderr,
                     "profile span prefix %s: %llu sample(s), need >= %llu\n",
                     prefix.c_str(), static_cast<unsigned long long>(count),
                     static_cast<unsigned long long>(min_count));
        return 1;
      }
      std::printf("  profile span %-26s x%llu (>= %llu)\n", prefix.c_str(),
                  static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(min_count));
    }
  }
  return 0;
}
