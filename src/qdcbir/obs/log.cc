#include "qdcbir/obs/log.h"

#include <chrono>
#include <cstdio>
#include <cstring>

#include "qdcbir/obs/clock.h"
#include "qdcbir/obs/json.h"
#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/trace_context.h"

namespace qdcbir {
namespace obs {

namespace {

std::uint64_t UnixMillis() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "unknown";
}

bool LogCallSite::Admit() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t now_ns = MonotonicNanos();
  if (last_refill_ns_ == 0) last_refill_ns_ = now_ns;
  tokens_ += static_cast<double>(now_ns - last_refill_ns_) * 1e-9 *
             kPerSecond;
  if (tokens_ > kBurst) tokens_ = kBurst;
  last_refill_ns_ = now_ns;
  if (tokens_ < 1.0) {
    ++suppressed_;
    // Scrape-visible twin of the per-site suppressed count: /logz shows
    // drops only on the *next admitted* entry of the same site, so a site
    // that stays over its rate would otherwise hide its losses entirely.
    static Counter& dropped = MetricsRegistry::Global().GetCounter(
        "log.dropped", "Log entries suppressed by per-site rate limiting");
    dropped.Add(1);
    return false;
  }
  tokens_ -= 1.0;
  return true;
}

std::uint64_t LogCallSite::TakeSuppressed() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t taken = suppressed_;
  suppressed_ = 0;
  return taken;
}

void LogRing::Write(LogLevel level, const char* file, int line,
                    std::string message, std::uint64_t suppressed) {
  LogEntry entry;
  entry.unix_ms = UnixMillis();
  entry.mono_ns = MonotonicNanos();
  entry.level = level;
  entry.trace_id = TraceIdHex(CurrentTraceContext());
  entry.site = std::string(Basename(file)) + ":" + std::to_string(line);
  entry.message = std::move(message);
  entry.suppressed = suppressed;

  if (level == LogLevel::kWarn || level == LogLevel::kError) {
    std::fprintf(stderr, "[%s] %s %s%s%s\n", LogLevelName(level),
                 entry.site.c_str(), entry.message.c_str(),
                 entry.trace_id.empty() ? "" : " trace=",
                 entry.trace_id.c_str());
  }

  total_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  entry.sequence = next_sequence_++;
  entries_.push_back(std::move(entry));
  if (entries_.size() > kCapacity) entries_.pop_front();
}

std::vector<LogEntry> LogRing::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<LogEntry>(entries_.begin(), entries_.end());
}

std::string LogRing::RenderJson(std::size_t limit) const {
  std::vector<LogEntry> entries = Snapshot();
  if (entries.size() > limit) {
    // Keep the newest entries: Snapshot returns them oldest-first.
    entries.erase(entries.begin(),
                  entries.end() - static_cast<std::ptrdiff_t>(limit));
  }
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("capacity").Uint(kCapacity);
  w.Key("total").Uint(total());
  w.Key("entries").BeginArray();
  for (const LogEntry& entry : entries) {
    w.BeginObject();
    w.Key("sequence").Uint(entry.sequence);
    w.Key("unix_ms").Uint(entry.unix_ms);
    w.Key("mono_ns").Uint(entry.mono_ns);
    w.Key("level").String(LogLevelName(entry.level));
    w.Key("trace").String(entry.trace_id);
    w.Key("site").String(entry.site);
    w.Key("message").String(entry.message);
    w.Key("suppressed").Uint(entry.suppressed);
    w.EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

void LogRing::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

LogRing& LogRing::Global() {
  static LogRing* ring = new LogRing();
  return *ring;
}

}  // namespace obs
}  // namespace qdcbir
