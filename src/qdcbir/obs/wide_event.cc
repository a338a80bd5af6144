#include "qdcbir/obs/wide_event.h"

#include <filesystem>
#include <fstream>
#include <system_error>

#include "qdcbir/obs/metrics.h"

namespace qdcbir {
namespace obs {

namespace {

struct WideEventMetrics {
  Counter& emitted;
  Counter& dropped;
  Counter& rotations;

  static WideEventMetrics& Get() {
    static WideEventMetrics* m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return new WideEventMetrics{
          reg.GetCounter("wide_events.emitted",
                         "Wide events appended to the JSON-lines sink"),
          reg.GetCounter("wide_events.dropped",
                         "Wide events lost to write failures"),
          reg.GetCounter("wide_events.rotations",
                         "Size-capped rollovers of the wide-event file"),
      };
    }();
    return *m;
  }
};

}  // namespace

WideEventSink::WideEventSink(WideEventSinkOptions options)
    : options_(std::move(options)) {
  // Resume the byte count of an existing live file so rotation caps hold
  // across process restarts.
  std::error_code ec;
  const auto size = std::filesystem::file_size(options_.path, ec);
  if (!ec) bytes_written_ = size;
}

void WideEventSink::Emit(const std::string& json) {
  const std::uint64_t line_bytes = json.size() + 1;
  std::lock_guard<std::mutex> lock(mu_);
  if (bytes_written_ > 0 && bytes_written_ + line_bytes > options_.max_bytes) {
    std::error_code ec;
    std::filesystem::rename(options_.path, rotated_path(), ec);
    // A failed rename (e.g. read-only directory) falls through: the append
    // below either works (file keeps growing past the soft cap) or drops.
    if (!ec) {
      bytes_written_ = 0;
      ++rotations_;
      WideEventMetrics::Get().rotations.Add();
    }
  }
  std::ofstream out(options_.path, std::ios::app | std::ios::binary);
  if (!out) {
    ++dropped_;
    WideEventMetrics::Get().dropped.Add();
    return;
  }
  out << json << '\n';
  out.flush();
  if (!out) {
    ++dropped_;
    WideEventMetrics::Get().dropped.Add();
    return;
  }
  bytes_written_ += line_bytes;
  ++emitted_;
  WideEventMetrics::Get().emitted.Add();
}

std::uint64_t WideEventSink::emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return emitted_;
}

std::uint64_t WideEventSink::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::uint64_t WideEventSink::rotations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rotations_;
}

}  // namespace obs
}  // namespace qdcbir
