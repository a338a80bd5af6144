#ifndef QDCBIR_OBS_WIDE_EVENT_H_
#define QDCBIR_OBS_WIDE_EVENT_H_

/// \file
/// Wide-event session export: one JSON line per completed feedback session.
/// An event is the session's `/queryz` audit record (obs/query_log.h,
/// `WriteAuditFields`) plus the serve-side extras — engine configuration
/// and leaves touched: everything an offline tool needs to slice sessions
/// without re-joining five metric surfaces.
///
/// `WideEventSink` is an append-only JSON-lines file with size-capped
/// rotation (the live file rolls to `<path>.1`, replacing the previous
/// rollover) and drop counting: a failed write never blocks or aborts a
/// session, it increments `wide_events.dropped` and moves on. The sink is
/// purely observational — emission happens after the ranked response is
/// built, so ranked output is byte-identical with the sink on or off.
///
/// `qdcbir_tool events summarize` aggregates these files offline.

#include <cstdint>
#include <mutex>
#include <string>

namespace qdcbir {
namespace obs {

struct WideEventSinkOptions {
  std::string path;                          ///< live JSON-lines file
  std::uint64_t max_bytes = 64ull << 20;     ///< rotate past this size
};

/// Thread-safe, non-blocking-on-error JSON-lines sink.
class WideEventSink {
 public:
  explicit WideEventSink(WideEventSinkOptions options);

  /// Appends `json` plus a newline; rotates first when the file would
  /// exceed the cap. Failures are counted, never thrown.
  void Emit(const std::string& json);

  std::uint64_t emitted() const;
  std::uint64_t dropped() const;
  std::uint64_t rotations() const;

  const std::string& path() const { return options_.path; }
  std::string rotated_path() const { return options_.path + ".1"; }

 private:
  WideEventSinkOptions options_;
  mutable std::mutex mu_;
  std::uint64_t bytes_written_ = 0;  ///< size of the live file
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t rotations_ = 0;
};

}  // namespace obs
}  // namespace qdcbir

#endif  // QDCBIR_OBS_WIDE_EVENT_H_
