#ifndef QDCBIR_BENCH_SERVE_HARNESS_H_
#define QDCBIR_BENCH_SERVE_HARNESS_H_

// Transport-free pieces of the serve benchmark: percentile reporting, the
// open-loop arrival schedule and dispatcher, and HTTP/1.1 response framing.
// Kept apart from sockets and processes so the unit test drives them
// directly.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace qdcbir {
namespace bench_serve {

/// Nearest-rank quantile of `samples` (unsorted is fine; a copy is
/// sorted). `q` in [0, 1]. Returns 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer make the tail a handful of outliers.
inline constexpr std::size_t kMinTailSamples = 10;

/// True when `n` samples support percentile `q`: n * (1 - q) >= 10.
bool PercentileSupported(std::size_t n, double q);

/// A sample with the phase offset (seconds) it belongs to.
struct TimedSample {
  double at = 0.0;
  double value = 0.0;
};

/// Splits [0, duration) into equal windows, as many as give each about 100
/// samples but at most 10, takes the `q` quantile inside each window and
/// returns the median of those. A burst of interference from outside the
/// benchmark then moves one window, not the reported value.
double WindowedQuantile(const std::vector<TimedSample>& samples,
                        double duration, double q);

/// Arrival offsets (seconds from phase start, ascending, each < `duration_s`)
/// of a Poisson process with `rate_per_s` arrivals per second. The same seed
/// always yields the same schedule.
std::vector<double> PoissonSchedule(std::uint64_t seed, double rate_per_s,
                                    double duration_s);

/// Timing of one job run by `RunOpenLoop`, in seconds from phase start.
struct JobTiming {
  double due = 0.0;
  double start = 0.0;  ///< when a worker began it
  double end = 0.0;
  bool ran = false;    ///< false when the dispatch deadline passed first
};

struct OpenLoopResult {
  std::vector<JobTiming> jobs;
  /// Largest delay between a job's due time and its start among jobs whose
  /// worker was idle and waiting for it: the generator's own lateness, as
  /// opposed to queueing behind a slow reply.
  double max_lateness = 0.0;
};

/// Runs `job(index, worker)` for every due offset in `due` (ascending) on
/// `workers` threads, each job starting no earlier than its due time. A
/// worker takes the next job in due order as soon as it is free, so a
/// stalled reply delays every job queued behind it and that wait counts in
/// the job's due-time latency (`end - due`). Jobs not started by
/// `deadline_s` are skipped (`ran == false`). Worker 0 runs on the calling
/// thread, so `workers == 1` spawns no thread.
OpenLoopResult RunOpenLoop(
    const std::vector<double>& due, std::size_t workers, double deadline_s,
    const std::function<void(std::size_t index, std::size_t worker)>& job);

/// One framed HTTP/1.1 response.
struct HttpReply {
  int status = 0;
  std::string content_type;
  std::string traceparent;
  std::string body;
  std::size_t wire_bytes = 0;  ///< status line + headers + body
};

enum class FrameStatus { kIncomplete, kComplete, kBad };

/// Frames the first response in `buffer` by its Content-Length. On
/// `kComplete`, fills `*out` and sets `*consumed` to its byte count, so a
/// caller reading from a socket appends and retries until complete.
FrameStatus FrameResponse(std::string_view buffer, HttpReply* out,
                          std::size_t* consumed);

/// Serialized keep-alive request with Host, Content-Length and an optional
/// `traceparent` header.
std::string BuildRequest(std::string_view method, std::string_view target,
                         std::string_view body, std::string_view traceparent);

}  // namespace bench_serve
}  // namespace qdcbir

#endif  // QDCBIR_BENCH_SERVE_HARNESS_H_
