#ifndef QDCBIR_OBS_PROFILER_H_
#define QDCBIR_OBS_PROFILER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qdcbir {
namespace obs {

/// One CPU sample captured by the SIGPROF handler: a frame-pointer
/// backtrace plus the span/trace identity the thread was working under.
/// Trivially copyable — samples cross the lock-free ring as raw words.
struct ProfileSample {
  static constexpr std::uint32_t kMaxFrames = 24;

  std::uint64_t trace_hi = 0;  ///< trace id mirror (0 when outside a trace)
  std::uint64_t trace_lo = 0;
  /// Innermost `QDCBIR_SPAN` literal at sample time (possibly re-opened on
  /// a pool worker via `ScopedSpanTag`), or nullptr outside any span.
  const char* span = nullptr;
  std::uint32_t num_frames = 0;
  std::uint32_t tid = 0;  ///< OS thread id of the sampled thread
  /// frames[0] is the interrupted pc; frames[1..] are return addresses,
  /// innermost first.
  std::uintptr_t frames[kMaxFrames] = {};
};

struct ProfilerOptions {
  /// Bounds `Profiler::Start` clamps `hz` to.
  static constexpr int kMinHz = 1;
  static constexpr int kMaxHz = 2000;

  /// Per-thread CPU-time sampling rate, clamped to [kMinHz, kMaxHz]. 99 is
  /// the conventional "odd so it doesn't beat against periodic work" rate;
  /// `kBackgroundHz` is the low always-on default for `--profile-hz`.
  int hz = 99;
};

/// Sampling CPU profiler. Every registered thread gets a POSIX timer on its
/// own CPU-time clock (`timer_create` + `SIGEV_THREAD_ID`, so ticks are
/// proportional to CPU actually burned, and idle threads are silent). The
/// SIGPROF handler is async-signal-safe by construction: it reads only the
/// interrupted ucontext, its own thread's constinit TLS (`SpanStack`,
/// registration entry), and lock-free atomics; samples go into a fixed
/// seqlock ring and are dropped — counted, never blocked on — under
/// collision. Symbolization (`dladdr` + demangle) happens at render time on
/// the draining thread.
///
/// Linux-only: on other platforms `Start` fails with a clear error and
/// everything else is a no-op. The render helpers work everywhere (unit
/// tests build samples by hand).
class Profiler {
 public:
  /// Default rate for the always-on background mode (`serve --profile-hz`
  /// uses this when the flag is passed without a value).
  static constexpr int kBackgroundHz = 47;

  /// Process-wide instance. Intentionally leaked so worker threads may
  /// unregister during static destruction.
  static Profiler& Global();

  /// Adds the calling thread to the sampled set (idempotent). If the
  /// profiler is running, the thread's timer is armed immediately. Pool
  /// workers call this via `ScopedThreadProfiling`; main threads of
  /// profiling-capable commands call it once at startup.
  static void RegisterCurrentThread();
  /// Removes the calling thread and disarms its timer. Must be called on
  /// the registering thread before it exits.
  static void UnregisterCurrentThread();

  /// Arms timers on every registered thread at `options.hz`. Fails (with a
  /// diagnostic in `*error`) if already running or unsupported.
  bool Start(const ProfilerOptions& options, std::string* error = nullptr);
  /// Disarms all timers. Samples already in the ring stay collectable.
  void Stop();

  bool running() const;
  int hz() const;

  /// Monotonic sequence cursor: the number of samples ever written (plus
  /// drops). Take before a capture window, pass to `CollectSince` after.
  std::uint64_t SampleCursor() const;
  /// Stable samples with sequence >= cursor, oldest first. Slots being
  /// concurrently rewritten or already overwritten are skipped.
  std::vector<ProfileSample> CollectSince(std::uint64_t cursor) const;
  /// Samples lost to slot collisions or handler re-entry since process
  /// start.
  std::uint64_t dropped() const;

  /// flamegraph.pl collapsed-stack format, one line per distinct stack:
  /// `span;outermost;...;innermost count`. The span name (or `(no-span)`)
  /// is the root frame, so flame graphs group by engine phase first.
  static std::string RenderCollapsed(
      const std::vector<ProfileSample>& samples);
  /// JSON aggregate: per-span and per-trace sample totals plus the top
  /// stacks, for programmatic consumers of `/profilez?format=json`.
  static std::string RenderJson(const std::vector<ProfileSample>& samples,
                                int hz, double seconds,
                                std::uint64_t dropped);

 private:
  /// Test-only view of the sample ring's anonymous mapping, so a test can
  /// count which of its pages are resident.
  friend class ProfilerTestPeer;
  struct RingMapping {
    const void* base = nullptr;  ///< nullptr before the first `Start`
    std::size_t bytes = 0;
    std::size_t slot_bytes = 0;  ///< one sample plus its seqlock words
  };
  static RingMapping Ring();

  Profiler() = default;
};

/// RAII thread registration; instantiate at the top of a thread's run loop.
class ScopedThreadProfiling {
 public:
  ScopedThreadProfiling() { Profiler::RegisterCurrentThread(); }
  ScopedThreadProfiling(const ScopedThreadProfiling&) = delete;
  ScopedThreadProfiling& operator=(const ScopedThreadProfiling&) = delete;
  ~ScopedThreadProfiling() { Profiler::UnregisterCurrentThread(); }
};

}  // namespace obs
}  // namespace qdcbir

#endif  // QDCBIR_OBS_PROFILER_H_
