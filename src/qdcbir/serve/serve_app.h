#ifndef QDCBIR_SERVE_SERVE_APP_H_
#define QDCBIR_SERVE_SERVE_APP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "qdcbir/cache/cache_manager.h"
#include "qdcbir/core/thread_pool.h"
#include "qdcbir/dataset/database.h"
#include "qdcbir/obs/http_server.h"
#include "qdcbir/obs/quality_stats.h"
#include "qdcbir/obs/query_log.h"
#include "qdcbir/obs/slo.h"
#include "qdcbir/obs/task_context.h"
#include "qdcbir/obs/wide_event.h"
#include "qdcbir/query/qd_engine.h"
#include "qdcbir/rfs/rfs_tree.h"

namespace qdcbir {
namespace serve {

/// Startup state machine of the admin server. `/readyz` answers 200 only
/// in `kServing`; every earlier state answers 503 with the state's name so
/// orchestration (and the CI smoke test) can poll until the snapshot and
/// RFS are actually usable.
enum class Readiness {
  kStarting,         ///< listener not yet bound
  kLoadingSnapshot,  ///< snapshot chunks loading (pool-overlapped)
  kBuildingRfs,      ///< reconstructing the RFS tree from its blob
  kServing,
  kFailed,           ///< load failed; see `load_error()`
};

const char* ReadinessName(Readiness state);

struct ServeOptions {
  std::string db_path;
  /// Standalone RFS file; empty loads the snapshot's embedded RFS chunk.
  std::string rfs_path;
  std::string address = "127.0.0.1";
  int port = 0;  ///< 0 binds an ephemeral port
  /// Lanes of the connection-dispatch pool. Kept separate from the query
  /// pool: a connection task blocks in recv() between keep-alive requests,
  /// and must never be adopted by a query batch waiting on `Run`.
  std::size_t http_threads = 4;
  std::size_t display_size = 21;
  double boundary_threshold = 0.4;
  /// Result size of `/api/feedback` finalization when the request names
  /// none.
  std::size_t default_k = 50;
  /// Concurrent interactive sessions held before `/api/query` answers 429.
  std::size_t max_sessions = 64;
  bool verify_checksums = true;
  /// Head sampling: every Nth opened session records its full span tree
  /// and publishes it to `/tracez` as "sampled". 0 disables head sampling.
  std::size_t trace_sample_every = 8;
  /// Slow-query trigger: sessions whose total latency reaches this many
  /// milliseconds keep their span tree as "slow" even when not head-sampled
  /// (recording is always on while either mechanism is active; the
  /// keep/drop decision is retroactive at session completion). 0 keeps
  /// every session; negative disables the trigger.
  double slow_trace_ms = 250.0;
  /// Always-on background profiler rate (Hz). 0 (the default) leaves the
  /// sampling profiler disarmed until a `/profilez` request starts its own
  /// capture window; positive values arm it for the server's lifetime at
  /// that rate so `/profilez` windows cut zero-setup slices out of the
  /// continuous stream. `Profiler::kBackgroundHz` is the recommended
  /// low-overhead rate.
  int profile_hz = 0;
  /// Byte budget (in MiB) of the result cache shared by every session:
  /// QD's localized-scan rankings and rendered representative payloads
  /// (`/api/rep`). 0 disables caching. The cache is flushed (new epoch) on
  /// every successful snapshot load, including `/api/reload`, so entries
  /// never outlive the corpus they came from.
  std::size_t cache_mb = 64;
  /// Pool for snapshot loading and localized subqueries; nullptr means
  /// `ThreadPool::Global()`.
  ThreadPool* pool = nullptr;
  /// JSON-lines wide-event file: one event per completed session joining
  /// trace id, engine config, resource stats, cache traffic, quality
  /// telemetry, and SLO state. Empty disables the sink.
  std::string wide_events_path;
  /// Size cap of the live wide-event file; past it the file rotates to
  /// `<path>.1` (replacing the previous rollover).
  std::size_t wide_events_max_mb = 64;
  /// Latency SLO: this fraction of sessions must finalize within
  /// `slo_latency_ms` (evaluated as multi-window burn rates; see
  /// obs/slo.h and `/sloz`).
  double slo_latency_ms = 2000.0;
  double slo_latency_objective = 0.95;
  /// Quality-proxy SLO floor: this fraction of sessions must end with a
  /// round-to-round top-k Jaccard overlap strictly above
  /// `slo_jaccard_floor_permille`. 0 keeps the SLO always-ok (still
  /// exported) — serve has no ground truth, so the floor is opt-in.
  std::uint64_t slo_jaccard_floor_permille = 0;
  double slo_jaccard_objective = 0.5;
};

/// The admin/serving application: loads a database snapshot and RFS tree
/// in the background while already answering health endpoints, then drives
/// interactive Query Decomposition sessions over HTTP.
///
/// Endpoints:
///   GET  /healthz       process liveness (always 200)
///   GET  /readyz        readiness state machine (200 only when serving)
///   GET  /statusz       human landing page: build, uptime, endpoint links
///   GET  /varz          build info + metrics registry snapshot
///   GET  /metrics       Prometheus text exposition (with trace exemplars
///                       and standard process_* families)
///   GET  /queryz        audit ring of recently completed sessions (?n=N
///                       keeps only the newest N records)
///   GET  /tracez        recent sampled and slow span trees
///   GET  /logz          structured log ring (?n=N keeps the newest N)
///   GET  /sloz          SLO definitions and burn-rate states (JSON)
///   GET  /indexz        RFS tree geometry joined with live per-leaf access
///                       stats, hot-leaf/skew summary, and co-access pairs
///                       (?n=N sizes the hot-leaf and pair tables)
///   GET  /profilez      span-attributed CPU profile capture
///                       (?seconds=N&hz=N&format=collapsed|json)
///   POST /api/query     open a session, returns the first display
///   POST /api/feedback  mark relevant images; optionally finalize
///   GET  /api/rep?id=N  rendered representative image (PPM, cached)
///   POST /api/reload    re-load the snapshot; 409 while sessions are open;
///                       flushes the result cache on success
///
/// Both API endpoints accept a W3C `traceparent` request header. The trace
/// id given at session open identifies the whole session; every response
/// echoes it as a `traceparent` header and a `"trace"` JSON field, and the
/// same id appears in `/queryz`, `/logz`, `/tracez`, and as a Prometheus
/// exemplar on the session-latency histogram.
class ServeApp {
 public:
  explicit ServeApp(ServeOptions options);
  ~ServeApp();

  ServeApp(const ServeApp&) = delete;
  ServeApp& operator=(const ServeApp&) = delete;

  /// Binds the listener and starts the background snapshot load. Returns
  /// false (with `*error`) only when the SLO options are invalid (an
  /// objective that is not a finite number in [0, 1], or a latency target
  /// that is not a finite non-negative number) or the socket cannot be
  /// bound — load failures surface through `/readyz` and `readiness()`
  /// instead.
  bool Start(std::string* error);

  /// Stops the server, joins the loader, and drains open connections.
  void Stop();

  int port() const { return server_.port(); }
  Readiness readiness() const {
    return readiness_.load(std::memory_order_acquire);
  }
  std::string load_error() const;

  /// Blocks until the loader reaches `kServing` or `kFailed` (or the
  /// timeout passes); true when serving.
  bool WaitUntilReady(int timeout_ms);

  /// Every registered admin route, sorted. The Content-Type audit test
  /// walks this list so a new endpoint cannot ship without a declared type.
  std::vector<std::string> HandledPaths() const {
    return server_.HandledPaths();
  }

 private:
  struct Session {
    explicit Session(QdSession qd_session) : qd(std::move(qd_session)) {}
    QdSession qd;
    /// One request mutates a session at a time; concurrent requests on the
    /// same id answer 409 instead of racing.
    std::atomic<bool> busy{false};
    std::uint64_t seed = 0;
    std::string label;
    std::size_t picks = 0;
    std::uint64_t rounds_ns = 0;
    /// The session's tracing identity (client-supplied or generated at
    /// open). Carries the span-tree buffer while recording is active.
    obs::TraceContext trace;
    bool head_sampled = false;
    /// Per-session resource accounting sink: every request handler installs
    /// it around the engine calls, so pool workers executing subqueries
    /// merge their physical-work deltas here. Snapshotted into the /queryz
    /// record and the serve.session.* histograms at finalize.
    obs::ResourceAccumulator resources;
    /// Per-leaf index access sink, installed alongside `resources` so pool
    /// workers attribute scans/evals/bytes to the RFS leaf they touched.
    /// Drained into the global AccessStatsTable and the co-access tracker
    /// when the session ends (finalize or teardown).
    obs::AccessAccumulator access;
    /// Passive quality observer: fed the ranked ids of every display and
    /// the final result; never influences ranking (see obs/quality_stats.h).
    obs::SessionQualityTracker quality;
  };

  void LoadInBackground();
  void SetReadiness(Readiness state);

  obs::HttpResponse HandleApiQuery(const obs::HttpRequest& request);
  obs::HttpResponse HandleApiFeedback(const obs::HttpRequest& request);
  obs::HttpResponse HandleApiRep(const obs::HttpRequest& request);
  obs::HttpResponse HandleApiReload(const obs::HttpRequest& request);
  obs::HttpResponse HandleStatusz(const obs::HttpRequest& request);
  obs::HttpResponse HandleProfilez(const obs::HttpRequest& request);
  obs::HttpResponse HandleSloz(const obs::HttpRequest& request);
  obs::HttpResponse HandleIndexz(const obs::HttpRequest& request);

  /// The session's `/queryz` record as of now: identity, engine stats,
  /// rounds time, resource usage and `quality`. Finalize adds its results
  /// and time; the `Stop()` sweep records it as is.
  static obs::QueryAuditRecord AuditRecord(const Session& session,
                                           const obs::SessionQuality& quality);

  /// Drains the session's leaf-access heatmap, publishes its quality
  /// metrics, re-evaluates the SLOs and emits its wide event. Called with
  /// the session off the map (finalize) or during teardown
  /// (abandoned/errored) — purely observational, after the response is
  /// built.
  void FinishSessionObservability(const Session& session,
                                  std::uint64_t session_id,
                                  const obs::SessionQuality& quality,
                                  const obs::QueryAuditRecord& record);

  ThreadPool& QueryPool() const {
    return options_.pool != nullptr ? *options_.pool : ThreadPool::Global();
  }

  ServeOptions options_;

  /// Declared before `server_` so connections (which reference the pool's
  /// queue) drain in `server_.Stop()` before the pool is torn down.
  ThreadPool http_pool_;
  obs::HttpServer server_;

  std::thread loader_;
  std::atomic<Readiness> readiness_{Readiness::kStarting};
  mutable std::mutex state_mu_;
  std::condition_variable state_cv_;
  std::string load_error_;

  /// Loaded corpus; written by the loader thread before `kServing` is
  /// published, read-only afterwards. `/api/reload` replaces both — it
  /// refuses while sessions are open and flips readiness under
  /// `sessions_mu_` first, so no handler can observe a half-swapped corpus
  /// (see HandleApiReload).
  std::optional<ImageDatabase> db_;
  std::optional<RfsTree> rfs_;

  /// Result cache shared by every session (null when `cache_mb` is 0).
  /// Epoch-flushed by the loader on each successful load.
  std::unique_ptr<cache::CacheManager> cache_;
  /// Successful loads so far; with the db path it names the snapshot
  /// identity each cache epoch belongs to. Only the loader thread writes.
  std::atomic<std::uint64_t> load_generation_{0};
  /// Single-flight guard for `/api/reload`'s join-and-respawn section.
  std::atomic<bool> reload_busy_{false};

  std::mutex sessions_mu_;
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::uint64_t next_session_id_ = 1;
  /// Sessions ever opened, for head sampling (every Nth); under
  /// `sessions_mu_`.
  std::uint64_t sessions_opened_ = 0;

  /// Start instants for /statusz uptime (wall seconds for display,
  /// monotonic for arithmetic). Set once in `Start`.
  std::uint64_t start_epoch_seconds_ = 0;
  std::uint64_t start_mono_ns_ = 0;
  /// Single-flight guard: one /profilez capture window at a time (a second
  /// concurrent request answers 409 instead of fighting over Start/Stop).
  std::atomic<bool> profilez_busy_{false};
  /// True when `Start` armed the background profiler (so `Stop` disarms
  /// exactly what it armed, leaving externally-started captures alone).
  bool profiler_armed_ = false;

  /// In-process SLO engine (obs/slo.h); evaluated from the /metrics,
  /// /sloz, and /statusz handlers, and at most once per cadence after a
  /// session finalize.
  std::unique_ptr<obs::SloEngine> slo_engine_;
  /// Wide-event sink (null when `wide_events_path` is empty).
  std::unique_ptr<obs::WideEventSink> wide_events_;
};

}  // namespace serve
}  // namespace qdcbir

#endif  // QDCBIR_SERVE_SERVE_APP_H_
