#include "qdcbir/serve/serve_app.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "qdcbir/cache/cache_manager.h"
#include "qdcbir/dataset/database_io.h"
#include "qdcbir/image/ppm_io.h"
#include "qdcbir/obs/access_stats.h"
#include "qdcbir/obs/build_info.h"
#include "qdcbir/obs/clock.h"
#include "qdcbir/obs/json.h"
#include "qdcbir/obs/log.h"
#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/process_stats.h"
#include "qdcbir/obs/profiler.h"
#include "qdcbir/obs/prom_export.h"
#include "qdcbir/obs/query_log.h"
#include "qdcbir/obs/span.h"
#include "qdcbir/obs/trace_tree.h"
#include "qdcbir/rfs/rfs_introspect.h"
#include "qdcbir/rfs/rfs_serialization.h"
#include "qdcbir/serve/json_mini.h"

namespace qdcbir {
namespace serve {

namespace {

constexpr const char* kJsonType = "application/json; charset=utf-8";
constexpr const char* kPromType = "text/plain; version=0.0.4; charset=utf-8";

/// Rows of the `/indexz` hot-leaf and co-access tables (and of the labeled
/// `/metrics` leaf families) when the request names no `?n=`.
constexpr std::size_t kHotLeafDefault = 16;

/// A JSON response whose body object `fields` fills. A session's trace id
/// goes first: the `"trace"` field, plus the `traceparent` header echo.
obs::HttpResponse JsonResponse(
    int status, const obs::TraceContext& trace,
    const std::function<void(obs::JsonWriter*)>& fields) {
  obs::HttpResponse response{status, kJsonType, ""};
  obs::JsonWriter w(&response.body);
  w.BeginObject();
  if (trace.has_trace_id()) {
    response.headers.emplace_back("traceparent", obs::FormatTraceparent(trace));
    w.Key("trace").String(obs::TraceIdHex(trace));
  }
  fields(&w);
  w.EndObject();
  response.body.push_back('\n');
  return response;
}

obs::HttpResponse JsonError(int status, std::string_view message,
                            const obs::TraceContext& trace = {}) {
  return JsonResponse(status, trace, [message](obs::JsonWriter* w) {
    w->Key("error").String(message);
  });
}

/// The body of a feedback round: the session, its round and its display.
obs::HttpResponse DisplayResponse(std::uint64_t session_id, std::size_t round,
                                  const std::vector<DisplayGroup>& display,
                                  const obs::TraceContext& trace) {
  return JsonResponse(200, trace, [&](obs::JsonWriter* w) {
    w->Key("session").Uint(session_id);
    w->Key("round").Uint(round);
    w->Key("display").BeginArray();
    for (const DisplayGroup& group : display) {
      w->BeginObject();
      w->Key("node").Uint(group.node);
      w->Key("images").BeginArray();
      for (const ImageId id : group.images) w->Uint(id);
      w->EndArray().EndObject();
    }
    w->EndArray();
  });
}

/// Value of `key` in a raw `a=1&b=2` query string, "" when absent. The
/// admin parameters are plain numbers/identifiers, so no percent-decoding.
std::string QueryParam(const std::string& query, std::string_view key) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        std::string_view(query).substr(pos, eq - pos) == key) {
      return query.substr(eq + 1, amp - eq - 1);
    }
    pos = amp + 1;
  }
  return "";
}

/// Display/result ids flattened for the quality tracker (which compares
/// opaque 64-bit ids; see obs/quality_stats.h).
std::vector<std::uint64_t> DisplayIds(const std::vector<DisplayGroup>& display) {
  std::vector<std::uint64_t> ids;
  for (const DisplayGroup& group : display) {
    for (const ImageId id : group.images) ids.push_back(id);
  }
  return ids;
}

std::vector<std::uint64_t> RankedIds(const std::vector<ImageId>& ranked) {
  return std::vector<std::uint64_t>(ranked.begin(), ranked.end());
}

/// Reads the optional integer field `key` of a request body: absent keeps
/// `*out`, an integer in [0, max] sets it. Anything else returns false, and
/// the handler answers 400.
bool ReadUintField(const JsonValue& body, std::string_view key,
                   std::uint64_t max, std::uint64_t* out) {
  const JsonValue* value = body.Find(key);
  return value == nullptr || value->ToUint(max, out);
}

/// `?n=` limit of /queryz and /logz. Absent keeps `fallback`; a positive
/// decimal integer sets `*out`; anything else (garbage, zero, negative)
/// returns false so the handler can answer 400.
bool ParseCountParam(const std::string& query, std::size_t fallback,
                     std::size_t* out) {
  const std::string raw = QueryParam(query, "n");
  if (raw.empty()) {
    *out = fallback;
    return true;
  }
  for (const char c : raw) {
    if (c < '0' || c > '9') return false;
  }
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value == 0) return false;
  *out = static_cast<std::size_t>(value);
  return true;
}

/// `?key=` as a finite number, for the admin parameters that are seconds or
/// rates. Absent keeps `*out`; garbage, NaN or an infinity returns false so
/// the handler can answer 400. Callers clamp the value before any cast.
bool ParseNumberParam(const std::string& query, std::string_view key,
                      double* out) {
  const std::string raw = QueryParam(query, key);
  if (raw.empty()) return true;
  char* end = nullptr;
  const double value = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || *end != '\0' || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

/// Why the SLO options cannot define SLOs, or "" when they can. A NaN or
/// out-of-range objective would make every burn rate meaningless.
std::string SloOptionsError(const ServeOptions& options) {
  const auto objective_ok = [](double objective) {
    return std::isfinite(objective) && objective >= 0.0 && objective <= 1.0;
  };
  if (!objective_ok(options.slo_latency_objective)) {
    return "slo_latency_objective must be a finite number in [0, 1]";
  }
  if (!objective_ok(options.slo_jaccard_objective)) {
    return "slo_jaccard_objective must be a finite number in [0, 1]";
  }
  if (!std::isfinite(options.slo_latency_ms) || options.slo_latency_ms < 0.0) {
    return "slo_latency_ms must be a finite non-negative number";
  }
  return "";
}

}  // namespace

const char* ReadinessName(Readiness state) {
  switch (state) {
    case Readiness::kStarting: return "starting";
    case Readiness::kLoadingSnapshot: return "loading-snapshot";
    case Readiness::kBuildingRfs: return "building-rfs";
    case Readiness::kServing: return "serving";
    case Readiness::kFailed: return "failed";
  }
  return "unknown";
}

ServeApp::ServeApp(ServeOptions options)
    : options_(std::move(options)),
      http_pool_(options_.http_threads > 0 ? options_.http_threads : 1),
      server_([this] {
        obs::HttpServer::Options server_options;
        server_options.address = options_.address;
        server_options.port = options_.port;
        server_options.executor = [this](std::function<void()> task) {
          http_pool_.Post(std::move(task));
        };
        return server_options;
      }()) {
  server_.Handle("/healthz", [](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
  });
  server_.Handle("/readyz", [this](const obs::HttpRequest&) {
    const Readiness state = readiness();
    if (state == Readiness::kServing) {
      return obs::HttpResponse{200, "text/plain; charset=utf-8", "serving\n"};
    }
    std::string body = ReadinessName(state);
    if (state == Readiness::kFailed) body += ": " + load_error();
    body.push_back('\n');
    return obs::HttpResponse{503, "text/plain; charset=utf-8",
                             std::move(body)};
  });
  server_.Handle("/varz", [](const obs::HttpRequest&) {
    // One object: the build object, then the registry snapshot's sections.
    std::string body;
    obs::JsonWriter w(&body);
    w.BeginObject();
    w.Key("build").Raw(obs::BuildInfoJson());
    obs::MetricsRegistry::Global().WriteSnapshotFields(&w);
    w.EndObject();
    body.push_back('\n');
    return obs::HttpResponse{200, kJsonType, std::move(body)};
  });
  server_.Handle("/metrics", [this](const obs::HttpRequest&) {
    // Refresh the qdcbir_slo_* gauges so every scrape carries current
    // burn-rate states, then render: registry families first, then the
    // standard process_* block (each family self-describing with its own
    // HELP/TYPE lines, so appending keeps the exposition valid).
    slo_engine_->Evaluate();
    std::string body = obs::RenderPrometheusText(obs::MetricsRegistry::Global());
    body += obs::RenderProcessMetricsText(obs::ReadProcessStats());
    // Labeled per-leaf heatmap samples (qdcbir_index_leaf_*{leaf="N"}) use
    // family names disjoint from the registry's, so appending them keeps
    // the exposition valid.
    body += obs::RenderIndexLeafPrometheusText(
        obs::AccessStatsTable::Global().Snapshot(), kHotLeafDefault);
    return obs::HttpResponse{200, kPromType, std::move(body)};
  });
  server_.Handle("/statusz", [this](const obs::HttpRequest& request) {
    return HandleStatusz(request);
  });
  server_.Handle("/profilez", [this](const obs::HttpRequest& request) {
    return HandleProfilez(request);
  });
  server_.Handle("/queryz", [](const obs::HttpRequest& request) {
    std::size_t limit = 0;
    if (!ParseCountParam(request.query, obs::QueryLog::kCapacity, &limit)) {
      return JsonError(400, "n must be a positive integer");
    }
    return obs::HttpResponse{
        200, kJsonType, obs::QueryLog::Global().RenderJson(limit) + "\n"};
  });
  server_.Handle("/tracez", [](const obs::HttpRequest&) {
    return obs::HttpResponse{200, kJsonType,
                             obs::TraceStore::Global().RenderJson() + "\n"};
  });
  server_.Handle("/logz", [](const obs::HttpRequest& request) {
    std::size_t limit = 0;
    if (!ParseCountParam(request.query, obs::LogRing::kCapacity, &limit)) {
      return JsonError(400, "n must be a positive integer");
    }
    return obs::HttpResponse{
        200, kJsonType, obs::LogRing::Global().RenderJson(limit) + "\n"};
  });
  server_.Handle("/sloz", [this](const obs::HttpRequest& request) {
    return HandleSloz(request);
  });
  server_.Handle("/indexz", [this](const obs::HttpRequest& request) {
    return HandleIndexz(request);
  });
  server_.Handle("/api/query", [this](const obs::HttpRequest& request) {
    return HandleApiQuery(request);
  });
  server_.Handle("/api/feedback", [this](const obs::HttpRequest& request) {
    return HandleApiFeedback(request);
  });
  server_.Handle("/api/rep", [this](const obs::HttpRequest& request) {
    return HandleApiRep(request);
  });
  server_.Handle("/api/reload", [this](const obs::HttpRequest& request) {
    return HandleApiReload(request);
  });
  if (options_.cache_mb > 0) {
    cache::CacheManager::Options cache_options;
    cache_options.budget_bytes = options_.cache_mb << 20;
    cache_ = std::make_unique<cache::CacheManager>(cache_options);
  }

  {
    std::vector<obs::SloDefinition> slos;
    obs::SloDefinition latency;
    latency.name = "session_latency";
    latency.kind = obs::SloKind::kLatencyQuantile;
    latency.metric = "serve.session.latency_ns";
    latency.threshold = options_.slo_latency_ms * 1e6;
    latency.objective = options_.slo_latency_objective;
    slos.push_back(std::move(latency));

    obs::SloDefinition availability;
    availability.name = "http_availability";
    availability.kind = obs::SloKind::kAvailability;
    availability.metric = "serve.http.requests";
    availability.bad_metric = "serve.http.bad_requests";
    availability.objective = 0.999;
    slos.push_back(std::move(availability));

    obs::SloDefinition cache_rate;
    cache_rate.name = "cache_hit_rate";
    cache_rate.kind = obs::SloKind::kRatioFloor;
    cache_rate.metric = "cache.hit";
    cache_rate.bad_metric = "cache.miss";
    // A cold or disabled cache is expected; only a sustained near-total
    // miss rate should burn.
    cache_rate.objective = 0.05;
    slos.push_back(std::move(cache_rate));

    obs::SloDefinition quality;
    quality.name = "quality_stability";
    quality.kind = obs::SloKind::kHistogramFloor;
    quality.metric = "quality.topk_jaccard";
    quality.threshold =
        static_cast<double>(options_.slo_jaccard_floor_permille);
    quality.objective = options_.slo_jaccard_objective;
    slos.push_back(std::move(quality));

    slo_engine_ = std::make_unique<obs::SloEngine>(std::move(slos));
  }
  if (!options_.wide_events_path.empty()) {
    obs::WideEventSinkOptions sink_options;
    sink_options.path = options_.wide_events_path;
    sink_options.max_bytes =
        static_cast<std::uint64_t>(options_.wide_events_max_mb) << 20;
    wide_events_ = std::make_unique<obs::WideEventSink>(sink_options);
  }
}

ServeApp::~ServeApp() { Stop(); }

bool ServeApp::Start(std::string* error) {
  start_epoch_seconds_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  start_mono_ns_ = obs::MonotonicNanos();
  std::string failure = SloOptionsError(options_);
  if (!failure.empty() || !server_.Start(&failure)) {
    SetReadiness(Readiness::kFailed);
    if (error != nullptr) *error = failure;
    std::lock_guard<std::mutex> lock(state_mu_);
    load_error_ = std::move(failure);
    return false;
  }
  if (options_.profile_hz > 0) {
    obs::ProfilerOptions profiler_options;
    profiler_options.hz = options_.profile_hz;
    std::string profiler_error;
    if (obs::Profiler::Global().Start(profiler_options, &profiler_error)) {
      profiler_armed_ = true;
      QDCBIR_LOG(obs::LogLevel::kInfo,
                 "background profiler armed at " +
                     std::to_string(options_.profile_hz) + " Hz");
    } else {
      QDCBIR_LOG(obs::LogLevel::kWarn,
                 "background profiler not started: " + profiler_error);
    }
  }
  loader_ = std::thread([this] { LoadInBackground(); });
  return true;
}

void ServeApp::Stop() {
  if (profiler_armed_) {
    obs::Profiler::Global().Stop();
    profiler_armed_ = false;
  }
  server_.Stop();
  if (loader_.joinable()) loader_.join();

  // Sessions still open after the listener drained never reached finalize:
  // classify them (abandoned, or errored when their last round failed),
  // publish their quality telemetry, and give them /queryz rows and wide
  // events so abandoned traffic is as visible as completed traffic.
  std::map<std::uint64_t, std::shared_ptr<Session>> leftovers;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    leftovers.swap(sessions_);
  }
  for (const auto& [session_id, session] : leftovers) {
    const obs::SessionQuality quality = session->quality.Summary();
    obs::QueryAuditRecord record = AuditRecord(*session, quality);
    record.sequence = obs::QueryLog::Global().Record(record);
    FinishSessionObservability(*session, session_id, quality, record);
  }
}

obs::QueryAuditRecord ServeApp::AuditRecord(
    const Session& session, const obs::SessionQuality& quality) {
  obs::QueryAuditRecord record;
  record.set_engine("qd");
  record.set_label(session.label);
  record.seed = session.seed;
  record.rounds = static_cast<std::uint64_t>(session.qd.round());
  record.picks = session.picks;
  const QdSessionStats& stats = session.qd.stats();
  record.subqueries = stats.localized_subqueries;
  record.boundary_expansions = stats.boundary_expansions;
  record.expanded_subqueries = stats.expanded_subqueries;
  record.nodes_visited = stats.knn_nodes_visited;
  record.candidates_scored = stats.knn_candidates;
  record.nodes_touched = stats.nodes_touched;
  record.distinct_nodes_sampled = stats.distinct_nodes_sampled;
  record.rounds_ns = session.rounds_ns;
  record.total_ns = session.rounds_ns;
  record.trace_hi = session.trace.trace_hi;
  record.trace_lo = session.trace.trace_lo;
  record.SetUsage(session.resources.Snapshot());
  record.SetQuality(quality);
  return record;
}

std::string ServeApp::load_error() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return load_error_;
}

bool ServeApp::WaitUntilReady(int timeout_ms) {
  std::unique_lock<std::mutex> lock(state_mu_);
  state_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [this] {
    const Readiness state = readiness();
    return state == Readiness::kServing || state == Readiness::kFailed;
  });
  return readiness() == Readiness::kServing;
}

void ServeApp::SetReadiness(Readiness state) {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    readiness_.store(state, std::memory_order_release);
  }
  state_cv_.notify_all();
}

void ServeApp::LoadInBackground() {
  // The loader burns real CPU (checksum verify, RFS decode); make it
  // visible to the sampling profiler like any pool worker.
  const obs::ScopedThreadProfiling profiling;
  SetReadiness(Readiness::kLoadingSnapshot);
  const auto fail = [this](const Status& status) {
    QDCBIR_LOG(obs::LogLevel::kError,
               "serve load failed: " + status.ToString());
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      load_error_ = status.ToString();
    }
    SetReadiness(Readiness::kFailed);
  };

  // The snapshot loads first (its chunks fan out on the query pool); the
  // RFS then streams from `--rfs` or the embedded chunk and adopts the
  // snapshot's feature store, so the corpus features are held once and no
  // RFS blob is ever read into memory whole.
  SnapshotLoadOptions load_options;
  load_options.pool = &QueryPool();
  load_options.verify_checksums = options_.verify_checksums;
  StatusOr<ImageDatabase> db =
      DatabaseIo::LoadDatabase(options_.db_path, load_options);
  if (!db.ok()) return fail(db.status());

  SetReadiness(Readiness::kBuildingRfs);
  StatusOr<RfsTree> rfs = RfsSerializer::LoadForSnapshot(
      options_.db_path, options_.rfs_path, db->feature_store());
  if (!rfs.ok()) return fail(rfs.status());

  db_.emplace(std::move(*db));
  rfs_.emplace(std::move(*rfs));
  // New corpus ⇒ new cache epoch: entries keyed against the previous
  // snapshot are flushed, and in-flight computes against it can no longer
  // insert (their epoch tokens went stale the moment the epoch advanced).
  const std::uint64_t generation =
      load_generation_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (cache_ != nullptr) {
    cache_->BeginEpoch(cache::HashCombine(
        cache::HashBytes(options_.db_path.data(), options_.db_path.size()),
        generation));
  }
  // Leaf ids are only meaningful within one loaded tree: start a fresh
  // access epoch and publish the new tree's shape as gauges so scrapes can
  // normalize heatmaps (scans per leaf vs leaves in the tree).
  obs::AccessStatsTable::Global().Reset();
  obs::CoAccessTracker::Global().Reset();
  {
    const IndexTreeSummary shape = SummarizeIndexTree(*rfs_);
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.GetGauge("index.tree.leaves", "Leaves in the loaded RFS tree")
        .Set(static_cast<std::int64_t>(shape.leaf_count));
    registry.GetGauge("index.tree.nodes", "Nodes in the loaded RFS tree")
        .Set(static_cast<std::int64_t>(shape.node_count));
    registry.GetGauge("index.tree.height", "Height of the loaded RFS tree")
        .Set(static_cast<std::int64_t>(shape.height));
    registry
        .GetGauge("index.tree.images", "Images indexed by the loaded RFS tree")
        .Set(static_cast<std::int64_t>(shape.total_images));
  }
  QDCBIR_LOG(obs::LogLevel::kInfo,
             "serving " + std::to_string(db_->size()) + " images from " +
                 options_.db_path + " (load generation " +
                 std::to_string(generation) + ")");
  SetReadiness(Readiness::kServing);
}

obs::HttpResponse ServeApp::HandleApiQuery(const obs::HttpRequest& request) {
  if (request.method != "POST") {
    return JsonError(405, "POST a JSON body to open a session");
  }
  if (readiness() != Readiness::kServing) {
    return JsonError(503, std::string("not ready: ") +
                              ReadinessName(readiness()));
  }

  JsonValue body;
  if (!request.body.empty()) {
    StatusOr<JsonValue> parsed = ParseJson(request.body);
    if (!parsed.ok()) return JsonError(400, parsed.status().ToString());
    body = std::move(*parsed);
  }

  std::uint64_t display_size = options_.display_size;
  std::uint64_t seed = 0;
  const JsonValue* seed_field = body.Find("seed");
  if (!ReadUintField(body, "display_size", kMaxJsonInteger, &display_size) ||
      !ReadUintField(body, "seed", kMaxJsonInteger, &seed)) {
    return JsonError(400, "\"display_size\" and \"seed\" must be integers "
                          "in [0, 2^53]");
  }

  QdOptions qd_options;
  qd_options.display_size = static_cast<std::size_t>(display_size);
  qd_options.boundary_threshold = options_.boundary_threshold;
  qd_options.pool = &QueryPool();
  qd_options.cache = cache_.get();

  // The session's trace identity: the client's traceparent when one is
  // supplied and well-formed, a fresh id otherwise. A span-tree buffer is
  // attached while either retention mechanism (head sampling or the slow
  // trigger) could want the tree.
  obs::TraceContext trace;
  if (const std::string* header = request.FindHeader("traceparent")) {
    obs::ParseTraceparent(*header, &trace);
  }
  if (!trace.has_trace_id()) trace = obs::NewTraceContext();

  std::uint64_t session_id = 0;
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    // Re-checked under the lock: /api/reload flips readiness while holding
    // `sessions_mu_`, so a session is only ever registered — and the
    // corpus only ever touched past this point — against a snapshot that
    // stays loaded until the session is erased.
    if (readiness() != Readiness::kServing) {
      return JsonError(503, std::string("not ready: ") +
                                ReadinessName(readiness()));
    }
    if (sessions_.size() >= options_.max_sessions) {
      return JsonError(429, "too many open sessions");
    }
    session_id = next_session_id_++;
    const std::uint64_t opened = sessions_opened_++;
    qd_options.seed = seed_field != nullptr ? seed : session_id;
    session = std::make_shared<Session>(QdSession(&*rfs_, qd_options));
    session->seed = qd_options.seed;
    session->label = "http";
    if (const JsonValue* label = body.Find("label")) {
      if (label->kind == JsonValue::Kind::kString) {
        session->label = label->string;
      }
    }
    session->head_sampled = options_.trace_sample_every > 0 &&
                            opened % options_.trace_sample_every == 0;
    if (session->head_sampled || options_.slow_trace_ms >= 0.0) {
      trace.buffer = std::make_shared<obs::TraceBuffer>();
    }
    session->trace = trace;
    // Published busy so a racing /api/feedback on the fresh id answers 409
    // instead of interleaving with Start().
    session->busy.store(true, std::memory_order_relaxed);
    sessions_[session_id] = session;
  }

  static obs::Counter& sessions_counter =
      obs::MetricsRegistry::Global().GetCounter(
          "qd.sessions", "Interactive QD sessions opened over HTTP");
  sessions_counter.Add(1);

  const std::uint64_t start_ns = obs::MonotonicNanos();
  std::vector<DisplayGroup> display;
  {
    const obs::ScopedTaskContext scoped(obs::TaskContext{
        session->trace, nullptr, &session->resources, &session->access});
    QDCBIR_SPAN("serve.api.query");
    display = session->qd.Start();
  }
  session->rounds_ns += obs::MonotonicNanos() - start_ns;
  session->quality.ObserveRound(DisplayIds(display),
                                session->qd.stats().localized_subqueries);
  session->busy.store(false, std::memory_order_release);

  return DisplayResponse(session_id, session->qd.round(), display,
                         session->trace);
}

obs::HttpResponse ServeApp::HandleApiFeedback(
    const obs::HttpRequest& request) {
  if (request.method != "POST") {
    return JsonError(405, "POST a JSON body with session and relevant ids");
  }
  if (readiness() != Readiness::kServing) {
    return JsonError(503, std::string("not ready: ") +
                              ReadinessName(readiness()));
  }
  StatusOr<JsonValue> parsed = ParseJson(request.body);
  if (!parsed.ok()) return JsonError(400, parsed.status().ToString());
  const JsonValue& body = *parsed;

  std::uint64_t session_id = 0;
  if (!ReadUintField(body, "session", kMaxJsonInteger, &session_id) ||
      session_id == 0) {
    return JsonError(400, "missing or invalid \"session\"");
  }
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return JsonError(404, "no such session");
    }
    session = it->second;
  }
  // One request drives a session at a time. The busy flag (not the map
  // lock) guards the engine: holding a lock across Finalize could let the
  // query pool adopt another connection task that waits on the same lock.
  if (session->busy.exchange(true, std::memory_order_acquire)) {
    return JsonError(409, "session busy");
  }
  struct BusyReset {
    std::atomic<bool>& flag;
    ~BusyReset() { flag.store(false, std::memory_order_release); }
  } busy_reset{session->busy};

  // The session's context spans the whole handler: every span, log entry,
  // and exemplar below carries its trace (fixed at open; a client
  // traceparent here does not re-identify the session), and Feedback and
  // Finalize work on this thread and every pool worker merges into its
  // sinks.
  const obs::ScopedTaskContext scoped(obs::TaskContext{
      session->trace, nullptr, &session->resources, &session->access});

  std::vector<ImageId> relevant;
  if (const JsonValue* ids = body.Find("relevant")) {
    if (!ids->is_array()) return JsonError(400, "\"relevant\" must be an array");
    for (const JsonValue& item : ids->items) {
      std::uint64_t id = 0;
      if (!item.ToUint(kInvalidImageId - 1, &id)) {
        return JsonError(400, "\"relevant\" must hold image ids");
      }
      relevant.push_back(static_cast<ImageId>(id));
    }
  }
  // A present "finalize" closes the session with k results; 0 asks for the
  // server's default k.
  const JsonValue* finalize = body.Find("finalize");
  std::uint64_t k = 0;
  if (finalize != nullptr && !finalize->ToUint(kMaxJsonInteger, &k)) {
    return JsonError(400, "\"finalize\" must be an integer in [0, 2^53]");
  }
  if (k == 0) k = options_.default_k;

  std::uint64_t start_ns = obs::MonotonicNanos();
  StatusOr<std::vector<DisplayGroup>> next = [&] {
    QDCBIR_SPAN("serve.api.feedback");
    return session->qd.Feedback(relevant);
  }();
  session->rounds_ns += obs::MonotonicNanos() - start_ns;
  if (!next.ok()) {
    session->quality.RecordError();
    QDCBIR_LOG(obs::LogLevel::kWarn,
               "feedback rejected: " + next.status().ToString());
    return JsonError(400, next.status().ToString(), session->trace);
  }
  session->picks += relevant.size();
  session->quality.ObserveRound(DisplayIds(*next),
                                session->qd.stats().localized_subqueries);

  if (finalize == nullptr) {
    return DisplayResponse(session_id, session->qd.round(), *next,
                           session->trace);
  }

  start_ns = obs::MonotonicNanos();
  StatusOr<QdResult> result = [&] {
    QDCBIR_SPAN("serve.api.feedback");
    StatusOr<QdResult> finalized = session->qd.Finalize(k);
    if (finalized.ok()) {
      // Quality observation of the final ranked list happens inside the
      // span so the proxies land as annotations on the session's trace.
      session->quality.ObserveRound(
          RankedIds(finalized->Flatten()),
          session->qd.stats().localized_subqueries);
      session->quality.Finalized();
      QDCBIR_SPAN_ANNOTATE(
          "quality.topk_jaccard_permille",
          static_cast<std::int64_t>(session->quality.last_jaccard_permille()));
      QDCBIR_SPAN_ANNOTATE(
          "quality.rank_churn",
          static_cast<std::int64_t>(session->quality.last_rank_churn()));
    }
    return finalized;
  }();
  const std::uint64_t finalize_ns = obs::MonotonicNanos() - start_ns;
  if (!result.ok()) {
    session->quality.RecordError();
    QDCBIR_LOG(obs::LogLevel::kWarn,
               "finalize failed: " + result.status().ToString());
    return JsonError(400, result.status().ToString(), session->trace);
  }

  // The session is complete: publish it to the /queryz audit ring and
  // release the slot. This thread's pending deltas are flushed first
  // (pool workers flushed at task end; `Run` already joined them).
  obs::FlushTaskContext();
  const obs::SessionQuality quality = session->quality.Summary();
  obs::QueryAuditRecord record = AuditRecord(*session, quality);
  record.results = result->TotalImages();
  record.finalize_ns = finalize_ns;
  record.total_ns += finalize_ns;
  record.sequence = obs::QueryLog::Global().Record(record);

  // Per-session physical-work distributions, alongside the latency family.
  {
    static obs::Histogram& distance_evals =
        obs::MetricsRegistry::Global().GetHistogram(
            "serve.session.distance_evals",
            "Distance evaluations per RF session");
    static obs::Histogram& feature_bytes =
        obs::MetricsRegistry::Global().GetHistogram(
            "serve.session.feature_bytes",
            "Feature-vector bytes scanned per RF session");
    static obs::Histogram& leaves_visited =
        obs::MetricsRegistry::Global().GetHistogram(
            "serve.session.leaves_visited",
            "RFS tree nodes visited per RF session");
    static obs::Histogram& tiles_gathered =
        obs::MetricsRegistry::Global().GetHistogram(
            "serve.session.tiles_gathered",
            "Blocked-layout gather tiles built per RF session");
    static obs::Histogram& alloc_bytes =
        obs::MetricsRegistry::Global().GetHistogram(
            "serve.session.alloc_bytes",
            "Hot-container bytes allocated per RF session");
    static obs::Histogram& cache_hits =
        obs::MetricsRegistry::Global().GetHistogram(
            "serve.session.cache_hits", "Cache hits per RF session");
    cache_hits.Record(record.cache_hits);
    distance_evals.Record(record.distance_evals);
    feature_bytes.Record(record.feature_bytes);
    leaves_visited.Record(record.leaves_visited);
    tiles_gathered.Record(record.tiles_gathered);
    alloc_bytes.Record(record.alloc_bytes);
  }

  // Session latency distribution, with the trace id attached as an
  // OpenMetrics exemplar so a latency bucket links to its /tracez tree.
  static obs::Histogram& latency = obs::MetricsRegistry::Global().GetHistogram(
      "serve.session.latency_ns",
      "End-to-end RF session latency (rounds + finalize)");
  latency.Record(record.total_ns);
  obs::MetricsRegistry::Global().RecordExemplar(
      "serve.session.latency_ns", record.total_ns,
      obs::TraceIdHex(session->trace));

  // Retroactive retention: the tree was recorded unconditionally while the
  // buffer existed; keep it when the session was head-sampled or crossed
  // the slow threshold, drop it (with the buffer) otherwise.
  const bool slow =
      options_.slow_trace_ms >= 0.0 &&
      static_cast<double>(record.total_ns) >= options_.slow_trace_ms * 1e6;
  if (session->trace.recording() && (session->head_sampled || slow)) {
    obs::CompletedTrace completed;
    completed.trace_id = obs::TraceIdHex(session->trace);
    completed.label = session->label;
    completed.reason = session->head_sampled ? "sampled" : "slow";
    completed.total_ns = record.total_ns;
    completed.dropped_spans = session->trace.buffer->dropped();
    completed.spans = session->trace.buffer->spans();
    completed.annotations = session->trace.buffer->annotations();
    obs::TraceStore::Global().Publish(std::move(completed));
  }
  QDCBIR_LOG(obs::LogLevel::kInfo,
             "session " + std::to_string(session_id) + " finalized: " +
                 std::to_string(record.results) + " results, " +
                 std::to_string(record.subqueries) + " subqueries, " +
                 std::to_string(record.total_ns / 1000000) + " ms");
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.erase(session_id);
  }
  FinishSessionObservability(*session, session_id, quality, record);

  const QdSessionStats& stats = session->qd.stats();
  return JsonResponse(200, session->trace, [&](obs::JsonWriter* w) {
    w->Key("session").Uint(session_id);
    w->Key("results").BeginArray();
    for (const ImageId id : result->Flatten()) w->Uint(id);
    w->EndArray();
    w->Key("groups").BeginArray();
    for (const ResultGroup& group : result->groups) {
      w->BeginObject();
      w->Key("leaf").Uint(group.leaf);
      w->Key("search_node").Uint(group.search_node);
      w->Key("relevant_count").Uint(group.relevant_count);
      w->Key("images").BeginArray();
      for (const KnnMatch& match : group.images) w->Uint(match.id);
      w->EndArray().EndObject();
    }
    w->EndArray();
    w->Key("stats").BeginObject();
    w->Key("subqueries").Uint(stats.localized_subqueries);
    w->Key("boundary_expansions").Uint(stats.boundary_expansions);
    w->Key("expanded_subqueries").Uint(stats.expanded_subqueries);
    w->Key("knn_nodes_visited").Uint(stats.knn_nodes_visited);
    w->Key("knn_candidates").Uint(stats.knn_candidates);
    w->Key("nodes_touched").Uint(stats.nodes_touched);
    w->Key("distinct_nodes_sampled").Uint(stats.distinct_nodes_sampled);
    w->EndObject();
    w->Key("rounds_ns").Uint(record.rounds_ns);
    w->Key("finalize_ns").Uint(record.finalize_ns);
  });
}

obs::HttpResponse ServeApp::HandleApiRep(const obs::HttpRequest& request) {
  if (request.method != "GET") {
    return JsonError(405, "GET /api/rep?id=N");
  }
  const std::string raw_id = QueryParam(request.query, "id");
  if (raw_id.empty()) return JsonError(400, "missing \"id\" parameter");
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(raw_id.c_str(), &end, 10);
  if (end == raw_id.c_str() || *end != '\0') {
    return JsonError(400, "\"id\" must be a number");
  }
  const ImageId id = static_cast<ImageId>(parsed);

  // The whole render runs under `sessions_mu_`: readiness flips (reload)
  // happen under the same lock, so observing kServing here pins the corpus
  // for the duration. Renders are small (one image) and usually cached.
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (readiness() != Readiness::kServing) {
    return JsonError(503, std::string("not ready: ") +
                              ReadinessName(readiness()));
  }
  if (parsed >= db_->size()) return JsonError(404, "no such image");

  constexpr const char* kPpmType = "image/x-portable-pixmap";
  cache::CacheKey key;
  key.kind = cache::CacheKind::kRepresentatives;
  key.a = id;
  std::uint64_t token = 0;
  if (cache_ != nullptr) {
    if (std::shared_ptr<const std::string> hit =
            cache_->LookupAs<std::string>(key, &token)) {
      return obs::HttpResponse{200, kPpmType, *hit};
    }
  }
  std::string ppm = EncodePpm(db_->Render(id));
  if (cache_ != nullptr) {
    cache_->InsertAs<std::string>(
        key, std::make_shared<const std::string>(ppm),
        sizeof(std::string) + ppm.size(), token);
  }
  return obs::HttpResponse{200, kPpmType, std::move(ppm)};
}

obs::HttpResponse ServeApp::HandleApiReload(const obs::HttpRequest& request) {
  if (request.method != "POST") {
    return JsonError(405, "POST to re-load the snapshot");
  }
  if (reload_busy_.exchange(true, std::memory_order_acquire)) {
    return JsonError(409, "reload already in progress");
  }
  struct BusyReset {
    std::atomic<bool>& flag;
    ~BusyReset() { flag.store(false, std::memory_order_release); }
  } busy_reset{reload_busy_};

  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    // Open sessions hold raw pointers into the current corpus; refusing
    // here (rather than draining) keeps reload semantics simple and safe.
    if (!sessions_.empty()) {
      return JsonError(409, std::to_string(sessions_.size()) +
                                " sessions open; retry when drained");
    }
    const Readiness state = readiness();
    if (state != Readiness::kServing && state != Readiness::kFailed) {
      return JsonError(409, std::string("load in progress: ") +
                                ReadinessName(state));
    }
    // Flipped under `sessions_mu_`: every corpus-touching handler
    // re-checks readiness under this lock, so after the flip nothing can
    // start using db_/rfs_ while the loader below replaces them.
    SetReadiness(Readiness::kLoadingSnapshot);
  }
  if (loader_.joinable()) loader_.join();
  QDCBIR_LOG(obs::LogLevel::kInfo, "snapshot reload requested");
  loader_ = std::thread([this] { LoadInBackground(); });
  return JsonResponse(202, {}, [](obs::JsonWriter* w) {
    w->Key("status").String("reloading");
  });
}

obs::HttpResponse ServeApp::HandleStatusz(const obs::HttpRequest&) {
  const Readiness state = readiness();
  const std::uint64_t uptime_s =
      (obs::MonotonicNanos() - start_mono_ns_) / 1000000000ull;
  std::size_t open_sessions = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    open_sessions = sessions_.size();
  }

  std::string body =
      "<!DOCTYPE html>\n<html><head><title>qdcbir statusz</title>"
      "<style>body{font-family:monospace;margin:2em}"
      "table{border-collapse:collapse}"
      "td{border:1px solid #ccc;padding:4px 10px}</style></head><body>\n";
  body += "<h1>qdcbir serve</h1>\n<table>\n";
  const auto row = [&body](const std::string& key, const std::string& value) {
    body += "<tr><td>" + key + "</td><td>" + value + "</td></tr>\n";
  };
  row("state", ReadinessName(state));
  if (state == Readiness::kFailed) row("load_error", load_error());
  row("uptime_seconds", std::to_string(uptime_s));
  row("started_unix", std::to_string(start_epoch_seconds_));
  row("open_sessions", std::to_string(open_sessions));
  row("git", obs::kBuildGitDescribe);
  row("compiler", obs::kBuildCompiler);
  row("build_type", obs::kBuildType);
  row("obs", obs::kBuildObs);
  row("db", options_.db_path);
  if (cache_ != nullptr) {
    const cache::CacheStats cache_stats = cache_->TotalStats();
    row("cache", std::to_string(cache_stats.bytes_used / 1024) + " KiB of " +
                     std::to_string(cache_->budget_bytes() >> 20) +
                     " MiB, " + std::to_string(cache_stats.hits) + " hits / " +
                     std::to_string(cache_stats.misses) + " misses, " +
                     std::to_string(cache_stats.evictions) + " evictions");
  } else {
    row("cache", "off");
  }
  row("background_profiler",
      profiler_armed_ ? std::to_string(options_.profile_hz) + " Hz" : "off");
  {
    slo_engine_->Evaluate();
    std::string slo_summary = obs::SloStateName(slo_engine_->WorstState());
    slo_summary += " (";
    bool first = true;
    for (const obs::SloStatus& status : slo_engine_->Snapshot()) {
      if (!first) slo_summary += ", ";
      first = false;
      slo_summary += status.name + ": " + obs::SloStateName(status.state);
    }
    slo_summary += ")";
    row("slo", slo_summary);
  }
  {
    const obs::AccessStatsTable& table = obs::AccessStatsTable::Global();
    row("index_access",
        std::to_string(table.Snapshot().size()) + " leaves touched over " +
            std::to_string(table.sessions_merged()) + " sessions, " +
            std::to_string(obs::CoAccessTracker::Global().sets_recorded()) +
            " co-access sets");
  }
  if (wide_events_ != nullptr) {
    row("wide_events", wide_events_->path() + ", " +
                           std::to_string(wide_events_->emitted()) +
                           " emitted, " +
                           std::to_string(wide_events_->dropped()) +
                           " dropped, " +
                           std::to_string(wide_events_->rotations()) +
                           " rotations");
  } else {
    row("wide_events", "off");
  }
  body += "</table>\n<h2>endpoints</h2>\n<ul>\n";
  const auto link = [&body](const char* path, const char* what) {
    body += std::string("<li><a href=\"") + path + "\">" + path + "</a> — " +
            what + "</li>\n";
  };
  link("/healthz", "process liveness");
  link("/readyz", "readiness state machine");
  link("/varz", "build info + metrics snapshot (JSON)");
  link("/metrics", "Prometheus exposition incl. process_* families");
  link("/queryz", "audit ring of completed sessions (JSON)");
  link("/tracez", "sampled and slow span trees (JSON)");
  link("/logz", "structured log ring (JSON)");
  link("/sloz", "SLO burn-rate states (JSON)");
  link("/indexz", "RFS tree geometry + per-leaf access heatmap (JSON)");
  link("/profilez?seconds=2", "span-attributed CPU profile (collapsed)");
  link("/profilez?seconds=2&amp;format=json", "CPU profile (JSON aggregate)");
  body +=
      "</ul>\n<p>POST /api/query opens a session; POST /api/feedback "
      "drives and finalizes it. GET /api/rep?id=N renders a representative "
      "(cached); POST /api/reload re-loads the snapshot and flushes the "
      "cache.</p>\n</body></html>\n";
  return obs::HttpResponse{200, "text/html; charset=utf-8", std::move(body)};
}

obs::HttpResponse ServeApp::HandleProfilez(const obs::HttpRequest& request) {
  double seconds = 2.0;
  double hz = obs::ProfilerOptions{}.hz;
  if (!ParseNumberParam(request.query, "seconds", &seconds) ||
      !ParseNumberParam(request.query, "hz", &hz)) {
    return JsonError(400, "seconds and hz must be finite numbers");
  }
  seconds = std::clamp(seconds, 0.05, 30.0);
  hz = std::clamp(hz, static_cast<double>(obs::ProfilerOptions::kMinHz),
                  static_cast<double>(obs::ProfilerOptions::kMaxHz));
  std::string format = QueryParam(request.query, "format");
  if (format.empty()) format = "collapsed";
  if (format != "collapsed" && format != "json") {
    return JsonError(400, "format must be \"collapsed\" or \"json\"");
  }

  // One capture window at a time; a concurrent request would fight over
  // profiler Start/Stop ownership.
  if (profilez_busy_.exchange(true, std::memory_order_acquire)) {
    return JsonError(409, "profile capture already in progress");
  }
  struct BusyReset {
    std::atomic<bool>& flag;
    ~BusyReset() { flag.store(false, std::memory_order_release); }
  } busy_reset{profilez_busy_};

  // With the background profiler armed the window is a zero-setup slice of
  // the continuous stream (the `hz` parameter is ignored); otherwise this
  // request starts its own capture and stops it afterwards.
  obs::Profiler& profiler = obs::Profiler::Global();
  const bool own_capture = !profiler.running();
  if (own_capture) {
    obs::ProfilerOptions profiler_options;
    profiler_options.hz = static_cast<int>(hz);
    std::string error;
    if (!profiler.Start(profiler_options, &error)) {
      return JsonError(501, "profiler unavailable: " + error);
    }
  }
  const std::uint64_t cursor = profiler.SampleCursor();
  // Deliberately blocks this connection lane for the window; the other
  // http_threads lanes keep serving.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long>(seconds * 1000.0)));
  const std::vector<obs::ProfileSample> samples =
      profiler.CollectSince(cursor);
  const int effective_hz = profiler.hz();
  const std::uint64_t dropped = profiler.dropped();
  if (own_capture) profiler.Stop();

  if (format == "json") {
    return obs::HttpResponse{
        200, kJsonType,
        obs::Profiler::RenderJson(samples, effective_hz, seconds, dropped)};
  }
  return obs::HttpResponse{200, "text/plain; charset=utf-8",
                           obs::Profiler::RenderCollapsed(samples)};
}

obs::HttpResponse ServeApp::HandleSloz(const obs::HttpRequest&) {
  slo_engine_->Evaluate();
  return obs::HttpResponse{200, kJsonType, slo_engine_->RenderJson() + "\n"};
}

obs::HttpResponse ServeApp::HandleIndexz(const obs::HttpRequest& request) {
  std::size_t hot_n = 0;
  if (!ParseCountParam(request.query, kHotLeafDefault, &hot_n)) {
    return JsonError(400, "n must be a positive integer");
  }
  // The tree walk runs under `sessions_mu_` like /api/rep: readiness flips
  // (reload) happen under the same lock, so observing kServing here pins
  // `rfs_` for the duration. The walk is O(nodes) over in-memory structs.
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (readiness() != Readiness::kServing) {
    return JsonError(503, std::string("not ready: ") +
                              ReadinessName(readiness()));
  }
  const IndexTreeSummary summary = SummarizeIndexTree(*rfs_);
  IndexAccessJoin join;
  join.generation = load_generation_.load(std::memory_order_relaxed);
  const obs::AccessStatsTable& table = obs::AccessStatsTable::Global();
  join.sessions = table.sessions_merged();
  join.access = table.Snapshot();
  const obs::CoAccessTracker& coaccess = obs::CoAccessTracker::Global();
  join.coaccess = coaccess.TopPairs(hot_n);
  join.coaccess_sets = coaccess.sets_recorded();
  join.coaccess_evictions = coaccess.evictions();
  join.coaccess_truncated = coaccess.leaves_truncated();
  return obs::HttpResponse{200, kJsonType,
                           RenderIndexzJson(summary, join, hot_n) + "\n"};
}

void ServeApp::FinishSessionObservability(const Session& session,
                                          std::uint64_t session_id,
                                          const obs::SessionQuality& quality,
                                          const obs::QueryAuditRecord& record) {
  // Drain the session's index-access heatmap (finalize flushed this
  // thread's deltas; at teardown none are pending): per-leaf rows into the
  // global table, label-free aggregates into the registry, and the
  // touched-leaf set into the co-access tracker.
  const std::vector<obs::LeafAccess> access = session.access.Snapshot();
  obs::AccessStatsTable::Global().MergeSession(access);
  if (!access.empty()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    static obs::Counter& scans = registry.GetCounter(
        "access.leaf.scans", "Localized leaf scans across RF sessions");
    static obs::Counter& evals = registry.GetCounter(
        "access.leaf.distance_evals",
        "Distance evaluations attributed to leaf scans");
    static obs::Counter& bytes = registry.GetCounter(
        "access.leaf.feature_bytes",
        "Feature-vector bytes read by leaf scans");
    static obs::Counter& hits = registry.GetCounter(
        "access.cache.hits", "Leaf scans answered from the result cache");
    static obs::Counter& misses = registry.GetCounter(
        "access.cache.misses", "Leaf scans that had to touch the index");
    obs::LeafAccessCounts totals;
    std::vector<obs::AccessLeafId> touched;
    for (const obs::LeafAccess& row : access) {
      totals.Add(row.counts);
      if (row.counts.scans > 0 && row.leaf != obs::kTableScanLeaf) {
        touched.push_back(row.leaf);
      }
    }
    scans.Add(totals.scans);
    evals.Add(totals.distance_evals);
    bytes.Add(totals.feature_bytes);
    hits.Add(totals.cache_hits);
    misses.Add(totals.cache_misses);
    obs::CoAccessTracker::Global().RecordTouchedSet(std::move(touched));
  }

  obs::PublishSessionQuality(quality);
  // Sessions only record; the SLOs evaluate here at most once per cadence
  // (and on every /metrics, /sloz and /statusz render).
  slo_engine_->EvaluateIfDue();
  if (wide_events_ == nullptr) return;

  const std::uint64_t unix_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  // The wide event is the session's audit record plus what only the serve
  // layer knows, and the SLO state at completion (one field per definition
  // plus the worst state) so offline slicing can filter sessions by health.
  // That state is the last evaluation's: up to one SLO cadence old.
  std::string event;
  obs::JsonWriter w(&event);
  w.BeginObject();
  w.Key("event").String("session");
  w.Key("unix_ms").Uint(unix_ms);
  w.Key("session").Uint(session_id);
  obs::WriteAuditFields(record, session.label, &w);
  w.Key("display_size").Uint(options_.display_size);
  w.Key("boundary_threshold").Double(options_.boundary_threshold, "%.6g");
  w.Key("cache_mb").Uint(options_.cache_mb);
  w.Key("load_generation")
      .Uint(load_generation_.load(std::memory_order_relaxed));
  w.Key("leaves_touched").Uint(access.size());
  w.Key("quality_mean_jaccard_permille").Uint(quality.mean_jaccard_permille);
  w.Key("quality_subquery_growth").Uint(quality.subquery_growth);
  w.Key("slo_worst").String(obs::SloStateName(slo_engine_->WorstState()));
  for (const obs::SloStatus& status : slo_engine_->Snapshot()) {
    w.Key("slo_" + status.name).String(obs::SloStateName(status.state));
  }
  w.EndObject();
  wide_events_->Emit(event);
}

}  // namespace serve
}  // namespace qdcbir
