#include "layers.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>

#include "harness.h"
#include "qdcbir/cache/cache_manager.h"
#include "qdcbir/core/thread_pool.h"
#include "qdcbir/dataset/database_io.h"
#include "qdcbir/image/ppm_io.h"
#include "qdcbir/obs/access_stats.h"
#include "qdcbir/obs/http_server.h"
#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/prom_export.h"
#include "qdcbir/obs/query_log.h"
#include "qdcbir/obs/resource_stats.h"
#include "qdcbir/obs/trace_context.h"
#include "qdcbir/obs/trace_tree.h"
#include "qdcbir/rfs/rfs_introspect.h"
#include "qdcbir/rfs/rfs_serialization.h"
#include "qdcbir/serve/json_mini.h"

namespace qdcbir {
namespace bench_serve {

void TraceWriter::Add(int tid, const std::string& name, char ph,
                      std::uint64_t ns) {
  const double ts_us =
      ns > origin_ns_ ? static_cast<double>(ns - origin_ns_) / 1000.0 : 0.0;
  char line[96];
  std::snprintf(line, sizeof(line), "\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":1,"
                "\"tid\":%d}", ph, ts_us, tid);
  if (!events_.empty()) events_ += ",\n";
  events_ += "{\"name\":\"" + name + line;
}

void TraceWriter::Begin(int tid, const std::string& name, std::uint64_t ns) {
  Add(tid, name, 'B', ns);
}

void TraceWriter::End(int tid, const std::string& name, std::uint64_t ns) {
  Add(tid, name, 'E', ns);
}

void TraceWriter::Span(int tid, const std::string& name,
                       std::uint64_t begin_ns, std::uint64_t end_ns) {
  Begin(tid, name, begin_ns);
  End(tid, name, end_ns);
}

bool TraceWriter::Write(const std::string& path, std::string* error) const {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\":[\n" << events_ << "\n]}\n";
  out.close();
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

namespace {

/// Times `call` on the replay thread and records it as a span.
template <typename Call>
double TimedUs(TraceWriter* trace, const char* name, Call&& call) {
  const std::uint64_t start = NowNs();
  call();
  const std::uint64_t end = NowNs();
  trace->Span(kReplayTid, name, start, end);
  return static_cast<double>(end - start) / 1000.0;
}

double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

/// Publishes a replayed session into the process-wide obs state the way the
/// serve layer's finalize does, so the obs renders below run over
/// realistically populated rings and tables.
void PublishSession(const SessionRecord& record,
                    const obs::TraceContext& trace,
                    const obs::ResourceAccumulator& resources,
                    const obs::AccessAccumulator& access) {
  obs::QueryAuditRecord audit;
  audit.set_engine("qd");
  audit.set_label("bench");
  audit.seed = record.seed;
  audit.rounds = record.picks.size();
  audit.results = record.results.size();
  const auto stat = [&record](const char* name) {
    const auto it = record.stats.find(name);
    return it == record.stats.end() ? 0 : it->second;
  };
  audit.subqueries = stat("subqueries");
  audit.boundary_expansions = stat("boundary_expansions");
  audit.expanded_subqueries = stat("expanded_subqueries");
  audit.nodes_visited = stat("knn_nodes_visited");
  audit.candidates_scored = stat("knn_candidates");
  audit.nodes_touched = stat("nodes_touched");
  audit.distinct_nodes_sampled = stat("distinct_nodes_sampled");
  audit.trace_hi = trace.trace_hi;
  audit.trace_lo = trace.trace_lo;
  const obs::ResourceUsage usage = resources.Snapshot();
  audit.distance_evals = usage.distance_evals;
  audit.feature_bytes = usage.feature_bytes;
  audit.leaves_visited = usage.leaves_visited;
  audit.cache_hits = usage.cache_hits;
  audit.cache_misses = usage.cache_misses;
  obs::QueryLog::Global().Record(audit);

  obs::CompletedTrace completed;
  completed.trace_id = obs::TraceIdHex(trace);
  completed.label = "bench";
  completed.reason = "sampled";
  completed.spans = trace.buffer->spans();
  completed.annotations = trace.buffer->annotations();
  obs::TraceStore::Global().Publish(std::move(completed));

  const std::vector<obs::LeafAccess> rows = access.Snapshot();
  obs::AccessStatsTable::Global().MergeSession(rows);
  std::vector<obs::AccessLeafId> touched;
  for (const obs::LeafAccess& row : rows) {
    if (row.counts.scans > 0 && row.leaf != obs::kTableScanLeaf) {
      touched.push_back(row.leaf);
    }
  }
  obs::CoAccessTracker::Global().RecordTouchedSet(std::move(touched));
}

}  // namespace

std::map<std::string, double> ReplayLayers(const LayerInputs& inputs,
                                           TraceWriter* trace) {
  const SessionScript& script = inputs.script;
  const RfsTree& rfs = *inputs.rfs;
  // The server's query pool and cache: `qdcbir_tool serve` sizes its pool
  // by DefaultThreadCount and budgets 64 MiB of cache.
  ThreadPool pool;
  cache::CacheManager::Options cache_options;
  cache_options.budget_bytes = std::size_t{64} << 20;
  cache::CacheManager cache(cache_options);
  QdOptions base;
  base.pool = &pool;
  base.cache = &cache;

  std::vector<double> parse_us, json_us, serialize_us, render_us;
  std::vector<double> residual_round, residual_final;
  std::map<std::string, std::vector<double>> engine_us;
  std::vector<double> fanout_us, bare_us, tapped_us;
  std::size_t replayed = 0;
  std::size_t renders_without_reps = 0;
  constexpr std::size_t kRenderSamples = 256;
  constexpr std::size_t kUncachedSessions = 64;

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::duration<double>(inputs.budget_s));
  for (const SessionRecord& record : *inputs.sessions) {
    if (!record.traced || !record.ok) continue;
    if (std::chrono::steady_clock::now() > deadline) break;
    trace->Begin(kReplayTid, "replay.session", NowNs());

    // Engine calls under the serve layer's sinks, as a request handler
    // installs them.
    obs::TraceContext context;
    context.trace_hi = record.trace_hi;
    context.trace_lo = record.trace_lo;
    context.buffer = std::make_shared<obs::TraceBuffer>();
    obs::ResourceAccumulator resources;
    obs::AccessAccumulator access;
    std::vector<ReplayCall> calls;
    std::string mismatch;
    {
      const obs::ScopedTraceContext scoped(context);
      const obs::ScopedResourceAccounting accounting(&resources);
      const obs::ScopedAccessAccounting access_accounting(&access);
      ReplaySession(record, script, rfs, base, &calls, &mismatch);
    }
    // Engine time of each API request: Start, each non-final Feedback, and
    // the final request's Feedback + Finalize. Finalize is the server's own
    // "finalize_ns", since its cache saw other traffic than this replay's.
    // The server reports Start and Feedback only as a session total, so
    // those are the replay's times.
    std::vector<double> request_engine_us;
    for (const ReplayCall& call : calls) {
      trace->Span(kReplayTid, call.name, call.start_ns, call.end_ns);
      const double us = static_cast<double>(call.end_ns - call.start_ns) / 1e3;
      engine_us[call.name].push_back(us);
      if (std::string(call.name) == "qd.finalize" &&
          !request_engine_us.empty()) {
        request_engine_us.back() +=
            static_cast<double>(record.server_finalize_ns) / 1e3;
      } else {
        request_engine_us.push_back(us);
      }
    }
    PublishSession(record, context, resources, access);

    std::size_t api_index = 0;
    for (const ExchangeRecord& ex : record.exchanges) {
      trace->Begin(kReplayTid, "replay.request", NowNs());
      obs::HttpRequest request;
      std::size_t consumed = 0;
      const double parse = TimedUs(trace, "http.parse", [&] {
        obs::ParseHttpRequest(ex.request, &request, &consumed);
      });
      parse_us.push_back(parse);
      obs::HttpResponse response(ex.status, ex.content_type, ex.body);
      if (!ex.traceparent.empty()) {
        response.headers.emplace_back("traceparent", ex.traceparent);
      }
      double json = 0.0;
      if (ex.kind == RequestKind::kRep) {
        render_us.push_back(TimedUs(trace, "image.render", [&] {
          response.body = EncodePpm(inputs.db->Render(
              static_cast<ImageId>(ex.rep_id)));
        }));
      } else {
        json = TimedUs(trace, "json.parse",
                       [&] { (void)serve::ParseJson(request.body); });
        json_us.push_back(json);
      }
      const double serialize = TimedUs(trace, "http.serialize", [&] {
        (void)obs::SerializeHttpResponse(response, true);
      });
      serialize_us.push_back(serialize);
      trace->End(kReplayTid, "replay.request", NowNs());
      if (ex.kind == RequestKind::kRep) continue;
      if (api_index >= request_engine_us.size()) continue;
      const double rtt = static_cast<double>(ex.done_ns - ex.sent_ns) / 1e3;
      const double residual =
          rtt - parse - json - request_engine_us[api_index++] - serialize;
      (ex.kind == RequestKind::kFinalize ? residual_final : residual_round)
          .push_back(residual);
    }

    // Workloads without /api/rep traffic still price a render: the first
    // display's images.
    if (!script.fetch_reps && renders_without_reps < kRenderSamples) {
      for (const ImageId id : record.displays.front().front().images) {
        render_us.push_back(TimedUs(trace, "image.render", [&] {
          (void)EncodePpm(inputs.db->Render(id));
        }));
        ++renders_without_reps;
      }
    }

    const auto subqueries = record.stats.find("subqueries");
    const std::size_t fanout =
        subqueries == record.stats.end() ? 0 : subqueries->second;
    fanout_us.push_back(TimedUs(trace, "pool.parallel_for", [&] {
      pool.ParallelFor(0, fanout, [](std::size_t) {});
    }));

    // Uncached Finalize of the same feedback state, with and without the
    // serve sinks, alternating which runs first.
    if (replayed < kUncachedSessions) {
      QdOptions uncached = base;
      uncached.cache = nullptr;
      uncached.seed = record.seed;
      uncached.display_size = script.display_size;
      QdSession session(&rfs, uncached);
      session.Start();
      for (const std::vector<ImageId>& picks : record.picks) {
        (void)session.Feedback(picks);
      }
      const auto bare = [&] {
        bare_us.push_back(TimedUs(trace, "qd.finalize", [&] {
          (void)session.Finalize(script.k);
        }));
      };
      const auto tapped = [&] {
        obs::TraceContext tapped_context = context;
        tapped_context.buffer = std::make_shared<obs::TraceBuffer>();
        obs::ResourceAccumulator tapped_resources;
        obs::AccessAccumulator tapped_access;
        tapped_us.push_back(TimedUs(trace, "qd.finalize.tapped", [&] {
          const obs::ScopedTraceContext scoped(tapped_context);
          const obs::ScopedResourceAccounting accounting(&tapped_resources);
          const obs::ScopedAccessAccounting access_accounting(&tapped_access);
          (void)session.Finalize(script.k);
        }));
      };
      if (replayed % 2 == 0) {
        bare();
        tapped();
      } else {
        tapped();
        bare();
      }
    }
    ++replayed;
    trace->End(kReplayTid, "replay.session", NowNs());
  }

  std::map<std::string, double> out;
  out["http.parse_us"] = Median(parse_us);
  out["http.serialize_us"] = Median(serialize_us);
  out["json.parse_us"] = Median(json_us);
  out["serve.residual_us.round"] = Median(residual_round);
  out["serve.residual_us.finalize"] = Median(residual_final);
  for (const char* name : {"qd.start", "qd.feedback", "qd.finalize"}) {
    out[std::string(name) + "_us.p50"] = Quantile(engine_us[name], 0.5);
    out[std::string(name) + "_us.p90"] = Quantile(engine_us[name], 0.9);
  }
  out["qd.finalize_us.uncached"] = Median(bare_us);
  out["obs.taps_us.finalize"] = Median(tapped_us) - Median(bare_us);
  out["image.render_us"] = Median(render_us);
  out["pool.parallel_for_us"] = Median(fanout_us);
  out["replay.sessions"] = static_cast<double>(replayed);

  // Renders of the obs state the replay published, as the admin handlers
  // produce them.
  const auto median_ms = [trace](const char* name,
                                 const std::function<void()>& render) {
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      ms.push_back(TimedUs(trace, name, render) / 1000.0);
    }
    return Median(ms);
  };
  out["obs.render.metrics_ms"] = median_ms("obs.render.metrics", [] {
    (void)obs::RenderPrometheusText(obs::MetricsRegistry::Global());
  });
  out["obs.render.queryz_ms"] = median_ms("obs.render.queryz", [] {
    (void)obs::QueryLog::Global().RenderJson();
  });
  out["obs.render.tracez_ms"] = median_ms("obs.render.tracez", [] {
    (void)obs::TraceStore::Global().RenderJson();
  });
  out["obs.render.indexz_ms"] = median_ms("obs.render.indexz", [&rfs] {
    IndexAccessJoin join;
    const obs::AccessStatsTable& table = obs::AccessStatsTable::Global();
    join.sessions = table.sessions_merged();
    join.access = table.Snapshot();
    const obs::CoAccessTracker& coaccess = obs::CoAccessTracker::Global();
    join.coaccess = coaccess.TopPairs(16);
    join.coaccess_sets = coaccess.sets_recorded();
    (void)RenderIndexzJson(SummarizeIndexTree(rfs), join, 16);
  });

  // Set-up layers: the snapshot load and RFS decode the server performs
  // before /readyz turns 200.
  out["dataset.load_ms"] = median_ms("dataset.load", [&inputs, &pool] {
    SnapshotLoadOptions load_options;
    load_options.pool = &pool;
    (void)DatabaseIo::LoadDatabase(inputs.db_path, load_options);
  });
  std::ifstream rfs_file(inputs.rfs_path, std::ios::binary);
  std::ostringstream rfs_bytes;
  rfs_bytes << rfs_file.rdbuf();
  const std::string blob = std::move(rfs_bytes).str();
  out["rfs.deserialize_ms"] = median_ms("rfs.deserialize", [&blob] {
    (void)RfsSerializer::Deserialize(blob);
  });
  return out;
}

}  // namespace bench_serve
}  // namespace qdcbir
