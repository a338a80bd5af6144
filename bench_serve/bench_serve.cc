// bench_serve: the end-to-end serving benchmark. Spawns the shipped server
// (`qdcbir_tool serve`), drives scripted oracle relevance-feedback sessions
// at it over loopback HTTP on an open-loop Poisson schedule, checks every
// answer against an in-process QdSession replay, and prints each metric by
// name with its unit and sample count. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   bench_serve [--workload=explore|replay|wide|observed|all] [--seed=1]
//               [--seconds=25] [--trace=0|1] [--server=PATH]
//               [--cache-dir=bench_cache] [--images=15000]
//
// --trace=1 makes the separate traced run: client spans per session and
// request, then an off-the-clock replay of the transcripts through each
// layer; the JSON then carries the per-layer metrics and the Chrome trace
// goes to <cache-dir>/run/trace_<workload>.json. See README.md for the
// metric table.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "harness.h"
#include "http_client.h"
#include "layers.h"
#include "qdcbir/cache/cache_manager.h"
#include "qdcbir/core/thread_pool.h"
#include "qdcbir/eval/ground_truth.h"
#include "qdcbir/eval/metrics.h"
#include "qdcbir/image/ppm_io.h"
#include "qdcbir/obs/prom_export.h"
#include "qdcbir/serve/json_mini.h"
#include "server_process.h"
#include "session.h"

namespace qdcbir {
namespace bench_serve {
namespace {

/// One traffic mix. The README explains why each exists.
struct Workload {
  std::string name;
  double rate = 0.0;  ///< sessions per second (open loop)
  std::size_t connections = 1;
  SessionScript script;
  /// 0: every session has its own seed. N: sessions replay N scripts.
  std::size_t scripts = 0;
  double scrape_rate = 0.0;  ///< admin GETs per second on one extra conn
  bool all_telemetry = false;
};

std::vector<Workload> AllWorkloads() {
  return {
      {"explore", 500.0, 3, {21, 10, 50, false}, 0, 0.0, false},
      {"replay", 100.0, 3, {21, 10, 50, true}, 32, 0.0, false},
      {"wide", 100.0, 1, {100, 30, 1000, false}, 0, 0.0, false},
      {"observed", 300.0, 2, {21, 10, 50, false}, 0, 20.0, true},
  };
}

/// Per-session latency limit: a session that fails or takes longer misses.
constexpr double kSessionSloMs = 10.0;
constexpr int kColdStarts = 5;
/// Sessions still queued this long after a phase's last due time are
/// skipped and count as failed.
constexpr double kGraceSeconds = 10.0;
/// Windows of the measured phase for server CPU per session.
constexpr std::size_t kCpuWindows = 10;
const char* const kScrapeTargets[] = {"/metrics", "/queryz", "/tracez",
                                      "/indexz"};

struct Options {
  std::uint64_t seed = 1;
  double seconds = 25.0;  ///< measured phase
  /// Warm-up phase before it: 2 s, or a quarter of a shorter phase.
  double warmup = 2.0;
  bool traced = false;
  std::string trace_out;
  std::string server;
  std::string work_dir;
  /// Wall budget of the traced run's layer replay: 3 s, or 15% of a
  /// shorter phase.
  double layer_budget = 3.0;
};

struct Corpus {
  ImageDatabase db;
  RfsTree rfs;
  std::vector<QueryGroundTruth> gts;
  std::string db_path;
  std::string rfs_path;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
};

struct Report {
  std::string workload;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<Metric> diag;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
};

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

/// Appends `<prefix>_p50_ms` and `<prefix>_p90_ms` to `to` (each the median
/// over windows of the measured phase), and the supported tail percentiles
/// of the whole phase to `diag`.
void AddLatency(const std::string& prefix,
                const std::vector<TimedSample>& samples, double duration,
                std::vector<Metric>* to, std::vector<Metric>* diag) {
  for (const auto& [suffix, q] :
       {std::pair<const char*, double>{"_p50_ms", 0.5}, {"_p90_ms", 0.9}}) {
    to->push_back({prefix + suffix, "ms",
                   WindowedQuantile(samples, duration, q), samples.size()});
  }
  std::vector<double> ms;
  for (const TimedSample& sample : samples) ms.push_back(sample.value);
  for (const auto& [suffix, q] :
       {std::pair<const char*, double>{"_p99_ms", 0.99}, {"_p999_ms", 0.999}}) {
    if (PercentileSupported(ms.size(), q)) {
      diag->push_back({prefix + suffix, "ms", Quantile(ms, q), ms.size()});
    }
  }
}

/// GET `target` on `connection`; false on a transport error or non-200.
bool Get(HttpConnection& connection, int port, const std::string& target,
         HttpReply* reply, std::string* error) {
  if (!connection.connected() &&
      !connection.Connect(port, kRequestTimeoutMs, error)) {
    return false;
  }
  if (!connection.Exchange(BuildRequest("GET", target, "", ""), reply,
                           error)) {
    return false;
  }
  if (reply->status != 200) {
    *error = target + " answered " + std::to_string(reply->status);
    return false;
  }
  return true;
}

/// Counter and gauge values from `/varz`.
struct Varz {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;

  double Counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
};

bool FetchVarz(HttpConnection& connection, int port, Varz* out,
               std::string* error) {
  HttpReply reply;
  if (!Get(connection, port, "/varz", &reply, error)) return false;
  StatusOr<serve::JsonValue> doc = serve::ParseJson(reply.body);
  if (!doc.ok()) {
    *error = "/varz: " + doc.status().ToString();
    return false;
  }
  if (const serve::JsonValue* counters = doc->Find("counters")) {
    for (const auto& [name, value] : counters->fields) {
      out->counters[name] = value.number;
    }
  }
  if (const serve::JsonValue* gauges = doc->Find("gauges")) {
    for (const auto& [name, value] : gauges->fields) {
      const serve::JsonValue* current = value.Find("value");
      if (current != nullptr) out->gauges[name] = current->number;
    }
  }
  return true;
}

/// One admin scrape: a 200 with a well-formed body (a valid Prometheus
/// exposition for /metrics, JSON for the others).
bool Scrape(HttpConnection& connection, int port, const std::string& target,
            ExchangeRecord* record, std::string* error) {
  HttpReply reply;
  record->kind = RequestKind::kScrape;
  record->sent_ns = NowNs();
  const bool ok = Get(connection, port, target, &reply, error);
  record->done_ns = NowNs();
  record->status = reply.status;
  record->wire_bytes = reply.wire_bytes;
  if (!ok) return false;
  if (target == "/metrics") {
    return obs::ValidatePrometheusText(reply.body, error);
  }
  StatusOr<serve::JsonValue> doc = serve::ParseJson(reply.body);
  if (!doc.ok()) *error = target + ": " + doc.status().ToString();
  return doc.ok();
}

Report RunWorkload(const Workload& workload, const Corpus& corpus,
                   const Options& options, TraceWriter* trace) {
  Report report;
  report.workload = workload.name;
  const auto fail = [&report](const std::string& message) {
    ++report.failed;
    if (report.errors.size() < 8) report.errors.push_back(message);
  };
  const std::uint64_t name_hash =
      cache::HashBytes(workload.name.data(), workload.name.size());
  const std::uint64_t salt = Mix(options.seed, name_hash);
  // Scripted sessions are the same under every seed, so a replay run
  // repeats a fixed set; the seed still draws the arrival times.
  const std::uint64_t script_salt =
      workload.scripts > 0 ? Mix(0, name_hash) : salt;

  // --max-seconds makes a server orphaned by a killed benchmark exit on
  // its own.
  const int lifetime_s = static_cast<int>(
      options.warmup + options.seconds + 2 * kGraceSeconds + 120);
  std::vector<std::string> args = {
      "--db=" + corpus.db_path, "--rfs=" + corpus.rfs_path, "--port=0",
      "--max-seconds=" + std::to_string(lifetime_s)};
  const std::string wide_events =
      options.work_dir + "/wide_events_" + workload.name + ".jsonl";
  if (workload.all_telemetry) {
    for (const char* flag :
         {"--trace-sample-every=1", "--slow-trace-ms=0", "--profile-hz=47",
          "--history-interval-ms=1"}) {
      args.emplace_back(flag);
    }
    args.push_back("--wide-events=" + wide_events);
  }
  const std::string log =
      options.work_dir + "/server_" + workload.name + ".log";

  // Set-up time: spawn to the first /readyz 200, over several cold starts
  // because a single start varies; the last start serves the workload.
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < kColdStarts; ++i) {
    if (server != nullptr) server->Stop();
    server.reset();
    std::string error;
    const std::uint64_t spawned = NowNs();
    server = ServerProcess::Spawn(options.server, args, log, &error);
    if (server == nullptr || !server->WaitReady(60.0, &error)) {
      ++report.attempted;
      fail("server start: " + error);
      return report;
    }
    setup_s.push_back(static_cast<double>(NowNs() - spawned) / 1e9);
  }
  const int port = server->port();

  const std::size_t workers = workload.connections;
  const bool scraping = workload.scrape_rate > 0.0;
  std::vector<HttpConnection> connections(workers + (scraping ? 1 : 0));
  for (HttpConnection& connection : connections) {
    std::string error;
    if (!connection.Connect(port, kRequestTimeoutMs, &error)) {
      ++report.attempted;
      fail("connect: " + error);
      return report;
    }
  }

  // The plan: seeds, concepts and arrival times all follow from --seed.
  const std::vector<double> warm_due =
      PoissonSchedule(Mix(salt, 1), workload.rate, options.warmup);
  const std::vector<double> measured_due =
      PoissonSchedule(Mix(salt, 2), workload.rate, options.seconds);
  std::vector<SessionRecord> sessions(warm_due.size() + measured_due.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    SessionRecord& record = sessions[i];
    const std::size_t script =
        workload.scripts > 0 ? i % workload.scripts : i;
    record.index = i;
    // Seeds travel as JSON numbers (doubles): keep them below 2^53.
    record.seed = Mix(script_salt, 1000 + script) >> 11;
    record.concept_index = script % corpus.gts.size();
    record.trace_hi = Mix(salt, 2 * i + 7) | 1;
    record.trace_lo = Mix(salt, 2 * i + 8);
    // Half the sessions, picked by a seeded hash rather than by index, so
    // that every replayed script is both traced and untraced.
    record.traced = options.traced && record.trace_lo % 2 == 0;
  }
  const std::vector<double> warm_scrape_due =
      PoissonSchedule(Mix(salt, 3), workload.scrape_rate, options.warmup);
  const std::vector<double> measured_scrape_due =
      PoissonSchedule(Mix(salt, 4), workload.scrape_rate, options.seconds);
  std::vector<ExchangeRecord> scrapes(warm_scrape_due.size() +
                                      measured_scrape_due.size());
  std::vector<std::string> scrape_errors(scrapes.size());

  struct Phase {
    OpenLoopResult sessions;
    OpenLoopResult scrapes;
    std::uint64_t start_ns = 0;
    std::vector<double> cpu_s;  ///< server CPU at each window edge
  };
  const auto run_phase = [&](const std::vector<double>& due,
                             std::size_t offset,
                             const std::vector<double>& scrape_due,
                             std::size_t scrape_offset, double duration,
                             std::size_t cpu_windows) {
    Phase phase;
    const double deadline = duration + kGraceSeconds;
    phase.start_ns = NowNs();
    {
      std::jthread sampler;
      if (cpu_windows > 0) {
        sampler = std::jthread([&] {
          const auto start = std::chrono::steady_clock::now();
          for (std::size_t k = 0; k <= cpu_windows; ++k) {
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(
                                duration * static_cast<double>(k) /
                                static_cast<double>(cpu_windows))));
            phase.cpu_s.push_back(server->CpuSeconds());
          }
        });
      }
      std::jthread scraper;
      if (!scrape_due.empty()) {
        scraper = std::jthread([&] {
          phase.scrapes = RunOpenLoop(
              scrape_due, 1, deadline, [&](std::size_t j, std::size_t) {
                const std::size_t k = scrape_offset + j;
                std::string& error = scrape_errors[k];
                if (!Scrape(connections[workers], port,
                            kScrapeTargets[k % std::size(kScrapeTargets)],
                            &scrapes[k], &error) &&
                    error.empty()) {
                  error = "invalid scrape";
                }
              });
        });
      }
      phase.sessions = RunOpenLoop(
          due, workers, deadline, [&](std::size_t j, std::size_t worker) {
            SessionRecord& record = sessions[offset + j];
            record.worker = worker;
            RunSession(connections[worker], port, workload.script,
                       corpus.gts[record.concept_index], &record);
          });
    }
    return phase;
  };

  run_phase(warm_due, 0, warm_scrape_due, 0, options.warmup, 0);
  std::string error;
  Varz before;
  if (!FetchVarz(connections[0], port, &before, &error)) fail(error);
  const Phase measured =
      run_phase(measured_due, warm_due.size(), measured_scrape_due,
                warm_scrape_due.size(), options.seconds, kCpuWindows);
  Varz after;
  if (!FetchVarz(connections[0], port, &after, &error)) fail(error);
  HttpReply metrics_reply;
  if (!Get(connections[0], port, "/metrics", &metrics_reply, &error)) {
    fail(error);
  }
  const double peak_rss_mb = server->PeakRssMb();
  // Every session finalized, so the server must hold none open.
  const double open_sessions =
      after.Counter("qd.sessions") -
      after.Counter("quality.sessions.finalized") -
      after.Counter("quality.sessions.abandoned") -
      after.Counter("quality.sessions.errored");
  report.attempted += 1;
  if (open_sessions != 0.0) {
    fail(std::to_string(open_sessions) + " sessions left open");
  }
  for (HttpConnection& connection : connections) connection.Close();
  report.attempted += 1;
  if (!server->Stop()) fail("server did not exit cleanly (see " + log + ")");
  server.reset();
  std::error_code ignored;
  std::filesystem::remove(wide_events, ignored);
  std::filesystem::remove(wide_events + ".1", ignored);

  // Transport and status failures, and sessions the deadline skipped.
  for (const SessionRecord& record : sessions) {
    if (record.exchanges.empty()) {
      ++report.attempted;
      fail("session " + std::to_string(record.index) + " never ran");
      continue;
    }
    for (const ExchangeRecord& ex : record.exchanges) {
      ++report.attempted;
      if (ex.status != 200) fail("session " + std::to_string(record.index) +
                                 ": " + record.error);
    }
    if (record.exchanges.back().status == 200 && !record.ok) {
      fail("session " + std::to_string(record.index) + ": " + record.error);
    }
  }
  for (std::size_t k = 0; k < scrapes.size(); ++k) {
    ++report.attempted;
    if (!scrape_errors[k].empty() || scrapes[k].sent_ns == 0) {
      fail("scrape: " + (scrape_errors[k].empty() ? std::string("skipped")
                                                  : scrape_errors[k]));
    }
  }

  // Parity: every completed session replayed in process must give the
  // server's displays, results, groups and stats byte for byte.
  std::size_t mismatches = 0;
  {
    ThreadPool pool;
    cache::CacheManager::Options cache_options;
    cache_options.budget_bytes = std::size_t{64} << 20;
    cache::CacheManager cache(cache_options);
    QdOptions base;
    base.pool = &pool;
    base.cache = &cache;
    std::vector<std::string> mismatch(sessions.size());
    pool.ParallelFor(0, sessions.size(), [&](std::size_t i) {
      if (!sessions[i].ok) return;
      if (!ReplaySession(sessions[i], workload.script, corpus.rfs, base,
                         nullptr, &mismatch[i]) &&
          mismatch[i].empty()) {
        mismatch[i] = "replay failed";
      }
    });
    // Each /api/rep body must equal the in-process render of that image.
    std::map<ImageId, std::uint64_t> rep_hash;
    for (const SessionRecord& record : sessions) {
      for (const auto& [id, hash] : record.reps) {
        const auto [it, inserted] = rep_hash.emplace(id, hash);
        if (!inserted && it->second != hash) {
          mismatch[record.index] = "rep " + std::to_string(id) + " changed";
        }
      }
    }
    std::vector<std::pair<ImageId, std::uint64_t>> reps(rep_hash.begin(),
                                                        rep_hash.end());
    std::vector<char> rep_ok(reps.size(), 1);
    pool.ParallelFor(0, reps.size(), [&](std::size_t i) {
      rep_ok[i] = HashBody(EncodePpm(corpus.db.Render(reps[i].first))) ==
                  reps[i].second;
    });
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      if (!sessions[i].ok) continue;
      ++report.attempted;
      if (!mismatch[i].empty()) {
        ++mismatches;
        fail("parity, session " + std::to_string(i) + ": " + mismatch[i]);
      }
    }
    for (std::size_t i = 0; i < reps.size(); ++i) {
      ++report.attempted;
      if (!rep_ok[i]) {
        ++mismatches;
        fail("parity, rep " + std::to_string(reps[i].first));
      }
    }
  }

  // End-to-end metrics over the measured phase.
  const std::size_t first = warm_due.size();
  const double duration = options.seconds;
  const auto phase_offset = [&measured](std::uint64_t ns) {
    return static_cast<double>(ns - measured.start_ns) / 1e9;
  };
  std::vector<TimedSample> session_ms, query_ms, round_ms, finalize_ms,
      rep_ms, scrape_ms;
  std::vector<double> traced_ms, untraced_ms, precision, gtir, bytes_out,
      requests;
  std::vector<std::size_t> completed_in_window(kCpuWindows, 0);
  std::map<std::string, std::vector<double>> stats;
  std::size_t slo_misses = 0;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const SessionRecord& record = sessions[i];
    if (record.ok) {
      const QueryGroundTruth& gt = corpus.gts[record.concept_index];
      precision.push_back(
          ComputePrecisionRecall(record.results, gt).precision);
      gtir.push_back(ComputeGtir(record.results, gt));
    }
    if (i < first) continue;
    const JobTiming& timing = measured.sessions.jobs[i - first];
    const double latency_ms = (timing.end - timing.due) * 1000.0;
    if (!record.ok || !timing.ran || latency_ms > kSessionSloMs) {
      ++slo_misses;
    }
    if (!record.ok || !timing.ran) continue;
    session_ms.push_back({timing.due, latency_ms});
    (record.traced ? traced_ms : untraced_ms).push_back(latency_ms);
    const std::size_t window = static_cast<std::size_t>(
        timing.end / duration * static_cast<double>(kCpuWindows));
    if (window < kCpuWindows) ++completed_in_window[window];
    double wire = 0.0;
    for (const ExchangeRecord& ex : record.exchanges) {
      const TimedSample rtt{phase_offset(ex.sent_ns),
                            static_cast<double>(ex.done_ns - ex.sent_ns) / 1e6};
      wire += static_cast<double>(ex.wire_bytes);
      switch (ex.kind) {
        case RequestKind::kQuery: query_ms.push_back(rtt); break;
        case RequestKind::kRound: round_ms.push_back(rtt); break;
        case RequestKind::kFinalize: finalize_ms.push_back(rtt); break;
        case RequestKind::kRep: rep_ms.push_back(rtt); break;
        case RequestKind::kScrape: break;
      }
    }
    bytes_out.push_back(wire);
    requests.push_back(static_cast<double>(record.exchanges.size()));
    for (const auto& [name, value] : record.stats) {
      stats[name].push_back(static_cast<double>(value));
    }
  }
  const std::size_t completed = session_ms.size();
  for (std::size_t j = 0; j < measured.scrapes.jobs.size(); ++j) {
    const JobTiming& timing = measured.scrapes.jobs[j];
    if (timing.ran && scrape_errors[warm_scrape_due.size() + j].empty()) {
      scrape_ms.push_back({timing.due, (timing.end - timing.due) * 1000.0});
    }
  }
  // Server CPU per completed session in each window, then the median.
  std::vector<double> cpu_us_per_session;
  for (std::size_t k = 0;
       k + 1 < measured.cpu_s.size() && k < kCpuWindows; ++k) {
    if (completed_in_window[k] == 0) continue;
    cpu_us_per_session.push_back(
        (measured.cpu_s[k + 1] - measured.cpu_s[k]) * 1e6 /
        static_cast<double>(completed_in_window[k]));
  }

  report.e2e.push_back({"setup_s", "s", Quantile(setup_s, 0.5),
                        setup_s.size()});
  // Latencies and server CPU per session move with the host's state by more
  // than the 10% bound between runs (README, "Run-to-run spread"), so they
  // are not gated: the traced run reports them with the layer metrics, and
  // every run prints them.
  std::vector<Metric>& ungated = options.traced ? report.layers : report.diag;
  AddLatency("session", session_ms, duration, &ungated, &report.diag);
  AddLatency("query", query_ms, duration, &report.diag, &report.diag);
  AddLatency("round", round_ms, duration, &ungated, &report.diag);
  AddLatency("finalize", finalize_ms, duration, &ungated, &report.diag);
  ungated.push_back({"server.cpu_us_per_session", "us",
                     Quantile(cpu_us_per_session, 0.5), completed});
  report.e2e.push_back({"server_peak_rss_mb", "MiB", peak_rss_mb, 1});
  report.e2e.push_back({"precision", "ratio", Mean(precision),
                        precision.size()});
  report.e2e.push_back({"gtir", "ratio", Mean(gtir), gtir.size()});

  if (!rep_ms.empty()) {
    AddLatency("rep", rep_ms, duration, &report.diag, &report.diag);
  }
  if (!scrape_ms.empty()) {
    AddLatency("scrape", scrape_ms, duration, &report.diag, &report.diag);
  }
  const double due = static_cast<double>(measured_due.size());
  report.diag.push_back({"slo_miss_ratio", "ratio",
                         due > 0 ? static_cast<double>(slo_misses) / due : 0.0,
                         measured_due.size()});
  report.diag.push_back(
      {"error_ratio", "ratio",
       report.attempted > 0 ? static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted)
                            : 0.0,
       report.attempted});
  report.diag.push_back({"parity_mismatches", "count",
                         static_cast<double>(mismatches), sessions.size()});
  report.diag.push_back({"sessions_per_s", "1/s",
                         static_cast<double>(completed) / options.seconds,
                         completed});
  const double lateness_ms =
      std::max(measured.sessions.max_lateness, measured.scrapes.max_lateness) *
      1000.0;
  report.diag.push_back({"max_lateness_ms", "ms", lateness_ms, completed});
  if (lateness_ms > 5.0) {
    std::fprintf(stderr,
                 "[bench_serve] %s: generator ran %.2f ms late; the run's "
                 "latencies understate queueing\n",
                 workload.name.c_str(), lateness_ms);
  }

  if (!options.traced) return report;

  // The traced run: client spans, then the per-layer replay.
  for (const SessionRecord& record : sessions) {
    if (!record.traced || record.exchanges.empty()) continue;
    const int tid = static_cast<int>(record.worker);
    trace->Begin(tid, "session", record.start_ns);
    for (const ExchangeRecord& ex : record.exchanges) {
      if (ex.sent_ns == 0) continue;
      trace->Span(tid, std::string("http.") + RequestKindName(ex.kind),
                  ex.sent_ns, ex.done_ns);
    }
    trace->End(tid, "session", record.end_ns);
  }
  for (const ExchangeRecord& ex : scrapes) {
    if (ex.sent_ns != 0) {
      trace->Span(static_cast<int>(workers), "http.scrape", ex.sent_ns,
                  ex.done_ns);
    }
  }
  LayerInputs inputs;
  inputs.sessions = &sessions;
  inputs.script = workload.script;
  inputs.db = &corpus.db;
  inputs.rfs = &corpus.rfs;
  inputs.db_path = corpus.db_path;
  inputs.rfs_path = corpus.rfs_path;
  inputs.budget_s = options.layer_budget;
  std::map<std::string, double> layers = ReplayLayers(inputs, trace);
  report.diag.push_back(
      {"replay.sessions", "count", layers["replay.sessions"], 0});
  layers.erase("replay.sessions");
  for (const auto& [name, value] : layers) {
    const bool ms = name.size() > 3 &&
                    name.compare(name.size() - 3, 3, "_ms") == 0;
    report.layers.push_back({name, ms ? "ms" : "us", value, 0});
  }

  const auto add = [&report](const std::string& name, const char* unit,
                             double value, std::size_t samples) {
    report.layers.push_back({name, unit, value, samples});
  };
  add("http.bytes_out_per_session", "bytes", Mean(bytes_out), completed);
  add("http.requests_per_session", "count", Mean(requests), completed);
  for (const auto& [stat, name] :
       {std::pair<const char*, const char*>{"subqueries",
                                            "qd.subqueries_per_session"},
        {"knn_candidates", "qd.knn_candidates_per_session"},
        {"knn_nodes_visited", "qd.knn_nodes_visited_per_session"},
        {"boundary_expansions", "qd.boundary_expansions_per_session"}}) {
    add(name, "count", Mean(stats[stat]), stats[stat].size());
  }
  for (const char* kind : {"topk", "leaf_scan", "representatives"}) {
    const std::string prefix = std::string("cache.") + kind;
    const double hits =
        after.Counter(prefix + ".hit") - before.Counter(prefix + ".hit");
    const double misses =
        after.Counter(prefix + ".miss") - before.Counter(prefix + ".miss");
    add(prefix + ".hit_ratio", "ratio",
        hits + misses > 0 ? hits / (hits + misses) : 0.0,
        static_cast<std::size_t>(hits + misses));
  }
  add("cache.evictions_per_session", "count",
      completed > 0 ? (after.Counter("cache.evictions") -
                       before.Counter("cache.evictions")) /
                          static_cast<double>(completed)
                    : 0.0,
      completed);
  add("cache.bytes", "bytes", after.gauges["cache.bytes"], 1);
  add("obs.metrics_bytes", "bytes",
      static_cast<double>(metrics_reply.body.size()), 1);
  add("loadgen.max_lateness_ms", "ms", lateness_ms, completed);
  add("loadgen.slo_miss_ratio", "ratio",
      due > 0 ? static_cast<double>(slo_misses) / due : 0.0,
      measured_due.size());
  const double untraced_p50 = Quantile(untraced_ms, 0.5);
  add("trace.overhead_ratio", "ratio",
      untraced_p50 > 0 ? Quantile(traced_ms, 0.5) / untraced_p50 : 0.0,
      completed);
  return report;
}

void PrintMetric(const char* kind, const std::string& workload,
                 const Metric& metric) {
  std::printf("%-6s %-9s %-36s %14.6f %-6s n=%zu\n", kind, workload.c_str(),
              metric.name.c_str(), metric.value, metric.unit.c_str(),
              metric.samples);
}

std::string JsonNumber(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int Main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  Options options;
  options.seed = static_cast<std::uint64_t>(flags.Int("seed", 1));
  options.seconds = flags.Double("seconds", options.seconds);
  options.warmup = std::min(options.warmup, 0.25 * options.seconds);
  options.layer_budget = std::min(options.layer_budget, 0.15 * options.seconds);
  options.traced = flags.Int("trace", 0) != 0;
  const std::string cache_dir = flags.Str("cache-dir", "bench_cache");
  options.work_dir = cache_dir + "/run";
  const std::size_t images =
      static_cast<std::size_t>(flags.Int("images", 15000));
  const std::string requested = flags.Str("workload", "all");
  {
    // By default the server built next to this binary: tools/qdcbir_tool
    // of the same build tree.
    std::error_code ec;
    const std::filesystem::path self =
        std::filesystem::read_symlink("/proc/self/exe", ec);
    options.server = flags.Str(
        "server",
        (self.parent_path().parent_path() / "tools" / "qdcbir_tool").string());
  }

  std::vector<Workload> workloads;
  for (const Workload& workload : AllWorkloads()) {
    if (requested == "all" || requested == workload.name) {
      workloads.push_back(workload);
    }
  }
  if (workloads.empty() || options.seconds <= 0.0) {
    std::fprintf(stderr, "usage: bench_serve --workload=explore|replay|wide|"
                         "observed|all [--seed=N] [--seconds=S] "
                         "[--trace=0|1] [--server=PATH] [--cache-dir=DIR] "
                         "[--images=N]\n");
    return 2;
  }
  options.trace_out = options.work_dir + "/trace_" + requested + ".json";
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  // The corpus: the paper's RFS options over a synthetic database, cached
  // so both the server and this process load the same files.
  StatusOr<ImageDatabase> db =
      bench::GetDatabase(images, /*with_channels=*/false, cache_dir);
  if (!db.ok()) {
    std::fprintf(stderr, "corpus: %s\n", db.status().ToString().c_str());
    return 1;
  }
  StatusOr<RfsTree> rfs =
      bench::GetRfs(*db, bench::PaperRfsOptions(), "paper", cache_dir);
  if (!rfs.ok()) {
    std::fprintf(stderr, "rfs: %s\n", rfs.status().ToString().c_str());
    return 1;
  }
  // Sessions rotate over the catalog's evaluation queries. Small smoke
  // corpora lack some sub-concepts; their queries are left out.
  std::vector<QueryGroundTruth> gts;
  for (const QueryConceptSpec& spec : db->catalog().queries()) {
    StatusOr<QueryGroundTruth> gt = BuildGroundTruth(*db, spec);
    if (gt.ok()) gts.push_back(std::move(*gt));
  }
  if (gts.empty()) {
    std::fprintf(stderr, "no evaluation query resolves in this corpus\n");
    return 1;
  }
  // The server loads the files GetDatabase and GetRfs cached.
  Corpus corpus{std::move(*db), std::move(*rfs), std::move(gts),
                cache_dir + "/db_" + std::to_string(images) + "_nc.bin",
                cache_dir + "/rfs_paper_" + std::to_string(images) + ".bin"};
  for (const std::string& path : {corpus.db_path, corpus.rfs_path}) {
    if (!std::filesystem::exists(path)) {
      std::fprintf(stderr, "corpus file %s was not cached\n", path.c_str());
      return 1;
    }
  }

  TraceWriter trace(NowNs());
  std::vector<Report> reports;
  for (const Workload& workload : workloads) {
    reports.push_back(RunWorkload(workload, corpus, options, &trace));
    const Report& report = reports.back();
    for (const Metric& metric : report.e2e) {
      PrintMetric("metric", report.workload, metric);
    }
    for (const Metric& metric : report.layers) {
      PrintMetric("layer", report.workload, metric);
    }
    for (const Metric& metric : report.diag) {
      PrintMetric("diag", report.workload, metric);
    }
    for (const std::string& error : report.errors) {
      std::fprintf(stderr, "[bench_serve] %s: %s\n", report.workload.c_str(),
                   error.c_str());
    }
    std::fflush(stdout);
  }
  if (options.traced) {
    std::string error;
    if (!trace.Write(options.trace_out, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "[bench_serve] trace written to %s\n",
                 options.trace_out.c_str());
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string metrics;
  for (const Report& report : reports) {
    attempted += report.attempted;
    failed += report.failed;
    for (const Metric& metric : options.traced ? report.layers : report.e2e) {
      const std::string name = reports.size() > 1
                                   ? report.workload + "." + metric.name
                                   : metric.name;
      if (!metrics.empty()) metrics += ",";
      metrics += "\"" + name + "\":{\"value\":" + JsonNumber(metric.value) +
                 ",\"unit\":\"" + metric.unit + "\"}";
    }
  }
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
              "\"metrics\":{%s}}\n",
              failed == 0 ? "true" : "false", std::max<std::size_t>(attempted, 1),
              failed, metrics.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench_serve
}  // namespace qdcbir

int main(int argc, char** argv) {
  return qdcbir::bench_serve::Main(argc, argv);
}
