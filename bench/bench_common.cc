#include "bench_common.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "qdcbir/core/thread_pool.h"
#include "qdcbir/dataset/database_io.h"
#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/obs/clock.h"
#include "qdcbir/obs/json.h"
#include "qdcbir/obs/metrics.h"
#include "qdcbir/rfs/rfs_serialization.h"

namespace qdcbir {
namespace bench {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_.emplace_back(arg.substr(2), "1");
    } else {
      values_.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
    }
  }
}

std::string Flags::Str(const std::string& name,
                       const std::string& fallback) const {
  for (const auto& [key, value] : values_) {
    if (key == name) return value;
  }
  return fallback;
}

std::int64_t Flags::Int(const std::string& name, std::int64_t fallback) const {
  const std::string v = Str(name, "");
  if (v.empty()) return fallback;
  return std::strtoll(v.c_str(), nullptr, 10);
}

double Flags::Double(const std::string& name, double fallback) const {
  const std::string v = Str(name, "");
  if (v.empty()) return fallback;
  return std::strtod(v.c_str(), nullptr);
}

std::vector<std::int64_t> Flags::IntList(
    const std::string& name, const std::vector<std::int64_t>& fallback) const {
  const std::string v = Str(name, "");
  if (v.empty()) return fallback;
  std::vector<std::int64_t> values;
  std::size_t start = 0;
  while (start <= v.size()) {
    std::size_t comma = v.find(',', start);
    if (comma == std::string::npos) comma = v.size();
    const std::string token = v.substr(start, comma - start);
    if (!token.empty()) {
      values.push_back(std::strtoll(token.c_str(), nullptr, 10));
    }
    start = comma + 1;
  }
  return values.empty() ? fallback : values;
}

Status AppendBenchJson(const std::string& path,
                       const std::vector<BenchRecord>& records) {
  std::ofstream out(path, std::ios::app);
  if (!out) {
    return Status::Internal("cannot open bench results file: " + path);
  }
  // One registry snapshot per append keeps all records of a sweep
  // invocation comparable (counters are cumulative across the process).
  const std::string obs_snapshot =
      obs::MetricsRegistry::Global().SnapshotJson();
  std::string line;
  for (const BenchRecord& r : records) {
    line.clear();
    obs::JsonWriter w(&line);
    w.BeginObject();
    w.Key("bench").String(r.bench);
    w.Key("config").String(r.config);
    w.Key("threads").Uint(r.threads);
    w.Key("wall_seconds").Double(r.wall_seconds, "%.9g");
    for (const auto& [key, value] : r.metrics) {
      w.Key(key).Double(value, "%.9g");
    }
    w.Key("obs").Raw(obs_snapshot);
    w.EndObject();
    out << line << '\n';
  }
  out.flush();
  if (!out) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

RfsBuildOptions PaperRfsOptions() {
  RfsBuildOptions options;
  options.tree.max_entries = 100;
  options.tree.min_entries = 70;  // split minimum clamps internally
  options.representatives.fraction = 0.05;
  options.representatives.min_per_node = 3;
  return options;
}

ProtocolOptions PaperProtocol(std::uint64_t seed) {
  ProtocolOptions protocol;
  protocol.feedback_rounds = 3;
  protocol.browse_budget = 60;
  protocol.max_picks_per_round = 10;
  protocol.seed = seed;
  return protocol;
}

StatusOr<ImageDatabase> GetDatabase(std::size_t total_images,
                                    bool with_channels,
                                    const std::string& cache_dir) {
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  const std::string path = cache_dir + "/db_" + std::to_string(total_images) +
                           (with_channels ? "_ch" : "_nc") + ".bin";
  if (std::filesystem::exists(path)) {
    // Overlapped chunk load; falls back to re-synthesis below on any typed
    // failure (kCorrupt / kTruncated / kVersionMismatch), so a damaged or
    // legacy cache file can never poison a benchmark run.
    ThreadPool pool;
    SnapshotLoadOptions load_options;
    load_options.pool = &pool;
    StatusOr<ImageDatabase> cached = DatabaseIo::LoadDatabase(path, load_options);
    if (cached.ok() && cached->size() == total_images) return cached;
    if (!cached.ok()) {
      std::fprintf(stderr, "[bench] snapshot cache at %s unusable (%s); "
                   "re-synthesizing\n",
                   path.c_str(), cached.status().ToString().c_str());
    } else {
      std::fprintf(stderr, "[bench] stale cache at %s; rebuilding\n",
                   path.c_str());
    }
  }

  WallTimer timer;
  StatusOr<Catalog> catalog = Catalog::Build();
  if (!catalog.ok()) return catalog.status();
  SynthesizerOptions options;
  options.total_images = total_images;
  options.extract_viewpoint_channels = with_channels;
  std::fprintf(stderr,
               "[bench] synthesizing %zu images (%s viewpoint channels)...\n",
               total_images, with_channels ? "with" : "without");
  StatusOr<ImageDatabase> db =
      DatabaseSynthesizer::Synthesize(*catalog, options);
  if (!db.ok()) return db.status();
  std::fprintf(stderr, "[bench] synthesized in %.1f s\n", timer.Seconds());

  const Status save = DatabaseIo::SaveDatabase(*db, path);
  if (!save.ok()) {
    std::fprintf(stderr, "[bench] warning: could not cache database: %s\n",
                 save.ToString().c_str());
  }
  return db;
}

void BuildScanTables(const ImageDatabase& db) {
  db.feature_blocks();
  for (int c = 1; c < kNumViewpointChannels; ++c) {
    db.channel_blocks(static_cast<ViewpointChannel>(c));
  }
}

StatusOr<RfsTree> GetRfs(const ImageDatabase& db,
                         const RfsBuildOptions& options,
                         const std::string& cache_key,
                         const std::string& cache_dir) {
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  const std::string path = cache_dir + "/rfs_" + cache_key + "_" +
                           std::to_string(db.size()) + ".bin";
  if (std::filesystem::exists(path)) {
    StatusOr<RfsTree> cached = RfsSerializer::LoadFromFile(path);
    if (cached.ok() && cached->num_images() == db.size()) return cached;
  }
  WallTimer timer;
  StatusOr<RfsTree> tree = RfsBuilder::Build(db.features(), options);
  if (!tree.ok()) return tree.status();
  std::fprintf(stderr, "[bench] built RFS (%zu images) in %.1f s\n", db.size(),
               timer.Seconds());
  const Status save = RfsSerializer::SaveToFile(*tree, path);
  if (!save.ok()) {
    std::fprintf(stderr, "[bench] warning: could not cache RFS: %s\n",
                 save.ToString().c_str());
  }
  return tree;
}

void PrintHeader(const std::string& title, const std::string& description) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("================================================================\n\n");
}

bool SessionTally::Count(const Status& status) {
  ++run_;
  if (status.ok()) return true;
  if (failed_++ == 0) first_failure_ = status.ToString();
  return false;
}

void SessionTally::Print(const std::string& row) const {
  std::printf("sessions %s: %zu run, %zu failed", row.c_str(), run_, failed_);
  if (failed_ > 0) std::printf(" (first: %s)", first_failure_.c_str());
  std::printf("\n");
}

double LinearCorrelation(const std::vector<double>& x,
                         const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  const std::size_t n = x.size();
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    syy += y[i] * y[i];
    sxy += x[i] * y[i];
  }
  const double cov = sxy - sx * sy / n;
  const double vx = sxx - sx * sx / n;
  const double vy = syy - sy * sy / n;
  if (vx <= 0.0 || vy <= 0.0) return 0.0;
  return cov / std::sqrt(vx * vy);
}

}  // namespace bench
}  // namespace qdcbir
