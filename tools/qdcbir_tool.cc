// Command-line workbench for the qdcbir library.
//
//   qdcbir_tool synth  --images=15000 --out=db.bin [--channels=1]
//       Synthesize the Corel-like database and save it.
//   qdcbir_tool rfs    --db=db.bin --out=rfs.bin [--max=100 --min=70
//                      --fraction=0.05 --strategy=clustered|tgs|insertion]
//       Build the RFS structure over a saved database.
//   qdcbir_tool info   [--db=db.bin] [--rfs=rfs.bin]
//       Print database / RFS statistics.
//   qdcbir_tool query  --db=db.bin --rfs=rfs.bin --query=bird
//                      [--engine=qd|mv|qpm|mars|qcluster|fagin]
//                      [--k=0] [--seed=1] [--weights=1] [--cache=on|off]
//                      [--ranked-json=results.json]
//       Run one simulated-user retrieval session and print the results.
//       --weights=1 ranks the QD subqueries under deterministic
//       per-dimension weights; --cache=on runs the session through a local
//       result cache (qd and qcluster; rankings are byte-identical either
//       way — docs/caching.md); --ranked-json dumps the ranked ids (and,
//       for QD, per-group distances at full precision) for the CI SIMD
//       parity diff (docs/simd.md).
//   qdcbir_tool render --db=db.bin --id=123 --out=image.ppm
//       Re-render one database image to a PPM file.
//   qdcbir_tool catalog --db=db.bin
//       List the evaluation queries and their ground-truth sub-concepts.
//   qdcbir_tool export-reps --db=db.bin --rfs=rfs.bin --out-dir=reps
//                          [--node=root]
//       Render a node's representative images to PPM files (what the
//       prototype's GUI would show the user).
//   qdcbir_tool snapshot --db=db.bin [--verify=1 --threads=N]
//                        [--flip-bit=OFFSET] [--truncate=BYTES]
//       Inspect a snapshot's chunk table and checksums; --verify=1 fully
//       loads it (non-zero exit on any corruption). The chaos flags damage
//       the file in place so CI can prove corruption cannot pass --verify.
//   qdcbir_tool snapshot inspect --db=db.bin [--rfs=rfs.bin]
//       Chunk table plus the RFS tree-shape digest (height, fanout, leaf
//       occupancy) — the same walk `GET /indexz` serves live. --rfs reads a
//       standalone tree; default recovers the snapshot's embedded one.
//   qdcbir_tool indexz --db=db.bin [--rfs=rfs.bin] [--out=indexz.json]
//                      [--hot=16]
//       Offline /indexz dump: the RFS tree geometry as JSON (access
//       counters all zero — no server ran). --hot sizes the hot-leaf and
//       co-access tables, for symmetry with the live endpoint's ?n=.
//   qdcbir_tool serve  --db=db.bin [--rfs=rfs.bin] [--address=127.0.0.1]
//                      [--port=0] [--port-file=PATH] [--threads=N]
//                      [--max-seconds=0] [--profile-hz=0] [--cache-mb=64]
//                      [--wide-events=PATH]
//       Start the admin/serving HTTP endpoint: /healthz /readyz /statusz
//       /varz /metrics /queryz /tracez /logz /indexz /profilez plus
//       /api/query, /api/feedback, /api/rep, and /api/reload for driving
//       relevance-feedback sessions over the wire. --port=0 binds an
//       ephemeral port (written to --port-file for scripts). --profile-hz
//       arms the always-on background sampling profiler (bare --profile-hz
//       picks the low default rate). --cache-mb sets the result-cache
//       budget (0 disables caching). --wide-events appends one JSON session
//       event per completed session (rotates to PATH.1 past 64 MiB;
//       docs/observability.md). Runs until SIGINT/SIGTERM, or
//       --max-seconds if positive.
//   qdcbir_tool events summarize --in=wide_events.jsonl
//       Aggregate a wide-event file into outcome counts and a latency
//       distribution.
//   qdcbir_tool profile --db=db.bin --rfs=rfs.bin [--seconds=5] [--hz=99]
//                      [--format=collapsed|json] [--out=PATH] [--query=..]
//       Drive simulated relevance-feedback sessions under the sampling
//       profiler and write a span-attributed CPU profile (collapsed stacks
//       by default, ready for flamegraph.pl — see docs/profiling.md).
//
// A numeric flag's value must be one whole number (`--images=3k` is not):
// a malformed one prints an error naming the flag and exits 1. An empty
// value is read as the flag's default.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "qdcbir/qdcbir.h"
#include "qdcbir/obs/build_info.h"
#include "qdcbir/obs/json.h"

namespace qdcbir {
namespace {

/// `--name=value` flag lookup.
std::string Flag(int argc, char** argv, const std::string& name,
                 const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

/// A numeric flag whose value is not one whole number; `Run` reports it
/// and exits 1.
class BadFlag : public std::runtime_error {
 public:
  BadFlag(const std::string& name, const std::string& value, const char* want)
      : std::runtime_error("--" + name + "=" + value + " is not " + want) {}
};

/// True when `end` closed a parse of all of `v` that started on no blank
/// and set no range error.
bool ParsedWhole(const std::string& v, const char* end) {
  return !std::isspace(static_cast<unsigned char>(v.front())) &&
         end == v.c_str() + v.size() && errno != ERANGE;
}

std::int64_t IntFlag(int argc, char** argv, const std::string& name,
                     std::int64_t fallback) {
  const std::string v = Flag(argc, argv, name, "");
  if (v.empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(v.c_str(), &end, 10);
  if (!ParsedWhole(v, end)) throw BadFlag(name, v, "an integer");
  return value;
}

double DoubleFlag(int argc, char** argv, const std::string& name,
                  double fallback) {
  const std::string v = Flag(argc, argv, name, "");
  if (v.empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(v.c_str(), &end);
  if (!ParsedWhole(v, end) || !std::isfinite(value)) {
    throw BadFlag(name, v, "a finite number");
  }
  return value;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdSynth(int argc, char** argv) {
  const std::size_t images =
      static_cast<std::size_t>(IntFlag(argc, argv, "images", 15000));
  const std::string out = Flag(argc, argv, "out", "db.bin");

  StatusOr<Catalog> catalog = Catalog::Build();
  if (!catalog.ok()) return Fail(catalog.status());
  SynthesizerOptions options;
  options.total_images = images;
  options.extract_viewpoint_channels = IntFlag(argc, argv, "channels", 1) != 0;
  options.seed = static_cast<std::uint64_t>(IntFlag(argc, argv, "seed", 7));
  std::printf("synthesizing %zu images...\n", images);
  WallTimer timer;
  StatusOr<ImageDatabase> db =
      DatabaseSynthesizer::Synthesize(*catalog, options);
  if (!db.ok()) return Fail(db.status());
  std::printf("done in %.1f s\n", timer.Seconds());
  const Status save = DatabaseIo::SaveDatabase(*db, out);
  if (!save.ok()) return Fail(save);
  std::printf("saved %zu images to %s\n", db->size(), out.c_str());
  return 0;
}

int CmdRfs(int argc, char** argv) {
  const std::string db_path = Flag(argc, argv, "db", "db.bin");
  const std::string out = Flag(argc, argv, "out", "rfs.bin");
  StatusOr<ImageDatabase> db = DatabaseIo::LoadDatabase(db_path);
  if (!db.ok()) return Fail(db.status());

  RfsBuildOptions options;
  options.tree.max_entries =
      static_cast<std::size_t>(IntFlag(argc, argv, "max", 100));
  options.tree.min_entries =
      static_cast<std::size_t>(IntFlag(argc, argv, "min", 70));
  options.representatives.fraction =
      DoubleFlag(argc, argv, "fraction", 0.05);
  const std::string strategy = Flag(argc, argv, "strategy", "clustered");
  if (strategy == "tgs") {
    options.strategy = RfsBuildStrategy::kTgsBulkLoad;
  } else if (strategy == "insertion") {
    options.strategy = RfsBuildStrategy::kInsertion;
  } else if (strategy != "clustered") {
    std::fprintf(stderr, "unknown --strategy=%s\n", strategy.c_str());
    return 1;
  }

  WallTimer timer;
  StatusOr<RfsTree> rfs = RfsBuilder::Build(db->feature_store(), options);
  if (!rfs.ok()) return Fail(rfs.status());
  std::printf("built RFS in %.1f s\n", timer.Seconds());
  const Status save = RfsSerializer::SaveToFile(*rfs, out);
  if (!save.ok()) return Fail(save);
  const RfsTree::Stats stats = rfs->ComputeStats();
  std::printf("saved to %s: height %d, %zu nodes, %zu representatives "
              "(%.1f%%)\n",
              out.c_str(), stats.height, stats.node_count,
              stats.leaf_representatives,
              100.0 * stats.representative_fraction);
  return 0;
}

int CmdInfo(int argc, char** argv) {
  const std::string db_path = Flag(argc, argv, "db", "");
  const std::string rfs_path = Flag(argc, argv, "rfs", "");
  if (!db_path.empty()) {
    StatusOr<ImageDatabase> db = DatabaseIo::LoadDatabase(db_path);
    if (!db.ok()) return Fail(db.status());
    std::printf(
        "database %s:\n  %zu images (%dx%d), %zu-D features, channels: %s\n"
        "  %zu categories, %zu sub-concepts, %zu evaluation queries\n",
        db_path.c_str(), db->size(), db->image_width(), db->image_height(),
        db->feature_dim(), db->has_channel_features() ? "yes" : "no",
        db->catalog().categories().size(), db->catalog().subconcepts().size(),
        db->catalog().queries().size());
  }
  if (!rfs_path.empty()) {
    StatusOr<RfsTree> rfs = RfsSerializer::LoadFromFile(rfs_path);
    if (!rfs.ok()) return Fail(rfs.status());
    const RfsTree::Stats stats = rfs->ComputeStats();
    const Status invariants = rfs->CheckInvariants();
    std::printf(
        "rfs %s:\n  %zu images, height %d, %zu nodes (%zu leaves)\n"
        "  %zu representatives (%.1f%%), invariants: %s\n",
        rfs_path.c_str(), stats.total_images, stats.height, stats.node_count,
        stats.leaf_count, stats.leaf_representatives,
        100.0 * stats.representative_fraction,
        invariants.ok() ? "OK" : invariants.ToString().c_str());
  }
  if (db_path.empty() && rfs_path.empty()) {
    std::fprintf(stderr, "info: pass --db=... and/or --rfs=...\n");
    return 1;
  }
  return 0;
}

int CmdQuery(int argc, char** argv) {
  const std::string db_path = Flag(argc, argv, "db", "db.bin");
  const std::string rfs_path = Flag(argc, argv, "rfs", "rfs.bin");
  const std::string query = Flag(argc, argv, "query", "bird");
  const std::string engine_name = Flag(argc, argv, "engine", "qd");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(IntFlag(argc, argv, "seed", 1));

  StatusOr<ImageDatabase> db = DatabaseIo::LoadDatabase(db_path);
  if (!db.ok()) return Fail(db.status());
  StatusOr<QueryConceptSpec> spec = db->catalog().FindQuery(query);
  if (!spec.ok()) {
    std::fprintf(stderr, "unknown query '%s'; available:", query.c_str());
    for (const QueryConceptSpec& q : db->catalog().queries()) {
      std::fprintf(stderr, " %s", q.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 1;
  }
  StatusOr<QueryGroundTruth> gt = BuildGroundTruth(*db, *spec);
  if (!gt.ok()) return Fail(gt.status());

  ProtocolOptions protocol;
  protocol.seed = seed;
  protocol.retrieval_size =
      static_cast<std::size_t>(IntFlag(argc, argv, "k", 0));

  // Per-run result cache (off by default): a single session only re-hits
  // entries across its own repeated subqueries, but the flag's real job is
  // the CI parity matrix — cache on/off must produce byte-identical
  // --ranked-json output.
  std::unique_ptr<cache::CacheManager> run_cache;
  if (Flag(argc, argv, "cache", "off") == "on") {
    cache::CacheManager::Options cache_options;
    cache_options.budget_bytes = 64ull << 20;
    run_cache = std::make_unique<cache::CacheManager>(cache_options);
  }

  StatusOr<RunOutcome> outcome = Status::Internal("unset");
  if (engine_name == "qd") {
    StatusOr<RfsTree> rfs =
        RfsSerializer::LoadForSnapshot(db_path, rfs_path, db->feature_store());
    if (!rfs.ok()) return Fail(rfs.status());
    QdOptions qd_options;
    qd_options.cache = run_cache.get();
    if (IntFlag(argc, argv, "weights", 0) != 0) {
      // Deterministic non-uniform weights (CI parity runs): exercises the
      // weighted localized scans without a user-supplied weight file.
      qd_options.feature_weights.resize(rfs->feature_dim());
      for (std::size_t d = 0; d < rfs->feature_dim(); ++d) {
        qd_options.feature_weights[d] =
            0.5 + 0.25 * static_cast<double>(d % 7);
      }
    }
    outcome = SessionRunner::RunQd(*rfs, *gt, qd_options, protocol);
  } else {
    std::unique_ptr<FeedbackEngine> engine;
    if (engine_name == "mv") engine = std::make_unique<MvEngine>(&*db);
    if (engine_name == "qpm") engine = std::make_unique<QpmEngine>(&*db);
    if (engine_name == "mars") engine = std::make_unique<MarsEngine>(&*db);
    if (engine_name == "qcluster") {
      QclusterOptions qcluster_options;
      qcluster_options.cache = run_cache.get();
      engine = std::make_unique<QclusterEngine>(&*db, qcluster_options);
    }
    if (engine_name == "fagin") engine = std::make_unique<FaginEngine>(&*db);
    if (engine == nullptr) {
      std::fprintf(stderr,
                   "unknown --engine=%s (qd|mv|qpm|mars|qcluster|fagin)\n",
                   engine_name.c_str());
      return 1;
    }
    outcome = SessionRunner::RunEngine(*engine, *gt, protocol);
  }
  if (!outcome.ok()) return Fail(outcome.status());

  std::printf("%s on \"%s\" (%zu relevant): precision %.2f, recall %.2f, "
              "GTIR %.2f, %.1f ms engine time\n",
              engine_name.c_str(), query.c_str(), gt->size(),
              outcome->final_precision, outcome->final_recall,
              outcome->final_gtir, outcome->total_seconds * 1e3);
  std::printf("top results:\n");
  const std::size_t show = std::min<std::size_t>(20, outcome->final_results.size());
  for (std::size_t i = 0; i < show; ++i) {
    const ImageId id = outcome->final_results[i];
    std::printf("  #%2zu %-40s %s\n", i + 1, db->LabelOf(id).c_str(),
                gt->IsRelevant(id) ? "[relevant]" : "");
  }

  // Machine-readable ranked results, used by the CI SIMD parity step: two
  // runs differing only in QDCBIR_SIMD must produce byte-identical files,
  // so nothing environment-dependent (SIMD level, timings) is included.
  const std::string ranked_json = Flag(argc, argv, "ranked-json", "");
  if (!ranked_json.empty()) {
    std::ofstream out(ranked_json);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", ranked_json.c_str());
      return 1;
    }
    std::string doc;
    obs::JsonWriter w(&doc);
    w.BeginObject();
    w.Key("engine").String(engine_name);
    w.Key("query").String(query);
    w.Key("seed").Uint(seed);
    w.Key("results").BeginArray();
    for (const ImageId id : outcome->final_results) w.Uint(id);
    w.EndArray();
    if (!outcome->qd_result.groups.empty()) {
      w.Key("groups").BeginArray();
      for (const ResultGroup& g : outcome->qd_result.groups) {
        w.BeginArray();
        for (const KnnMatch& match : g.images) {
          w.BeginArray();
          w.Uint(match.id);
          w.Double(match.distance_squared, "%.17g");
          w.EndArray();
        }
        w.EndArray();
      }
      w.EndArray();
    }
    w.EndObject();
    out << doc << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "write failed: %s\n", ranked_json.c_str());
      return 1;
    }
    std::printf("ranked results written to %s\n", ranked_json.c_str());
  }
  return 0;
}

int CmdRender(int argc, char** argv) {
  const std::string db_path = Flag(argc, argv, "db", "db.bin");
  const std::string out = Flag(argc, argv, "out", "image.ppm");
  const std::int64_t id = IntFlag(argc, argv, "id", 0);
  StatusOr<ImageDatabase> db = DatabaseIo::LoadDatabase(db_path);
  if (!db.ok()) return Fail(db.status());
  if (id < 0 || static_cast<std::size_t>(id) >= db->size()) {
    std::fprintf(stderr, "--id out of range (database has %zu images)\n",
                 db->size());
    return 1;
  }
  const Status save =
      WritePpm(db->Render(static_cast<ImageId>(id)), out);
  if (!save.ok()) return Fail(save);
  std::printf("rendered image %lld (%s) to %s\n",
              static_cast<long long>(id),
              db->LabelOf(static_cast<ImageId>(id)).c_str(), out.c_str());
  return 0;
}

int CmdCatalog(int argc, char** argv) {
  const std::string db_path = Flag(argc, argv, "db", "db.bin");
  StatusOr<ImageDatabase> db = DatabaseIo::LoadDatabase(db_path);
  if (!db.ok()) return Fail(db.status());
  std::printf("evaluation queries:\n");
  for (const QueryConceptSpec& q : db->catalog().queries()) {
    StatusOr<QueryGroundTruth> gt = BuildGroundTruth(*db, q);
    std::printf("  %-18s %zu sub-concepts, %zu relevant images:",
                q.name.c_str(), q.subconcepts.size(),
                gt.ok() ? gt->size() : 0);
    for (const QuerySubConcept& qs : q.subconcepts) {
      std::printf(" %s", qs.name.c_str());
    }
    std::printf("\n");
  }
  std::printf("\n%zu categories, %zu sub-concepts in total\n",
              db->catalog().categories().size(),
              db->catalog().subconcepts().size());
  return 0;
}

int CmdExportReps(int argc, char** argv) {
  const std::string db_path = Flag(argc, argv, "db", "db.bin");
  const std::string rfs_path = Flag(argc, argv, "rfs", "rfs.bin");
  const std::string out_dir = Flag(argc, argv, "out-dir", "reps");
  const std::string node_flag = Flag(argc, argv, "node", "root");

  StatusOr<ImageDatabase> db = DatabaseIo::LoadDatabase(db_path);
  if (!db.ok()) return Fail(db.status());
  StatusOr<RfsTree> rfs =
      RfsSerializer::LoadForSnapshot(db_path, rfs_path, db->feature_store());
  if (!rfs.ok()) return Fail(rfs.status());

  const NodeId node = node_flag == "root"
                          ? rfs->root()
                          : static_cast<NodeId>(std::atoll(node_flag.c_str()));
  if (!rfs->has_info(node)) {
    std::fprintf(stderr, "no such node %s\n", node_flag.c_str());
    return 1;
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const RfsTree::NodeInfo& info = rfs->info(node);
  for (std::size_t i = 0; i < info.representatives.size(); ++i) {
    const ImageId id = info.representatives[i];
    if (id >= db->size()) continue;
    const std::string path = out_dir + "/node" + std::to_string(node) +
                             "_rep" + std::to_string(i) + "_" +
                             std::to_string(id) + ".ppm";
    const Status save = WritePpm(db->Render(id), path);
    if (!save.ok()) return Fail(save);
  }
  std::printf("wrote %zu representative images of node %u (level %d, "
              "subtree %zu images) to %s/\n",
              info.representatives.size(), node, info.level,
              info.subtree_size, out_dir.c_str());
  return 0;
}

/// Loads the RFS tree (standalone `rfs_path`, or the snapshot's embedded
/// chunk when empty) and prints the tree-shape digest shared with /indexz.
int PrintTreeShape(const std::string& db_path, const std::string& rfs_path) {
  StatusOr<RfsTree> rfs =
      RfsSerializer::LoadForSnapshot(db_path, rfs_path, nullptr);
  if (!rfs.ok()) return Fail(rfs.status());
  std::printf("%s", RenderIndexTreeText(SummarizeIndexTree(*rfs)).c_str());
  return 0;
}

int CmdSnapshot(int argc, char** argv) {
  const bool inspect = argc > 2 && std::strcmp(argv[2], "inspect") == 0;
  const std::string db_path = Flag(argc, argv, "db", "db.bin");
  const std::int64_t flip = IntFlag(argc, argv, "flip-bit", -1);
  const std::int64_t truncate = IntFlag(argc, argv, "truncate", -1);
  const bool verify = Flag(argc, argv, "verify", "0") != "0";

  // Chaos helpers first: corrupt the file in place, then (optionally)
  // verify — CI uses this to prove a damaged snapshot cannot pass.
  if (flip >= 0 || truncate >= 0) {
    std::fstream f(db_path,
                   std::ios::binary | std::ios::in | std::ios::out);
    if (!f) {
      std::fprintf(stderr, "cannot open %s for corruption\n", db_path.c_str());
      return 1;
    }
    if (flip >= 0) {
      f.seekg(flip);
      char byte = 0;
      if (!f.get(byte)) {
        std::fprintf(stderr, "--flip-bit=%lld past end of file\n",
                     static_cast<long long>(flip));
        return 1;
      }
      byte = static_cast<char>(static_cast<unsigned char>(byte) ^ 0x01);
      f.seekp(flip);
      f.put(byte);
      std::printf("flipped bit 0 of byte %lld in %s\n",
                  static_cast<long long>(flip), db_path.c_str());
    }
    f.close();
    if (truncate >= 0) {
      std::error_code ec;
      std::filesystem::resize_file(db_path,
                                   static_cast<std::uintmax_t>(truncate), ec);
      if (ec) {
        std::fprintf(stderr, "truncate failed: %s\n", ec.message().c_str());
        return 1;
      }
      std::printf("truncated %s to %lld bytes\n", db_path.c_str(),
                  static_cast<long long>(truncate));
    }
    // Deliberate damage is the whole point here — only fall through when
    // the caller also asked to verify the (now damaged) snapshot.
    if (!verify) return 0;
  }

  if (verify) {
    const std::size_t threads =
        static_cast<std::size_t>(IntFlag(argc, argv, "threads", 0));
    ThreadPool pool(threads);
    SnapshotLoadOptions options;
    options.pool = &pool;
    WallTimer timer;
    StatusOr<ImageDatabase> db = DatabaseIo::LoadDatabase(db_path, options);
    if (!db.ok()) return Fail(db.status());
    std::printf("verify OK: %zu images, every chunk checksum valid "
                "(%.2f s, %zu threads)\n",
                db->size(), timer.Seconds(), pool.size());
    return 0;
  }

  StatusOr<SnapshotInfo> info = DatabaseIo::InspectSnapshot(db_path);
  if (!info.ok()) return Fail(info.status());
  std::printf("snapshot %s: format v%d, %llu bytes, %zu chunks\n",
              db_path.c_str(), info->version,
              static_cast<unsigned long long>(info->file_size),
              info->chunks.size());
  std::printf("  %-6s %12s %12s %10s  %s\n", "chunk", "offset", "length",
              "crc32c", "ok");
  bool all_ok = true;
  for (const SnapshotChunkInfo& chunk : info->chunks) {
    std::printf("  %-6s %12llu %12llu   %08x  %s\n", chunk.id.c_str(),
                static_cast<unsigned long long>(chunk.offset),
                static_cast<unsigned long long>(chunk.length), chunk.crc32c,
                chunk.crc_ok ? "yes" : "NO");
    all_ok = all_ok && chunk.crc_ok;
  }
  if (!all_ok) {
    std::fprintf(stderr, "snapshot has corrupt chunks\n");
    return 1;
  }
  if (inspect) return PrintTreeShape(db_path, Flag(argc, argv, "rfs", ""));
  return 0;
}

int CmdIndexz(int argc, char** argv) {
  const std::string db_path = Flag(argc, argv, "db", "db.bin");
  const std::string rfs_path = Flag(argc, argv, "rfs", "");
  const std::string out_path = Flag(argc, argv, "out", "");
  const std::size_t hot_n =
      static_cast<std::size_t>(IntFlag(argc, argv, "hot", 16));

  StatusOr<RfsTree> rfs =
      RfsSerializer::LoadForSnapshot(db_path, rfs_path, nullptr);
  if (!rfs.ok()) return Fail(rfs.status());

  const IndexTreeSummary summary = SummarizeIndexTree(*rfs);
  // Offline dump: default join → the document keeps its live shape but
  // reports zero access everywhere (no server ran).
  const std::string json =
      RenderIndexzJson(summary, IndexAccessJoin{}, hot_n) + "\n";
  if (out_path.empty()) {
    std::fwrite(json.data(), 1, json.size(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    out << json;
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote indexz document to %s\n", out_path.c_str());
  }
  std::fprintf(stderr, "%s",
               RenderIndexTreeText(summary).c_str());
  return 0;
}

int CmdProfile(int argc, char** argv) {
  const std::string db_path = Flag(argc, argv, "db", "db.bin");
  const std::string rfs_path = Flag(argc, argv, "rfs", "rfs.bin");
  const double seconds = DoubleFlag(argc, argv, "seconds", 5.0);
  const int hz = static_cast<int>(IntFlag(argc, argv, "hz", 99));
  const std::string format = Flag(argc, argv, "format", "collapsed");
  const std::string out_path = Flag(argc, argv, "out", "");
  const std::string only_query = Flag(argc, argv, "query", "");
  if (format != "collapsed" && format != "json") {
    std::fprintf(stderr, "--format must be collapsed or json\n");
    return 1;
  }

  StatusOr<ImageDatabase> db = DatabaseIo::LoadDatabase(db_path);
  if (!db.ok()) return Fail(db.status());
  StatusOr<RfsTree> rfs =
      RfsSerializer::LoadForSnapshot(db_path, rfs_path, db->feature_store());
  if (!rfs.ok()) return Fail(rfs.status());

  // The workload: full simulated RF sessions cycling through the catalog's
  // evaluation queries, so the profile covers the real engine phases
  // (qd.start, qd.feedback, qd.finalize and everything under them).
  std::vector<QueryGroundTruth> gts;
  for (const QueryConceptSpec& spec : db->catalog().queries()) {
    if (!only_query.empty() && spec.name != only_query) continue;
    StatusOr<QueryGroundTruth> gt = BuildGroundTruth(*db, spec);
    if (gt.ok()) gts.push_back(std::move(*gt));
  }
  if (gts.empty()) {
    std::fprintf(stderr, "no ground-truth queries to drive (bad --query?)\n");
    return 1;
  }

  obs::Profiler::RegisterCurrentThread();
  obs::ProfilerOptions profiler_options;
  profiler_options.hz = hz;
  std::string error;
  if (!obs::Profiler::Global().Start(profiler_options, &error)) {
    std::fprintf(stderr, "profiler unavailable: %s\n", error.c_str());
    return 1;
  }
  const std::uint64_t cursor = obs::Profiler::Global().SampleCursor();

  WallTimer timer;
  std::size_t sessions = 0;
  std::size_t attempts = 0;
  std::size_t skipped = 0;
  std::uint64_t seed = 1;
  while (timer.Seconds() < seconds) {
    ProtocolOptions protocol;
    protocol.seed = seed++;
    QdOptions qd_options;
    const StatusOr<RunOutcome> outcome =
        SessionRunner::RunQd(*rfs, gts[attempts % gts.size()], qd_options,
                             protocol);
    ++attempts;
    if (!outcome.ok()) {
      // Some catalog queries yield no relevant picks on small corpora
      // (FailedPrecondition); skip those rather than abort the profile —
      // unless no query at all can drive a session.
      ++skipped;
      if (sessions == 0 && skipped >= gts.size()) {
        obs::Profiler::Global().Stop();
        return Fail(outcome.status());
      }
      continue;
    }
    ++sessions;
  }

  const std::vector<obs::ProfileSample> samples =
      obs::Profiler::Global().CollectSince(cursor);
  const std::uint64_t dropped = obs::Profiler::Global().dropped();
  obs::Profiler::Global().Stop();

  const std::string rendered =
      format == "json"
          ? obs::Profiler::RenderJson(samples, hz, timer.Seconds(), dropped)
          : obs::Profiler::RenderCollapsed(samples);
  if (out_path.empty()) {
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    out << rendered;
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
  }
  std::uint64_t weighted = 0;
  for (const obs::ProfileSample& sample : samples) weighted += sample.weight;
  std::fprintf(stderr,
               "profiled %zu sessions (%zu skipped) in %.1f s at %d Hz:"
               " %llu samples (%llu dropped)%s%s\n",
               sessions, skipped, timer.Seconds(), hz,
               static_cast<unsigned long long>(weighted),
               static_cast<unsigned long long>(dropped),
               out_path.empty() ? "" : " -> ", out_path.c_str());
  return 0;
}

/// `events summarize --in=wide_events.jsonl`: aggregate a wide-event file
/// (one JSON session event per line; see docs/observability.md) into a
/// human-readable digest — outcome counts and latency distribution.
/// Unparseable lines are counted and skipped, so a file caught mid-rotation
/// still summarizes.
int CmdEvents(int argc, char** argv) {
  const std::string sub = argc > 2 ? argv[2] : "";
  const std::string in_path = Flag(argc, argv, "in", "wide_events.jsonl");
  if (sub != "summarize") {
    std::fprintf(stderr,
                 "usage: qdcbir_tool events summarize --in=<events.jsonl>\n");
    return 1;
  }
  std::ifstream in(in_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", in_path.c_str());
    return 1;
  }

  std::size_t events = 0;
  std::size_t malformed = 0;
  std::map<std::string, std::size_t> outcomes;
  std::vector<double> latency_ms;
  std::uint64_t rounds_sum = 0;
  std::uint64_t picks_sum = 0;

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    StatusOr<serve::JsonValue> parsed = serve::ParseJson(line);
    if (!parsed.ok() || !parsed->is_object()) {
      ++malformed;
      continue;
    }
    ++events;
    const serve::JsonValue& event = *parsed;
    if (const serve::JsonValue* outcome = event.Find("outcome")) {
      ++outcomes[outcome->string];
    }
    if (const serve::JsonValue* total_ns = event.Find("total_ns")) {
      if (total_ns->is_number()) latency_ms.push_back(total_ns->number / 1e6);
    }
    rounds_sum += event.U64Field("rounds", 0);
    picks_sum += event.U64Field("picks", 0);
  }

  std::printf("%s: %zu events (%zu malformed lines skipped)\n",
              in_path.c_str(), events, malformed);
  if (events == 0) return malformed == 0 ? 0 : 1;
  for (const auto& [name, count] : outcomes) {
    std::printf("  outcome %-10s %zu\n", name.c_str(), count);
  }
  if (!latency_ms.empty()) {
    std::sort(latency_ms.begin(), latency_ms.end());
    double sum = 0.0;
    for (const double v : latency_ms) sum += v;
    const auto quantile = [&](double p) {
      const std::size_t index = static_cast<std::size_t>(
          p * static_cast<double>(latency_ms.size() - 1));
      return latency_ms[index];
    };
    std::printf(
        "  latency_ms mean %.2f  p50 %.2f  p95 %.2f  max %.2f\n",
        sum / static_cast<double>(latency_ms.size()), quantile(0.5),
        quantile(0.95), latency_ms.back());
  }
  std::printf("  rounds/session %.2f  picks/session %.2f\n",
              static_cast<double>(rounds_sum) / static_cast<double>(events),
              static_cast<double>(picks_sum) / static_cast<double>(events));
  return 0;
}

volatile std::sig_atomic_t g_serve_stop = 0;

void HandleStopSignal(int) { g_serve_stop = 1; }

int CmdServe(int argc, char** argv) {
  serve::ServeOptions options;
  options.db_path = Flag(argc, argv, "db", "db.bin");
  options.rfs_path = Flag(argc, argv, "rfs", "");
  options.address = Flag(argc, argv, "address", "127.0.0.1");
  options.port = static_cast<int>(IntFlag(argc, argv, "port", 0));
  options.display_size =
      static_cast<std::size_t>(IntFlag(argc, argv, "display", 21));
  options.default_k = static_cast<std::size_t>(IntFlag(argc, argv, "k", 50));
  options.trace_sample_every = static_cast<std::size_t>(
      IntFlag(argc, argv, "trace-sample-every",
              static_cast<std::int64_t>(options.trace_sample_every)));
  options.slow_trace_ms =
      DoubleFlag(argc, argv, "slow-trace-ms", options.slow_trace_ms);
  options.profile_hz = static_cast<int>(IntFlag(argc, argv, "profile-hz", 0));
  options.cache_mb = static_cast<std::size_t>(
      IntFlag(argc, argv, "cache-mb",
              static_cast<std::int64_t>(options.cache_mb)));
  options.wide_events_path = Flag(argc, argv, "wide-events", "");
  for (int i = 2; i < argc; ++i) {
    // Bare --profile-hz (no value) means "on at the low background rate".
    if (std::strcmp(argv[i], "--profile-hz") == 0) {
      options.profile_hz = obs::Profiler::kBackgroundHz;
    }
  }
  const std::string port_file = Flag(argc, argv, "port-file", "");
  const std::int64_t max_seconds = IntFlag(argc, argv, "max-seconds", 0);

  ThreadPool pool(static_cast<std::size_t>(IntFlag(argc, argv, "threads", 0)));
  options.pool = &pool;

  serve::ServeApp app(options);
  std::string error;
  if (!app.Start(&error)) {
    std::fprintf(stderr, "cannot start server: %s\n", error.c_str());
    return 1;
  }
  std::printf("listening on %s:%d (db %s%s%s)\n", options.address.c_str(),
              app.port(), options.db_path.c_str(),
              options.rfs_path.empty() ? ", embedded rfs" : ", rfs ",
              options.rfs_path.c_str());
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << app.port() << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", port_file.c_str());
      return 1;
    }
  }

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  WallTimer uptime;
  while (g_serve_stop == 0 &&
         app.readiness() != serve::Readiness::kFailed &&
         (max_seconds <= 0 || uptime.Seconds() < max_seconds)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (app.readiness() == serve::Readiness::kFailed) {
    std::fprintf(stderr, "load failed: %s\n", app.load_error().c_str());
    app.Stop();
    return 1;
  }
  std::printf("shutting down\n");
  app.Stop();
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: qdcbir_tool "
               "<synth|rfs|info|query|render|catalog|export-reps|snapshot"
               "|indexz|serve|profile|events> [--flags]\n"
               "snapshot flags: --db=<path> [--verify=1] [--threads=N]\n"
               "                [--flip-bit=OFFSET] [--truncate=BYTES]  "
               "(chaos helpers: corrupt in place)\n"
               "                qdcbir_tool snapshot inspect adds the RFS "
               "tree-shape digest ([--rfs=<path>])\n"
               "indexz flags:   --db=<path> [--rfs=<path>] "
               "[--out=<json>] [--hot=16]  (offline /indexz dump)\n"
               "serve flags:    --db=<path> [--rfs=<path>] [--port=0]\n"
               "                [--port-file=<path>] [--max-seconds=0]\n"
               "                [--trace-sample-every=8] "
               "[--slow-trace-ms=250] [--profile-hz=0]\n"
               "                [--wide-events=<jsonl>]\n"
               "events:         qdcbir_tool events summarize "
               "--in=<events.jsonl>\n"
               "profile flags:  --db=<path> --rfs=<path> [--seconds=5] "
               "[--hz=99]\n"
               "                [--format=collapsed|json] [--out=<path>] "
               "[--query=<name>]\n"
               "run with a command and no flags to see its defaults\n"
               "qdcbir_tool --version prints build info as JSON\n"
               "global flags: --metrics-json=<path>  dump the metrics "
               "registry snapshot after the command\n"
               "              --queryz-json=<path>   dump the /queryz "
               "session audit ring after the command\n");
  return 1;
}

int Dispatch(int argc, char** argv, const std::string& command) {
  if (command == "synth") return CmdSynth(argc, argv);
  if (command == "rfs") return CmdRfs(argc, argv);
  if (command == "info") return CmdInfo(argc, argv);
  if (command == "query") return CmdQuery(argc, argv);
  if (command == "render") return CmdRender(argc, argv);
  if (command == "catalog") return CmdCatalog(argc, argv);
  if (command == "export-reps") return CmdExportReps(argc, argv);
  if (command == "snapshot") return CmdSnapshot(argc, argv);
  if (command == "indexz") return CmdIndexz(argc, argv);
  if (command == "serve") return CmdServe(argc, argv);
  if (command == "profile") return CmdProfile(argc, argv);
  if (command == "events") return CmdEvents(argc, argv);
  return Usage();
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "--version" || command == "version") {
    std::printf("%s\n", obs::BuildInfoJson().c_str());
    return 0;
  }
  const std::string metrics_json = Flag(argc, argv, "metrics-json", "");
  const std::string queryz_json = Flag(argc, argv, "queryz-json", "");

  int code = 1;
  try {
    code = Dispatch(argc, argv, command);
  } catch (const BadFlag& bad) {
    std::fprintf(stderr, "error: %s\n", bad.what());
    return 1;
  }

  if (!metrics_json.empty()) {
    std::ofstream out(metrics_json);
    out << obs::MetricsRegistry::Global().SnapshotJson() << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   metrics_json.c_str());
      return 1;
    }
  }
  if (!queryz_json.empty()) {
    std::ofstream out(queryz_json);
    out << obs::QueryLog::Global().RenderJson() << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write session audit to %s\n",
                   queryz_json.c_str());
      return 1;
    }
  }
  return code;
}

}  // namespace
}  // namespace qdcbir

int main(int argc, char** argv) { return qdcbir::Run(argc, argv); }
