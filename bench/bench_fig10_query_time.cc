// Reproduces Figure 10 of the paper: overall query processing time versus
// database size, using randomly generated simulated queries (the paper runs
// 100 queries of 2 feedback rounds plus the final localized k-NN round).
//
// The paper's claim is *shape*: overall QD query time grows linearly with
// the database size and stays small in absolute terms because feedback
// rounds never touch the whole database. A traditional global-kNN pipeline
// (MV) is timed alongside for reference.
//
// A thread-count sweep re-times the QD pipeline at the largest database
// size with pools of 1/2/4/8 lanes (override with --threads=...), so the
// speedup of the parallel localized-subquery stage is visible next to the
// paper's scaling claim.
//
// Flags: --max_images=15000 --steps=5 --queries=100 --cache=bench_cache
//        --threads=1,2,4,8 --json=BENCH_fig10_query_time.json

#include <cstdio>
#include <fstream>
#include <iostream>

#include "bench_common.h"
#include "qdcbir/core/rng.h"
#include "qdcbir/core/stats.h"
#include "qdcbir/core/thread_pool.h"
#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/eval/table_printer.h"
#include "qdcbir/obs/clock.h"
#include "qdcbir/query/mv_engine.h"
#include "qdcbir/query/qd_engine.h"

namespace qdcbir {
namespace bench {
namespace {

struct TimingSample {
  double total_seconds = 0.0;
  double iteration_seconds = 0.0;  ///< mean per feedback round
};

/// One simulated QD query: 2 feedback rounds of random representative picks
/// plus the final localized k-NN (the paper's Figure 10/11 protocol).
TimingSample RunRandomQdQuery(const RfsTree& rfs, std::uint64_t seed,
                              std::size_t k, ThreadPool* pool = nullptr) {
  QdOptions options;
  options.seed = seed;
  options.pool = pool;
  QdSession session(&rfs, options);
  Rng rng(seed ^ 0xabcdef);

  TimingSample sample;
  WallTimer total;
  auto display = session.Start();
  constexpr int kRounds = 2;
  double iteration_total = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    // The simulated user marks up to 3 random displayed representatives.
    std::vector<ImageId> flat;
    for (const DisplayGroup& g : display) {
      flat.insert(flat.end(), g.images.begin(), g.images.end());
    }
    std::vector<ImageId> picks;
    for (const std::size_t i :
         rng.SampleWithoutReplacement(flat.size(), 3)) {
      picks.push_back(flat[i]);
    }
    WallTimer iteration;
    auto next = session.Feedback(picks);
    iteration_total += iteration.Seconds();
    if (!next.ok()) break;
    display = std::move(next).value();
  }
  auto result = session.Finalize(k);
  (void)result;
  sample.total_seconds = total.Seconds();
  sample.iteration_seconds = iteration_total / kRounds;
  return sample;
}

/// One simulated MV query: 2 feedback rounds of random picks (each costing
/// one global k-NN per viewpoint channel) plus the final retrieval.
TimingSample RunRandomMvQuery(const ImageDatabase& db, std::uint64_t seed,
                              std::size_t k) {
  MvOptions options;
  options.seed = seed;
  MvEngine engine(&db, options);
  Rng rng(seed ^ 0x123456);

  TimingSample sample;
  WallTimer total;
  engine.Start();
  constexpr int kRounds = 2;
  double iteration_total = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<ImageId> picks;
    for (int i = 0; i < 3; ++i) {
      picks.push_back(static_cast<ImageId>(rng.UniformInt(db.size())));
    }
    WallTimer iteration;
    auto next = engine.Feedback(picks);
    iteration_total += iteration.Seconds();
    if (!next.ok()) break;
  }
  auto result = engine.Finalize(k);
  (void)result;
  sample.total_seconds = total.Seconds();
  sample.iteration_seconds = iteration_total / kRounds;
  return sample;
}

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t max_images =
      static_cast<std::size_t>(flags.Int("max_images", 15000));
  const int steps = static_cast<int>(flags.Int("steps", 5));
  const int queries = static_cast<int>(flags.Int("queries", 100));
  const std::string cache = flags.Str("cache", "bench_cache");
  const std::string csv = flags.Str("csv", "");
  const std::string json = flags.Str("json", "BENCH_fig10_query_time.json");
  const std::vector<std::int64_t> sweep_threads =
      flags.IntList("threads", {1, 2, 4, 8});

  PrintHeader("Figure 10 — Overall query processing time vs database size",
              std::to_string(queries) +
                  " random simulated queries per size; 2 feedback rounds + "
                  "final localized k-NN. Paper claim: time grows linearly "
                  "and stays low; a global-kNN baseline (MV) is shown for "
                  "reference.");

  StatusOr<ImageDatabase> full =
      GetDatabase(max_images, /*with_channels=*/true, cache);
  if (!full.ok()) {
    std::fprintf(stderr, "database: %s\n", full.status().ToString().c_str());
    return 1;
  }
  BuildScanTables(*full);

  TablePrinter table({"DB size", "QD total (ms/query)", "MV total (ms/query)",
                      "QD / MV"});
  std::vector<double> sizes, qd_times, mv_times;
  std::vector<BenchRecord> records;
  StatusOr<RfsTree> last_rfs = Status::Internal("no step ran");
  StatusOr<ImageDatabase> last_db = Status::Internal("no step ran");
  for (int step = 1; step <= steps; ++step) {
    const std::size_t size = max_images * step / steps;
    StatusOr<ImageDatabase> db =
        step == steps ? std::move(full).value()
                      : DatabaseSynthesizer::Subsample(*full, size).value();
    if (!db.ok()) return 1;
    BuildScanTables(*db);
    StatusOr<RfsTree> rfs = GetRfs(*db, PaperRfsOptions(), "paper", cache);
    if (!rfs.ok()) return 1;

    std::vector<double> qd_samples, mv_samples;
    for (int q = 0; q < queries; ++q) {
      qd_samples.push_back(
          RunRandomQdQuery(*rfs, static_cast<std::uint64_t>(q) + 1, 50)
              .total_seconds);
      mv_samples.push_back(
          RunRandomMvQuery(*db, static_cast<std::uint64_t>(q) + 1, 50)
              .total_seconds);
    }
    // Median: robust against scheduler noise on shared machines.
    const double qd_ms = Median(qd_samples) * 1e3;
    const double mv_ms = Median(mv_samples) * 1e3;
    table.AddRow({std::to_string(size), TablePrinter::Num(qd_ms, 3),
                  TablePrinter::Num(mv_ms, 3),
                  TablePrinter::Num(qd_ms / mv_ms, 3)});
    sizes.push_back(static_cast<double>(size));
    qd_times.push_back(qd_ms);
    mv_times.push_back(mv_ms);

    BenchRecord record;
    record.bench = "fig10_query_time";
    record.config = "db=" + std::to_string(size);
    record.threads = ThreadPool::Global().size();
    record.wall_seconds = qd_ms / 1e3;
    record.metrics = {{"qd_total_ms", qd_ms},
                      {"mv_total_ms", mv_ms},
                      {"queries", static_cast<double>(queries)}};
    records.push_back(std::move(record));

    last_rfs = std::move(rfs);
    last_db = std::move(db);
  }
  table.Print(std::cout);

  // Thread-count sweep at the largest size: the final localized-subquery
  // round of each QD query fans out across the pool; everything before it
  // is per-neighborhood work that does not depend on the pool width.
  if (last_rfs.ok() && !sweep_threads.empty()) {
    TablePrinter sweep({"Threads", "QD total (ms/query)", "Speedup vs 1"});
    double base_ms = 0.0;
    for (const std::int64_t t : sweep_threads) {
      if (t <= 0) continue;
      ThreadPool pool(static_cast<std::size_t>(t));
      std::vector<double> samples;
      for (int q = 0; q < queries; ++q) {
        samples.push_back(RunRandomQdQuery(*last_rfs,
                                           static_cast<std::uint64_t>(q) + 1,
                                           50, &pool)
                              .total_seconds);
      }
      const double ms = Median(samples) * 1e3;
      if (base_ms == 0.0) base_ms = ms;
      sweep.AddRow({std::to_string(t), TablePrinter::Num(ms, 3),
                    TablePrinter::Num(base_ms / ms, 2)});

      BenchRecord record;
      record.bench = "fig10_query_time_thread_sweep";
      record.config = "db=" + std::to_string(last_rfs->num_images());
      record.threads = static_cast<std::size_t>(t);
      record.wall_seconds = ms / 1e3;
      record.metrics = {{"qd_total_ms", ms},
                        {"speedup_vs_1", base_ms / ms},
                        {"queries", static_cast<double>(queries)}};
      records.push_back(std::move(record));
    }
    std::printf("\nThread sweep at %zu images:\n", last_rfs->num_images());
    sweep.Print(std::cout);
  }

  if (!csv.empty()) {
    std::ofstream out(csv);
    out << "db_size,qd_total_ms,mv_total_ms\n";
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      out << sizes[i] << "," << qd_times[i] << "," << mv_times[i] << "\n";
    }
    std::printf("series written to %s\n", csv.c_str());
  }

  if (!json.empty()) {
    const Status append = AppendBenchJson(json, records);
    if (append.ok()) {
      std::printf("results appended to %s\n", json.c_str());
    } else {
      std::fprintf(stderr, "warning: %s\n", append.ToString().c_str());
    }
  }

  const double r = LinearCorrelation(sizes, qd_times);
  std::printf(
      "\nShape check (paper claim): overall QD query time scales linearly "
      "with database size (linear correlation R = %.3f): %s\n",
      r, r > 0.9 ? "HOLDS" : "CHECK MANUALLY (timing noise)");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace qdcbir

int main(int argc, char** argv) { return qdcbir::bench::Run(argc, argv); }
