// Reproduces Figure 11 of the paper: average relevance-feedback iteration
// processing time versus database size.
//
// The paper's claim: a QD feedback iteration costs almost nothing — it only
// samples representative images from the RFS nodes on the decomposition
// frontier — and the (already small) cost grows linearly with database
// size. Traditional relevance feedback (MV-style) instead performs global
// k-NN computation on the entire database every round.
//
// Flags: --max_images=15000 --steps=5 --queries=100 --cache=bench_cache

#include <cstdio>
#include <fstream>
#include <iostream>

#include "bench_common.h"
#include "qdcbir/core/rng.h"
#include "qdcbir/core/stats.h"
#include "qdcbir/dataset/synthesizer.h"
#include "qdcbir/eval/table_printer.h"
#include "qdcbir/obs/clock.h"
#include "qdcbir/query/mv_engine.h"
#include "qdcbir/query/qd_engine.h"

namespace qdcbir {
namespace bench {
namespace {

/// Mean per-iteration feedback cost of one simulated QD query (2 rounds of
/// random picks; no finalization — Figure 11 isolates the iteration cost).
double QdIterationSeconds(const RfsTree& rfs, std::uint64_t seed) {
  QdOptions options;
  options.seed = seed;
  QdSession session(&rfs, options);
  Rng rng(seed ^ 0xfeed);
  auto display = session.Start();
  double total = 0.0;
  constexpr int kRounds = 2;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<ImageId> flat;
    for (const DisplayGroup& g : display) {
      flat.insert(flat.end(), g.images.begin(), g.images.end());
    }
    std::vector<ImageId> picks;
    for (const std::size_t i : rng.SampleWithoutReplacement(flat.size(), 3)) {
      picks.push_back(flat[i]);
    }
    WallTimer timer;
    auto next = session.Feedback(picks);
    total += timer.Seconds();
    if (!next.ok()) break;
    display = std::move(next).value();
  }
  return total / kRounds;
}

/// Mean per-iteration feedback cost of one simulated MV query (each round
/// refines and re-runs the per-channel global k-NN).
double MvIterationSeconds(const ImageDatabase& db, std::uint64_t seed) {
  MvOptions options;
  options.seed = seed;
  MvEngine engine(&db, options);
  Rng rng(seed ^ 0xbeef);
  engine.Start();
  double total = 0.0;
  constexpr int kRounds = 2;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<ImageId> picks;
    for (int i = 0; i < 3; ++i) {
      picks.push_back(static_cast<ImageId>(rng.UniformInt(db.size())));
    }
    WallTimer timer;
    auto next = engine.Feedback(picks);
    total += timer.Seconds();
    if (!next.ok()) break;
  }
  return total / kRounds;
}

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t max_images =
      static_cast<std::size_t>(flags.Int("max_images", 15000));
  const int steps = static_cast<int>(flags.Int("steps", 5));
  const int queries = static_cast<int>(flags.Int("queries", 100));
  const std::string cache = flags.Str("cache", "bench_cache");
  const std::string csv = flags.Str("csv", "");

  PrintHeader(
      "Figure 11 — Average iteration processing time vs database size",
      std::to_string(queries) +
          " random simulated queries per size; the per-round feedback "
          "processing cost is isolated. QD touches only frontier nodes; "
          "the global-kNN baseline (MV) re-scans the database.");

  StatusOr<ImageDatabase> full =
      GetDatabase(max_images, /*with_channels=*/true, cache);
  if (!full.ok()) {
    std::fprintf(stderr, "database: %s\n", full.status().ToString().c_str());
    return 1;
  }
  BuildScanTables(*full);

  TablePrinter table({"DB size", "QD iteration (ms)",
                      "MV/global-kNN iteration (ms)", "speedup"});
  std::vector<double> sizes, qd_times, mv_times;
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
          QdIterationSeconds(*rfs, static_cast<std::uint64_t>(q) + 1));
      mv_samples.push_back(
          MvIterationSeconds(*db, static_cast<std::uint64_t>(q) + 1));
    }
    // Median: robust against scheduler noise on shared machines.
    const double qd_ms = Median(qd_samples) * 1e3;
    const double mv_ms = Median(mv_samples) * 1e3;
    table.AddRow({std::to_string(size), TablePrinter::Num(qd_ms, 4),
                  TablePrinter::Num(mv_ms, 4),
                  TablePrinter::Num(mv_ms / qd_ms, 1) + "x"});
    sizes.push_back(static_cast<double>(size));
    qd_times.push_back(qd_ms);
    mv_times.push_back(mv_ms);
  }
  table.Print(std::cout);

  if (!csv.empty()) {
    std::ofstream out(csv);
    out << "db_size,qd_iter_ms,mv_iter_ms\n";
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      out << sizes[i] << "," << qd_times[i] << "," << mv_times[i] << "\n";
    }
    std::printf("series written to %s\n", csv.c_str());
  }

  const double r = LinearCorrelation(sizes, qd_times);
  std::printf(
      "\nShape checks (paper claims):\n"
      "  - QD iteration time is substantially below a global-kNN round\n"
      "  - QD iteration time grows at most linearly with database size "
      "(linear correlation R = %.3f)\n",
      r);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace qdcbir

int main(int argc, char** argv) { return qdcbir::bench::Run(argc, argv); }
