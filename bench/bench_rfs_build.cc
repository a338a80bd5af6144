// Reproduces the paper's Section 4 prototype statistics: with node capacity
// 70..100 the 15,000-image RFS structure is 3 levels deep and designates
// about 5% of the database as representative images.
//
// Flags: --images=15000 --cache=bench_cache

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "qdcbir/eval/table_printer.h"
#include "qdcbir/obs/clock.h"

namespace qdcbir {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t images =
      static_cast<std::size_t>(flags.Int("images", 15000));
  const std::string cache = flags.Str("cache", "bench_cache");

  PrintHeader("Section 4 — RFS structure build statistics",
              "Node capacity 70..100, representative fraction 5% (the "
              "paper's prototype configuration).");

  StatusOr<ImageDatabase> db =
      GetDatabase(images, /*with_channels=*/true, cache);
  if (!db.ok()) {
    std::fprintf(stderr, "database: %s\n", db.status().ToString().c_str());
    return 1;
  }

  // Build fresh (uncached) to time construction.
  WallTimer timer;
  StatusOr<RfsTree> rfs = RfsBuilder::Build(db->feature_store(), PaperRfsOptions());
  const double build_seconds = timer.Seconds();
  if (!rfs.ok()) {
    std::fprintf(stderr, "rfs: %s\n", rfs.status().ToString().c_str());
    return 1;
  }
  const Status invariants = rfs->CheckInvariants();
  const RfsTree::Stats stats = rfs->ComputeStats();

  TablePrinter table({"Metric", "Paper", "Measured"});
  table.AddRow({"Database size", "15000", std::to_string(stats.total_images)});
  table.AddRow({"Tree levels", "3", std::to_string(stats.height)});
  table.AddRow({"Representative fraction", "5%",
                TablePrinter::Num(100.0 * stats.representative_fraction, 1) +
                    "%"});
  table.AddRow({"Leaf nodes", "-", std::to_string(stats.leaf_count)});
  table.AddRow({"Total nodes", "-", std::to_string(stats.node_count)});
  table.AddRow({"Leaf representatives", "-",
                std::to_string(stats.leaf_representatives)});
  table.AddRow({"Build time (s)", "-", TablePrinter::Num(build_seconds, 1)});
  table.AddRow({"Invariants", "-", invariants.ok() ? "OK" : "BROKEN"});
  table.Print(std::cout);

  std::printf(
      "\nShape checks (paper claims):\n"
      "  - 3-level tree at 15k images / 70..100 capacity: %s (measured %d)\n"
      "  - ~5%% representatives: %s (measured %.1f%%)\n",
      stats.height == 3 ? "HOLDS" : "DIFFERS",
      stats.height,
      stats.representative_fraction > 0.035 &&
              stats.representative_fraction < 0.085
          ? "HOLDS"
          : "DIFFERS",
      100.0 * stats.representative_fraction);
  return invariants.ok() ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace qdcbir

int main(int argc, char** argv) { return qdcbir::bench::Run(argc, argv); }
