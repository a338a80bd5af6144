// Ablation: the RFS "data clustering" stage (DESIGN.md design choice).
//
// The paper describes the RFS as a hierarchical clustering of the database
// (an R*-tree in their prototype). This library offers three construction
// strategies; the ablation compares their retrieval quality and build cost:
//   - clustered : hierarchical k-means bulk load (leaves = visual clusters)
//   - tgs_bulk  : spatial median-partition bulk load
//   - insertion : classic one-at-a-time R* insertion
//
// Flags: --images=6000 --seeds=3 --cache=bench_cache

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "qdcbir/eval/ground_truth.h"
#include "qdcbir/eval/table_printer.h"
#include "qdcbir/obs/clock.h"

namespace qdcbir {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t images =
      static_cast<std::size_t>(flags.Int("images", 6000));
  const int seeds = static_cast<int>(flags.Int("seeds", 3));
  const std::string cache = flags.Str("cache", "bench_cache");

  PrintHeader("Ablation — RFS data-clustering strategy",
              "Retrieval quality and build cost of the three index "
              "construction strategies, over the 11 queries and " +
                  std::to_string(seeds) + " users at " +
                  std::to_string(images) + " images.");

  StatusOr<ImageDatabase> db =
      GetDatabase(images, /*with_channels=*/false, cache);
  if (!db.ok()) return 1;

  TablePrinter table({"Strategy", "Build (s)", "Height", "Leaves",
                      "Precision", "GTIR"});
  for (const RfsBuildStrategy strategy :
       {RfsBuildStrategy::kClustered, RfsBuildStrategy::kTgsBulkLoad,
        RfsBuildStrategy::kInsertion}) {
    RfsBuildOptions build = PaperRfsOptions();
    build.strategy = strategy;

    WallTimer timer;
    StatusOr<RfsTree> rfs = RfsBuilder::Build(db->feature_store(), build);
    const double build_seconds = timer.Seconds();
    if (!rfs.ok()) {
      std::fprintf(stderr, "%s: %s\n", RfsBuildStrategyName(strategy),
                   rfs.status().ToString().c_str());
      continue;
    }
    const RfsTree::Stats stats = rfs->ComputeStats();

    double precision = 0, gtir = 0;
    int runs = 0;
    SessionTally tally;
    for (const QueryConceptSpec& spec : db->catalog().queries()) {
      StatusOr<QueryGroundTruth> gt = BuildGroundTruth(*db, spec);
      if (!gt.ok()) continue;
      for (int seed = 1; seed <= seeds; ++seed) {
        StatusOr<RunOutcome> outcome = SessionRunner::RunQd(
            *rfs, *gt, QdOptions{}, PaperProtocol(seed));
        if (!tally.Count(outcome.status())) continue;
        precision += outcome->final_precision;
        gtir += outcome->final_gtir;
        ++runs;
      }
    }
    tally.Print(RfsBuildStrategyName(strategy));
    if (runs == 0) continue;
    table.AddRow({RfsBuildStrategyName(strategy),
                  TablePrinter::Num(build_seconds, 2),
                  std::to_string(stats.height),
                  std::to_string(stats.leaf_count),
                  TablePrinter::Num(precision / runs),
                  TablePrinter::Num(gtir / runs)});
  }
  table.Print(std::cout);
  std::printf(
      "\nExpected shape: the clustered strategy wins on precision (leaves "
      "hold whole visual clusters, so localized k-NN stays pure); the "
      "spatial strategies are cheaper to build but slice clusters across "
      "leaf boundaries.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace qdcbir

int main(int argc, char** argv) { return qdcbir::bench::Run(argc, argv); }
