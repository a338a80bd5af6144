// Ablation: the boundary-expansion threshold of Section 3.3.
//
// The paper picks 0.4 for its database and argues: a higher threshold means
// fewer expansions (cheaper, but query images near a leaf boundary may miss
// neighbors in sibling leaves); a lower threshold expands more (better
// recall near boundaries, larger localized searches). This sweep measures
// precision, GTIR, expansions per query, and localized k-NN candidates
// across thresholds.
//
// Flags: --images=6000 --seeds=3 --cache=bench_cache

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "qdcbir/eval/ground_truth.h"
#include "qdcbir/eval/table_printer.h"

namespace qdcbir {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t images =
      static_cast<std::size_t>(flags.Int("images", 6000));
  const int seeds = static_cast<int>(flags.Int("seeds", 3));
  const std::string cache = flags.Str("cache", "bench_cache");

  PrintHeader("Ablation — boundary-expansion threshold (paper uses 0.4)",
              "Precision / GTIR / expansion counts across thresholds, "
              "averaged over the 11 queries and " + std::to_string(seeds) +
                  " users at " + std::to_string(images) + " images.");

  StatusOr<ImageDatabase> db =
      GetDatabase(images, /*with_channels=*/false, cache);
  if (!db.ok()) return 1;
  StatusOr<RfsTree> rfs = GetRfs(*db, PaperRfsOptions(), "paper_nc", cache);
  if (!rfs.ok()) return 1;

  TablePrinter table({"Threshold", "Precision", "GTIR", "Expansions/query",
                      "kNN candidates/query"});
  for (const double threshold :
       {0.0, 0.15, 0.25, 0.30, 0.35, 0.40, 0.60, 1.0}) {
    double precision = 0, gtir = 0, expansions = 0, candidates = 0;
    int runs = 0;
    SessionTally tally;
    for (const QueryConceptSpec& spec : db->catalog().queries()) {
      StatusOr<QueryGroundTruth> gt = BuildGroundTruth(*db, spec);
      if (!gt.ok()) continue;
      for (int seed = 1; seed <= seeds; ++seed) {
        QdOptions qd_options;
        qd_options.boundary_threshold = threshold;
        StatusOr<RunOutcome> outcome = SessionRunner::RunQd(
            *rfs, *gt, qd_options, PaperProtocol(seed));
        if (!tally.Count(outcome.status())) continue;
        precision += outcome->final_precision;
        gtir += outcome->final_gtir;
        expansions += static_cast<double>(
            outcome->qd_stats.boundary_expansions);
        candidates +=
            static_cast<double>(outcome->qd_stats.knn_candidates);
        ++runs;
      }
    }
    tally.Print("threshold " + TablePrinter::Num(threshold, 2));
    if (runs == 0) continue;
    table.AddRow({TablePrinter::Num(threshold, 2),
                  TablePrinter::Num(precision / runs),
                  TablePrinter::Num(gtir / runs),
                  TablePrinter::Num(expansions / runs, 1),
                  TablePrinter::Num(candidates / runs, 0)});
  }
  table.Print(std::cout);
  std::printf(
      "\nExpected shape: expansions (and searched candidates) decrease "
      "monotonically with the threshold; quality is stable in the paper's "
      "0.2-0.6 operating range.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace qdcbir

int main(int argc, char** argv) { return qdcbir::bench::Run(argc, argv); }
