// Ablation: user-defined feature importance (the paper's §6 future work —
// "the user may define color as the most important feature").
//
// The localized subqueries of a QD session optionally rank candidates under
// per-dimension weights. This sweep compares uniform weighting against
// emphasizing one feature group at a time, on two kinds of queries:
//   - "rose": its sub-concepts (yellow vs red) are defined by color;
//   - "laptop": its sub-concepts differ by background complexity, which the
//     texture/edge groups carry.
//
// Flags: --images=6000 --seeds=3 --cache=bench_cache

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "qdcbir/eval/ground_truth.h"
#include "qdcbir/eval/table_printer.h"
#include "qdcbir/features/extractor.h"

namespace qdcbir {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t images =
      static_cast<std::size_t>(flags.Int("images", 6000));
  const int seeds = static_cast<int>(flags.Int("seeds", 3));
  const std::string cache = flags.Str("cache", "bench_cache");

  PrintHeader("Ablation — feature-importance weighting (paper §6 future "
              "work)",
              "Per-query precision when the localized subqueries emphasize "
              "one feature group (weight 4x), over " +
                  std::to_string(seeds) + " users at " +
                  std::to_string(images) + " images.");

  StatusOr<ImageDatabase> db =
      GetDatabase(images, /*with_channels=*/false, cache);
  if (!db.ok()) return 1;
  StatusOr<RfsTree> rfs = GetRfs(*db, PaperRfsOptions(), "paper_nc", cache);
  if (!rfs.ok()) return 1;

  struct Scheme {
    const char* name;
    std::vector<double> weights;
  };
  const Scheme schemes[] = {
      {"uniform", {}},
      {"color 4x", MakeGroupWeights(4.0, 1.0, 1.0)},
      {"texture 4x", MakeGroupWeights(1.0, 4.0, 1.0)},
      {"edge 4x", MakeGroupWeights(1.0, 1.0, 4.0)},
  };

  TablePrinter table(
      {"Weights", "rose prec", "rose GTIR", "laptop prec", "laptop GTIR",
       "all-11 prec", "all-11 GTIR"});
  for (const Scheme& scheme : schemes) {
    double rose_prec = 0, rose_gtir = 0, laptop_prec = 0, laptop_gtir = 0;
    double all_prec = 0, all_gtir = 0;
    int rose_runs = 0, laptop_runs = 0, all_runs = 0;
    SessionTally tally;
    for (const QueryConceptSpec& spec : db->catalog().queries()) {
      StatusOr<QueryGroundTruth> gt = BuildGroundTruth(*db, spec);
      if (!gt.ok()) continue;
      for (int seed = 1; seed <= seeds; ++seed) {
        QdOptions qd_options;
        qd_options.feature_weights = scheme.weights;
        StatusOr<RunOutcome> outcome = SessionRunner::RunQd(
            *rfs, *gt, qd_options, PaperProtocol(seed));
        if (!tally.Count(outcome.status())) continue;
        all_prec += outcome->final_precision;
        all_gtir += outcome->final_gtir;
        ++all_runs;
        if (spec.name == "rose") {
          rose_prec += outcome->final_precision;
          rose_gtir += outcome->final_gtir;
          ++rose_runs;
        } else if (spec.name == "laptop") {
          laptop_prec += outcome->final_precision;
          laptop_gtir += outcome->final_gtir;
          ++laptop_runs;
        }
      }
    }
    tally.Print(scheme.name);
    if (all_runs == 0) continue;
    table.AddRow({scheme.name,
                  TablePrinter::Num(rose_runs ? rose_prec / rose_runs : 0),
                  TablePrinter::Num(rose_runs ? rose_gtir / rose_runs : 0),
                  TablePrinter::Num(laptop_runs ? laptop_prec / laptop_runs : 0),
                  TablePrinter::Num(laptop_runs ? laptop_gtir / laptop_runs : 0),
                  TablePrinter::Num(all_prec / all_runs),
                  TablePrinter::Num(all_gtir / all_runs)});
  }
  table.Print(std::cout);
  std::printf(
      "\nExpected shape: emphasizing the feature group that defines a "
      "query's sub-concepts preserves or improves its precision; heavily "
      "weighting an uninformative group degrades it. Uniform weights are a "
      "solid default, which is why the paper leaves this as future work.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace qdcbir

int main(int argc, char** argv) { return qdcbir::bench::Run(argc, argv); }
