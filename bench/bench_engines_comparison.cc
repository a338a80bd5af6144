// Extended comparison across the full relevance-feedback family the paper
// surveys in Section 2: Query Decomposition against Multiple Viewpoints,
// Query Point Movement (MindReader), MARS multipoint refinement, a
// Qcluster-style disjunctive engine, and a Fagin-style top-k merger.
//
// The paper compares only against MV (its strongest single-neighborhood
// contender); this table situates QD in the whole design space and verifies
// its §2 narrative: clustering-based baselines (Qcluster) beat pure
// centroid movement on scattered concepts, but only decomposition reaches
// every relevant subcluster with independent result quotas.
//
// Flags: --images=15000 --seeds=3 --cache=bench_cache

#include <cstdio>
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "qdcbir/eval/ground_truth.h"
#include "qdcbir/eval/table_printer.h"
#include "qdcbir/query/fagin_engine.h"
#include "qdcbir/query/mars_engine.h"
#include "qdcbir/query/mv_engine.h"
#include "qdcbir/query/qcluster_engine.h"
#include "qdcbir/query/qpm_engine.h"

namespace qdcbir {
namespace bench {
namespace {

std::unique_ptr<FeedbackEngine> MakeEngine(const std::string& name,
                                           const ImageDatabase* db) {
  if (name == "mv") return std::make_unique<MvEngine>(db);
  if (name == "qpm") return std::make_unique<QpmEngine>(db);
  if (name == "mars") return std::make_unique<MarsEngine>(db);
  if (name == "qcluster") return std::make_unique<QclusterEngine>(db);
  if (name == "fagin") return std::make_unique<FaginEngine>(db);
  return nullptr;
}

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t images =
      static_cast<std::size_t>(flags.Int("images", 15000));
  const int seeds = static_cast<int>(flags.Int("seeds", 3));
  const std::string cache = flags.Str("cache", "bench_cache");

  PrintHeader("Extended comparison — the Section 2 relevance-feedback "
              "family",
              "Average precision / GTIR over the 11 evaluation queries and " +
                  std::to_string(seeds) + " users; per-round database scans "
                  "counted as the efficiency proxy.");

  StatusOr<ImageDatabase> db =
      GetDatabase(images, /*with_channels=*/true, cache);
  if (!db.ok()) return 1;
  BuildScanTables(*db);
  StatusOr<RfsTree> rfs = GetRfs(*db, PaperRfsOptions(), "paper", cache);
  if (!rfs.ok()) return 1;

  TablePrinter table({"Engine", "Precision", "GTIR",
                      "DB items scanned / session"});

  // Query Decomposition first.
  {
    double precision = 0, gtir = 0, scanned = 0;
    int runs = 0;
    for (const QueryConceptSpec& spec : db->catalog().queries()) {
      StatusOr<QueryGroundTruth> gt = BuildGroundTruth(*db, spec);
      if (!gt.ok()) continue;
      for (int seed = 1; seed <= seeds; ++seed) {
        StatusOr<RunOutcome> outcome = SessionRunner::RunQd(
            *rfs, *gt, QdOptions{}, PaperProtocol(seed));
        if (!outcome.ok()) continue;
        precision += outcome->final_precision;
        gtir += outcome->final_gtir;
        scanned += static_cast<double>(outcome->qd_stats.knn_candidates);
        ++runs;
      }
    }
    if (runs > 0) {
      table.AddRow({"qd (this paper)", TablePrinter::Num(precision / runs),
                    TablePrinter::Num(gtir / runs),
                    TablePrinter::Num(scanned / runs, 0)});
    }
  }

  for (const char* name : {"mv", "qpm", "mars", "qcluster", "fagin"}) {
    double precision = 0, gtir = 0, scanned = 0;
    int runs = 0;
    for (const QueryConceptSpec& spec : db->catalog().queries()) {
      StatusOr<QueryGroundTruth> gt = BuildGroundTruth(*db, spec);
      if (!gt.ok()) continue;
      for (int seed = 1; seed <= seeds; ++seed) {
        std::unique_ptr<FeedbackEngine> engine = MakeEngine(name, &*db);
        ProtocolOptions protocol = PaperProtocol(seed);
        StatusOr<RunOutcome> outcome =
            SessionRunner::RunEngine(*engine, *gt, protocol);
        if (!outcome.ok()) continue;
        precision += outcome->final_precision;
        gtir += outcome->final_gtir;
        scanned +=
            static_cast<double>(outcome->global_stats.candidates_scanned);
        ++runs;
      }
    }
    if (runs > 0) {
      table.AddRow({name, TablePrinter::Num(precision / runs),
                    TablePrinter::Num(gtir / runs),
                    TablePrinter::Num(scanned / runs, 0)});
    }
  }
  table.Print(std::cout);

  std::printf(
      "\nExpected shape: QD leads on GTIR (independent subqueries reach "
      "every relevant subcluster) at a fraction of the scan cost; the "
      "disjunctive/cluster-aware baselines (qcluster, mars) sit between "
      "pure centroid movement (qpm) and QD on scattered concepts.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace qdcbir

int main(int argc, char** argv) { return qdcbir::bench::Run(argc, argv); }
