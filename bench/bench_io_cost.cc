// Reproduces the paper's Section 5.2.2 disk-utilization argument.
//
// In the paper's cost model every tree node opened is one disk access. The
// claims:
//   1. processing a relevance-feedback round accesses only one tree node
//      per relevant representative (shared when several representatives
//      come from the same cluster);
//   2. each final localized k-NN computation usually needs about one node
//      (the leaf), plus parents only when boundary expansion triggers;
//   3. a traditional global-kNN round reads the entire database instead.
//
// Flags: --images=15000 --seeds=5 --cache=bench_cache

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
      static_cast<std::size_t>(flags.Int("images", 15000));
  const int seeds = static_cast<int>(flags.Int("seeds", 5));
  const std::string cache = flags.Str("cache", "bench_cache");

  PrintHeader("Section 5.2.2 — disk utilization of QD sessions",
              "Node accesses (the paper's unit of disk I/O) per session "
              "phase, averaged over the 11 queries and " +
                  std::to_string(seeds) + " users.");

  StatusOr<ImageDatabase> db =
      GetDatabase(images, /*with_channels=*/true, cache);
  if (!db.ok()) return 1;
  StatusOr<RfsTree> rfs = GetRfs(*db, PaperRfsOptions(), "paper", cache);
  if (!rfs.ok()) return 1;

  double feedback_nodes = 0, knn_nodes = 0, subqueries = 0, expansions = 0;
  int runs = 0;
  SessionTally tally;
  for (const QueryConceptSpec& spec : db->catalog().queries()) {
    StatusOr<QueryGroundTruth> gt = BuildGroundTruth(*db, spec);
    if (!gt.ok()) continue;
    for (int seed = 1; seed <= seeds; ++seed) {
      StatusOr<RunOutcome> outcome = SessionRunner::RunQd(
          *rfs, *gt, QdOptions{}, PaperProtocol(seed));
      if (!tally.Count(outcome.status())) continue;
      feedback_nodes +=
          static_cast<double>(outcome->qd_stats.distinct_nodes_sampled);
      knn_nodes += static_cast<double>(outcome->qd_stats.knn_nodes_visited);
      subqueries +=
          static_cast<double>(outcome->qd_stats.localized_subqueries);
      expansions +=
          static_cast<double>(outcome->qd_stats.boundary_expansions);
      ++runs;
    }
  }
  tally.Print("qd");
  if (runs == 0) return 1;

  const RfsTree::Stats tree_stats = rfs->ComputeStats();
  const double nodes_per_subquery = knn_nodes / subqueries;

  TablePrinter table({"Phase", "Node accesses (avg/session)", "Notes"});
  table.AddRow({"Feedback rounds (all 3)",
                TablePrinter::Num(feedback_nodes / runs, 1),
                "distinct nodes whose representatives were read"});
  table.AddRow({"Localized k-NN (final round)",
                TablePrinter::Num(knn_nodes / runs, 1),
                TablePrinter::Num(subqueries / runs, 1) + " subqueries, " +
                    TablePrinter::Num(nodes_per_subquery, 1) +
                    " nodes each"});
  table.AddRow({"Boundary expansions",
                TablePrinter::Num(expansions / runs, 1),
                "parent climbs (each widens one subquery)"});
  table.AddRow({"Global-kNN round (reference)",
                std::to_string(tree_stats.leaf_count),
                "a full scan reads every leaf"});
  table.Print(std::cout);

  // "Usually one" in the paper refers to the leaf; our best-first search
  // also opens the internal nodes on the way down (height - 1 of them), so
  // the faithful check is: nodes per subquery is within a few of the tree
  // height, far below the leaf count.
  std::printf(
      "\nShape check (paper claim): a localized k-NN computation touches a "
      "handful of nodes (measured %.1f per subquery, tree height %d, %zu "
      "leaves total): %s\n",
      nodes_per_subquery, tree_stats.height, tree_stats.leaf_count,
      nodes_per_subquery < 4.0 * tree_stats.height ? "HOLDS" : "VIOLATED");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace qdcbir

int main(int argc, char** argv) { return qdcbir::bench::Run(argc, argv); }
