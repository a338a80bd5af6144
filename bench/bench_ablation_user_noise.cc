// Ablation: robustness to imperfect relevance feedback.
//
// The paper's evaluation uses 20 human students; humans overlook relevant
// images and occasionally mark irrelevant ones. This sweep degrades the
// simulated user with a miss rate (probability of overlooking a relevant
// displayed image) and a false-mark rate (probability of marking an
// irrelevant one), and measures how QD and MV quality decay.
//
// QD is exposed to feedback noise in a specific way: a false mark does not
// merely bias a query point — it *opens a whole irrelevant subquery* that
// competes for result slots. The proportional allocation of §3.4 is the
// built-in defense: spurious single-mark subclusters receive few slots.
//
// Flags: --images=6000 --seeds=3 --cache=bench_cache

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "qdcbir/eval/ground_truth.h"
#include "qdcbir/eval/table_printer.h"
#include "qdcbir/query/mv_engine.h"

namespace qdcbir {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t images =
      static_cast<std::size_t>(flags.Int("images", 6000));
  const int seeds = static_cast<int>(flags.Int("seeds", 3));
  const std::string cache = flags.Str("cache", "bench_cache");

  PrintHeader("Ablation — imperfect user feedback",
              "Quality of QD and MV when the simulated user misses relevant "
              "images and falsely marks irrelevant ones; averaged over the "
              "11 queries and " + std::to_string(seeds) + " users at " +
                  std::to_string(images) + " images.");

  StatusOr<ImageDatabase> db =
      GetDatabase(images, /*with_channels=*/true, cache);
  if (!db.ok()) return 1;
  StatusOr<RfsTree> rfs = GetRfs(*db, PaperRfsOptions(), "paper", cache);
  if (!rfs.ok()) return 1;

  struct NoiseLevel {
    const char* name;
    double miss_rate;
    double false_rate;
  };
  // Rates are per *displayed* image; the user browses ~1,200 images per
  // round, so even a 0.5% false-mark rate yields several wrong marks per
  // session.
  const NoiseLevel levels[] = {
      {"oracle (0% / 0%)", 0.0, 0.0},
      {"careless (20% miss)", 0.2, 0.0},
      {"distracted (40% miss)", 0.4, 0.0},
      {"sloppy (20% miss, 0.2% false)", 0.2, 0.002},
      {"noisy (40% miss, 0.5% false)", 0.4, 0.005},
  };

  TablePrinter table({"User model (miss/false)", "QD prec", "QD GTIR",
                      "MV prec", "MV GTIR"});
  for (const NoiseLevel& level : levels) {
    double qd_prec = 0, qd_gtir = 0, mv_prec = 0, mv_gtir = 0;
    int qd_runs = 0, mv_runs = 0;
    SessionTally qd_tally, mv_tally;
    for (const QueryConceptSpec& spec : db->catalog().queries()) {
      StatusOr<QueryGroundTruth> gt = BuildGroundTruth(*db, spec);
      if (!gt.ok()) continue;
      for (int seed = 1; seed <= seeds; ++seed) {
        ProtocolOptions protocol = PaperProtocol(seed);
        protocol.oracle.miss_rate = level.miss_rate;
        protocol.oracle.false_mark_rate = level.false_rate;

        StatusOr<RunOutcome> qd =
            SessionRunner::RunQd(*rfs, *gt, QdOptions{}, protocol);
        if (qd_tally.Count(qd.status())) {
          qd_prec += qd->final_precision;
          qd_gtir += qd->final_gtir;
          ++qd_runs;
        }
        MvEngine mv_engine(&*db);
        StatusOr<RunOutcome> mv =
            SessionRunner::RunEngine(mv_engine, *gt, protocol);
        if (mv_tally.Count(mv.status())) {
          mv_prec += mv->final_precision;
          mv_gtir += mv->final_gtir;
          ++mv_runs;
        }
      }
    }
    qd_tally.Print(std::string("qd, ") + level.name);
    mv_tally.Print(std::string("mv, ") + level.name);
    if (qd_runs == 0 || mv_runs == 0) continue;
    table.AddRow({level.name, TablePrinter::Num(qd_prec / qd_runs),
                  TablePrinter::Num(qd_gtir / qd_runs),
                  TablePrinter::Num(mv_prec / mv_runs),
                  TablePrinter::Num(mv_gtir / mv_runs)});
  }
  table.Print(std::cout);
  std::printf(
      "\nExpected shape: quality decays gracefully with user noise, and "
      "QD's advantage over MV persists at every noise level (proportional "
      "result allocation keeps spurious subqueries small).\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace qdcbir

int main(int argc, char** argv) { return qdcbir::bench::Run(argc, argv); }
