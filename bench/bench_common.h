#ifndef QDCBIR_BENCH_BENCH_COMMON_H_
#define QDCBIR_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "qdcbir/core/status.h"
#include "qdcbir/dataset/database.h"
#include "qdcbir/eval/session_runner.h"
#include "qdcbir/rfs/rfs_builder.h"
#include "qdcbir/rfs/rfs_tree.h"

namespace qdcbir {
namespace bench {

/// Command-line flags shared by the benchmark binaries. All flags use the
/// form `--name=value`.
class Flags {
 public:
  Flags(int argc, char** argv);

  std::int64_t Int(const std::string& name, std::int64_t fallback) const;
  double Double(const std::string& name, double fallback) const;
  std::string Str(const std::string& name, const std::string& fallback) const;
  /// Comma-separated integer list, e.g. `--threads=1,2,4,8`.
  std::vector<std::int64_t> IntList(
      const std::string& name, const std::vector<std::int64_t>& fallback) const;

 private:
  std::vector<std::pair<std::string, std::string>> values_;
};

/// One entry of a `BENCH_*.json` results file. Every record reports the
/// wall-clock seconds of its measured section and the thread count it ran
/// with, so entries stay comparable across thread-count sweeps.
struct BenchRecord {
  std::string bench;   ///< benchmark id, e.g. "fig10_query_time"
  std::string config;  ///< free-form data-point label, e.g. "db=15000"
  std::size_t threads = 1;     ///< pool lanes the measured section used
  double wall_seconds = 0.0;   ///< wall-clock of the measured section
  /// Additional named measurements (medians, ratios, counters).
  std::vector<std::pair<std::string, double>> metrics;
};

/// Appends `records` to `path` as JSON lines (one object per record, so
/// sweep runs from several invocations accumulate into one file). Each
/// record carries an `obs` field with the process-wide metrics registry
/// snapshot at append time (counters, gauges, span histograms).
Status AppendBenchJson(const std::string& path,
                       const std::vector<BenchRecord>& records);

/// The paper prototype's configuration: R*-tree nodes with 70..100 entries,
/// 5% representative images, boundary-expansion threshold 0.4.
RfsBuildOptions PaperRfsOptions();

/// The paper's evaluation protocol: 3 feedback rounds, 21-image displays.
ProtocolOptions PaperProtocol(std::uint64_t seed);

/// Returns the paper-scale synthetic database (150 categories), loading it
/// from `cache_dir` when present and synthesizing + caching it otherwise.
/// `with_channels` controls extraction of the MV viewpoint channels.
StatusOr<ImageDatabase> GetDatabase(std::size_t total_images,
                                    bool with_channels,
                                    const std::string& cache_dir);

/// Builds the blocked tables the whole-table sweeps read (the main channel
/// and every viewpoint channel), which a database otherwise builds on its
/// first sweep. Call it right after building or subsampling a database so
/// the one-time build stays out of the timed queries.
void BuildScanTables(const ImageDatabase& db);

/// Builds (or loads from cache) the RFS tree for `db` under `options`.
/// `cache_key` distinguishes configurations in the cache directory.
StatusOr<RfsTree> GetRfs(const ImageDatabase& db,
                         const RfsBuildOptions& options,
                         const std::string& cache_key,
                         const std::string& cache_dir);

/// Prints a standard benchmark header naming the experiment.
void PrintHeader(const std::string& title, const std::string& description);

/// The sessions behind one table row: how many ran, how many failed, and
/// the first failure's status. Rows average only the sessions that
/// succeeded, so every row prints its tally and a row that averages fewer
/// sessions than its header names says so.
class SessionTally {
 public:
  /// Counts one session; true when it succeeded.
  bool Count(const Status& status);

  /// Prints `sessions <row>: N run, M failed`, plus the first failure's
  /// status when M > 0.
  void Print(const std::string& row) const;

 private:
  std::size_t run_ = 0;
  std::size_t failed_ = 0;
  std::string first_failure_;
};

/// Least-squares linearity check: returns the correlation coefficient R of
/// y against x (|R| near 1 means the series is close to linear).
double LinearCorrelation(const std::vector<double>& x,
                         const std::vector<double>& y);

}  // namespace bench
}  // namespace qdcbir

#endif  // QDCBIR_BENCH_BENCH_COMMON_H_
