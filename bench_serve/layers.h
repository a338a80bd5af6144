#ifndef QDCBIR_BENCH_SERVE_LAYERS_H_
#define QDCBIR_BENCH_SERVE_LAYERS_H_

// The traced run's off-the-clock half: recorded transcripts replayed
// through each layer's public functions, every call wrapped in a span.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "qdcbir/dataset/database.h"
#include "qdcbir/rfs/rfs_tree.h"
#include "session.h"

namespace qdcbir {
namespace bench_serve {

/// Chrome `trace_event` writer emitting flat "B"/"E" events, the subset
/// `tools/trace_check` validates. Callers keep each thread id's events in
/// time order and properly nested.
class TraceWriter {
 public:
  explicit TraceWriter(std::uint64_t origin_ns) : origin_ns_(origin_ns) {}

  void Begin(int tid, const std::string& name, std::uint64_t ns);
  void End(int tid, const std::string& name, std::uint64_t ns);
  /// Begin and End of one span.
  void Span(int tid, const std::string& name, std::uint64_t begin_ns,
            std::uint64_t end_ns);

  /// Writes `{"traceEvents":[...]}` to `path`.
  bool Write(const std::string& path, std::string* error) const;

 private:
  void Add(int tid, const std::string& name, char ph, std::uint64_t ns);

  std::uint64_t origin_ns_;
  std::string events_;
};

/// Thread id of the replay spans in the Chrome trace.
inline constexpr int kReplayTid = 100;

struct LayerInputs {
  const std::vector<SessionRecord>* sessions = nullptr;  ///< schedule order
  SessionScript script;
  const ImageDatabase* db = nullptr;
  const RfsTree* rfs = nullptr;
  std::string db_path;
  std::string rfs_path;
  /// Wall budget of the per-session replay loop.
  double budget_s = 3.0;
};

/// Replays the traced, completed sessions of `inputs` in schedule order on
/// a server-sized pool and a fresh 64 MiB cache, with the serve layer's
/// sinks installed, and times every layer call: HTTP parse and serialize,
/// JSON parse, the QdSession calls, image render, the empty pool fan-out,
/// the obs renders of the resulting state, and the corpus loads. Returns
/// the per-layer metrics by name; spans go to `trace` on `kReplayTid`.
std::map<std::string, double> ReplayLayers(const LayerInputs& inputs,
                                           TraceWriter* trace);

}  // namespace bench_serve
}  // namespace qdcbir

#endif  // QDCBIR_BENCH_SERVE_LAYERS_H_
