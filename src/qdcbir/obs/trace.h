#ifndef QDCBIR_OBS_TRACE_H_
#define QDCBIR_OBS_TRACE_H_

#include <cstddef>
#include <map>
#include <string>

namespace qdcbir {
namespace obs {

/// Structural validation of a Chrome trace JSON document (such as
/// bench_serve's client-side trace): a `traceEvents` array of flat objects,
/// every event carrying name/ph/ts/tid, "B"/"E" pairs balanced and
/// well-nested per thread, timestamps non-decreasing per thread. On
/// success, fills `begin_counts` (if non-null) with the number of "B"
/// events per span name. Returns false and sets `error` on the first
/// violation.
bool ValidateChromeTrace(const std::string& json, std::string* error,
                         std::map<std::string, std::size_t>* begin_counts);

}  // namespace obs
}  // namespace qdcbir

#endif  // QDCBIR_OBS_TRACE_H_
