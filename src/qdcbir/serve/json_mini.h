#ifndef QDCBIR_SERVE_JSON_MINI_H_
#define QDCBIR_SERVE_JSON_MINI_H_

#include <string>
#include <string_view>

#include "qdcbir/core/status.h"
#include "qdcbir/obs/json.h"

namespace qdcbir {
namespace serve {

/// The admin server's request-body reader is the repository's one JSON
/// reader (obs/json.h); these names keep the serve-layer spelling.
using obs::kMaxJsonInteger;
using JsonValue = obs::JsonValue;

/// Parses one JSON document (with optional surrounding whitespace).
/// Trailing non-whitespace bytes are an error (InvalidArgument).
inline StatusOr<JsonValue> ParseJson(std::string_view text) {
  JsonValue value;
  std::string error;
  if (!obs::ParseJson(text, &value, &error)) {
    return Status::InvalidArgument(error);
  }
  return value;
}

}  // namespace serve
}  // namespace qdcbir

#endif  // QDCBIR_SERVE_JSON_MINI_H_
