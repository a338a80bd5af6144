#ifndef QDCBIR_SERVE_JSON_MINI_H_
#define QDCBIR_SERVE_JSON_MINI_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "qdcbir/core/status.h"

namespace qdcbir {
namespace serve {

/// Largest integer a request may carry in a count, seed or session id:
/// 2^53, the end of the range in which a double holds every integer.
inline constexpr std::uint64_t kMaxJsonInteger = std::uint64_t{1} << 53;

/// A minimal JSON document model for the admin server's request bodies.
/// Covers all of RFC 8259 except that numbers are held as doubles (the
/// API's ids and seeds fit a double's 53-bit integer range). Not a
/// general-purpose JSON library — no streaming, no comments, inputs are
/// bounded by the HTTP body limit.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;                           ///< kArray
  std::vector<std::pair<std::string, JsonValue>> fields;  ///< kObject

  /// First field with the given key (objects preserve insertion order);
  /// nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// The one checked number-to-integer conversion: true, with `*out` set,
  /// when this is a number with no fractional part in [0, max]; false, with
  /// `*out` untouched, for anything else. The range is checked on the
  /// double, so no value reaches an out-of-range cast. `max` must be at
  /// most kMaxJsonInteger.
  bool ToUint(std::uint64_t max, std::uint64_t* out) const;

  /// The field as an integer in [0, kMaxJsonInteger], or `fallback` when
  /// the field is absent or holds anything else.
  std::uint64_t U64Field(std::string_view key, std::uint64_t fallback) const;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
};

/// Parses one JSON document (with optional surrounding whitespace).
/// Trailing non-whitespace bytes are an error.
StatusOr<JsonValue> ParseJson(std::string_view text);

/// `s` as a quoted, escaped JSON string literal.
std::string JsonQuote(std::string_view s);

}  // namespace serve
}  // namespace qdcbir

#endif  // QDCBIR_SERVE_JSON_MINI_H_
