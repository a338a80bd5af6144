#ifndef QDCBIR_OBS_JSON_H_
#define QDCBIR_OBS_JSON_H_

/// \file
/// The repository's one JSON writer and one JSON reader. Every document the
/// admin server, the tools and the benches render goes through `JsonWriter`
/// (and so through its one string escaper); every document they read back
/// goes through `ParseJson`. Standard library only, so every layer can use
/// it.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qdcbir {
namespace obs {

/// Streams one JSON document into a caller-owned string. It places the
/// commas itself, so callers only say what comes next:
///
///   JsonWriter w(&out);
///   w.BeginObject();
///   w.Key("n").Uint(3);
///   w.Key("ids").BeginArray();
///   for (id : ids) w.Uint(id);
///   w.EndArray();
///   w.EndObject();
///
/// Strings are escaped as `\"`, `\\`, `\n`, `\r`, `\t` and `\u00XX` for the
/// other bytes below 0x20; every other byte passes through. There is no
/// DOM and no validation: the caller keeps keys and values paired.
class JsonWriter {
 public:
  /// Appends to `*out`, which must outlive the writer.
  explicit JsonWriter(std::string* out) : out_(out) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Uint(std::uint64_t value);
  JsonWriter& Int(std::int64_t value);
  JsonWriter& Bool(bool value);
  /// `value` printed with a printf conversion such as "%.9g"; null when it
  /// is not finite.
  JsonWriter& Double(double value, const char* format);
  /// An integral `value` that fits an int64 prints as an integer, anything
  /// else as `Double(value, format)`. The range is checked before the cast.
  JsonWriter& Number(double value, const char* format);
  /// A value that is already JSON text, copied verbatim.
  JsonWriter& Raw(std::string_view json);

 private:
  /// Writes the comma that separates this value from the previous one.
  void Separate();

  std::string* out_;
  bool need_comma_ = false;
};

/// Largest integer a request may carry in a count, seed or session id:
/// 2^53, the end of the range in which a double holds every integer.
inline constexpr std::uint64_t kMaxJsonInteger = std::uint64_t{1} << 53;

/// A parsed JSON document. Covers all of RFC 8259 except that numbers are
/// held as doubles (ids and seeds fit a double's 53-bit integer range).
/// Strings hold UTF-8: a `\u` surrogate pair decodes to its one code point,
/// and a lone surrogate or raw bytes that are not UTF-8 fail the parse.
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
  bool is_string() const { return kind == Kind::kString; }
};

/// True when `text` is well-formed UTF-8 (RFC 3629): no stray continuation
/// bytes, overlong forms, surrogates or code points above U+10FFFF.
bool IsUtf8(std::string_view text);

/// Parses one JSON document (with optional surrounding whitespace) into
/// `*out`. Trailing non-whitespace bytes are an error. On failure returns
/// false and sets `*error` to "json: <what> at byte <offset>".
bool ParseJson(std::string_view text, JsonValue* out, std::string* error);

}  // namespace obs
}  // namespace qdcbir

#endif  // QDCBIR_OBS_JSON_H_
