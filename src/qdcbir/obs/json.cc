#include "qdcbir/obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace qdcbir {
namespace obs {

namespace {

/// The one JSON string escaper: `s` quoted, with `"`, `\`, `\n`, `\r` and
/// `\t` backslash-escaped and every other byte below 0x20 as `\u00XX`.
void AppendQuoted(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        *out += "\\u00";
        out->push_back(kHex[c >> 4]);
        out->push_back(kHex[c & 0xf]);
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

/// Length of the well-formed UTF-8 sequence (RFC 3629) that starts `s`, or
/// 0 when `s` is empty or starts with anything else: a stray continuation
/// byte, an overlong form, a surrogate or a code point above U+10FFFF.
std::size_t Utf8SequenceLength(std::string_view s) {
  const auto byte = [s](std::size_t i) -> unsigned {
    return i < s.size() ? static_cast<unsigned char>(s[i]) : 0u;
  };
  const unsigned lead = byte(0);
  if (lead < 0x80) return s.empty() ? 0 : 1;
  std::size_t length = 0;
  unsigned low = 0x80;  // bounds of the second byte
  unsigned high = 0xBF;
  if (lead >= 0xC2 && lead <= 0xDF) {
    length = 2;
  } else if (lead >= 0xE0 && lead <= 0xEF) {
    length = 3;
    if (lead == 0xE0) low = 0xA0;
    if (lead == 0xED) high = 0x9F;
  } else if (lead >= 0xF0 && lead <= 0xF4) {
    length = 4;
    if (lead == 0xF0) low = 0x90;
    if (lead == 0xF4) high = 0x8F;
  } else {
    return 0;
  }
  if (byte(1) < low || byte(1) > high) return 0;
  for (std::size_t i = 2; i < length; ++i) {
    if (byte(i) < 0x80 || byte(i) > 0xBF) return 0;
  }
  return length;
}

void AppendUtf8(std::string* out, unsigned code) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code >> 6)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else if (code < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (code >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (code >> 18)));
    out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

constexpr int kMaxDepth = 32;

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipWhitespace();
    if (!ParseValue(out, 0)) return false;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing bytes after JSON document");
    }
    return true;
  }

 private:
  bool Error(const char* message) const {
    *error_ = std::string("json: ") + message + " at byte " +
              std::to_string(pos_);
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string);
    }
    if (ConsumeLiteral("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (ConsumeLiteral("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return true;
    }
    if (ConsumeLiteral("null")) {
      out->kind = JsonValue::Kind::kNull;
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) return true;
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->fields.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return true;
      return Error("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) return true;
    for (;;) {
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->items.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return true;
      return Error("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (static_cast<unsigned char>(c) >= 0x80) {
        const std::size_t n = Utf8SequenceLength(text_.substr(pos_ - 1));
        if (n == 0) return Error("invalid UTF-8 in string");
        out->append(text_.substr(pos_ - 1, n));
        pos_ += n - 1;
        continue;
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          if (!ParseHex4(&code)) return false;
          // A code point above the BMP arrives as a high surrogate escape
          // followed by a low one; either half alone is not text.
          if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("lone surrogate in \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            unsigned low = 0;
            if (!ConsumeLiteral("\\u")) {
              return Error("lone surrogate in \\u escape");
            }
            if (!ParseHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("lone surrogate in \\u escape");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          AppendUtf8(out, code);
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
    return Error("unterminated string");
  }

  /// The four hex digits of a `\u` escape.
  bool ParseHex4(unsigned* code) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    *code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      *code <<= 4;
      if (h >= '0' && h <= '9') {
        *code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        *code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        *code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return Error("bad \\u escape");
      }
    }
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t begin = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == begin) return Error("expected a value");
    const std::string token(text_.substr(begin, pos_ - begin));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("bad number");
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    return true;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

void JsonWriter::Separate() {
  if (need_comma_) out_->push_back(',');
  need_comma_ = true;
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_->push_back('{');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_->push_back('}');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_->push_back('[');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_->push_back(']');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Separate();
  AppendQuoted(out_, key);
  out_->push_back(':');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  Separate();
  AppendQuoted(out_, value);
  return *this;
}

JsonWriter& JsonWriter::Uint(std::uint64_t value) {
  Separate();
  char buffer[20];
  out_->append(buffer, std::to_chars(buffer, buffer + 20, value).ptr);
  return *this;
}

JsonWriter& JsonWriter::Int(std::int64_t value) {
  Separate();
  char buffer[20];
  out_->append(buffer, std::to_chars(buffer, buffer + 20, value).ptr);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  Separate();
  *out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Double(double value, const char* format) {
  Separate();
  if (!std::isfinite(value)) {
    *out_ += "null";
    return *this;
  }
  char buffer[32];
  const int n = std::snprintf(buffer, sizeof(buffer), format, value);
  if (n < static_cast<int>(sizeof(buffer))) {
    out_->append(buffer, static_cast<std::size_t>(n));
  } else {
    // Wide fixed-point renderings ("%.3f" of 1e300) take a second pass.
    const std::size_t at = out_->size();
    out_->resize(at + static_cast<std::size_t>(n) + 1);
    std::snprintf(out_->data() + at, static_cast<std::size_t>(n) + 1, format,
                  value);
    out_->resize(at + static_cast<std::size_t>(n));
  }
  return *this;
}

JsonWriter& JsonWriter::Number(double value, const char* format) {
  if (value > -9.2e18 && value < 9.2e18 && value == std::trunc(value)) {
    return Int(static_cast<std::int64_t>(value));
  }
  return Double(value, format);
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  Separate();
  out_->append(json);
  return *this;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : fields) {
    if (name == key) return &value;
  }
  return nullptr;
}

bool JsonValue::ToUint(std::uint64_t max, std::uint64_t* out) const {
  if (!is_number() || !(number >= 0.0) ||
      number > static_cast<double>(max) || number != std::floor(number)) {
    return false;
  }
  *out = static_cast<std::uint64_t>(number);
  return true;
}

std::uint64_t JsonValue::U64Field(std::string_view key,
                                  std::uint64_t fallback) const {
  const JsonValue* value = Find(key);
  std::uint64_t out = fallback;
  if (value != nullptr) value->ToUint(kMaxJsonInteger, &out);
  return out;
}

bool IsUtf8(std::string_view text) {
  while (!text.empty()) {
    const std::size_t n = Utf8SequenceLength(text);
    if (n == 0) return false;
    text.remove_prefix(n);
  }
  return true;
}

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  *out = JsonValue();
  return Parser(text, error).Parse(out);
}

}  // namespace obs
}  // namespace qdcbir
