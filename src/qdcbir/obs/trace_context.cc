#include "qdcbir/obs/trace_context.h"

#include <atomic>
#include <cstdio>

#include "qdcbir/obs/clock.h"

namespace qdcbir {
namespace obs {

namespace {

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;  // uppercase is invalid per the W3C spec
}

/// Parses exactly `digits` lowercase hex characters into `*out`.
bool ParseHexField(std::string_view text, std::size_t digits,
                   std::uint64_t* out) {
  if (text.size() < digits) return false;
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < digits; ++i) {
    const int nibble = HexNibble(text[i]);
    if (nibble < 0) return false;
    value = (value << 4) | static_cast<std::uint64_t>(nibble);
  }
  *out = value;
  return true;
}

void AppendHex(std::string* out, std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  *out += buf;
}

}  // namespace

TraceContext& MutableCurrentTraceContext() {
  thread_local TraceContext context;
  return context;
}

TraceContext NewTraceContext() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t tick = counter.fetch_add(1, std::memory_order_relaxed);
  TraceContext context;
  context.trace_hi = SplitMix64(tick ^ MonotonicNanos());
  context.trace_lo = SplitMix64(context.trace_hi ^ (tick << 32) ^ 0xa5a5ULL);
  if (!context.has_trace_id()) context.trace_lo = 1;  // spec forbids all-zero
  return context;
}

bool ParseTraceparent(std::string_view header, TraceContext* out) {
  // version "00": 2 + 1 + 32 + 1 + 16 + 1 + 2 = 55 bytes exactly.
  if (header.size() != 55) return false;
  if (header[0] != '0' || header[1] != '0') return false;
  if (header[2] != '-' || header[35] != '-' || header[52] != '-') return false;
  std::uint64_t hi = 0, lo = 0, parent = 0, flags = 0;
  if (!ParseHexField(header.substr(3), 16, &hi)) return false;
  if (!ParseHexField(header.substr(19), 16, &lo)) return false;
  if (!ParseHexField(header.substr(36), 16, &parent)) return false;
  if (!ParseHexField(header.substr(53), 2, &flags)) return false;
  if ((hi | lo) == 0 || parent == 0) return false;
  out->trace_hi = hi;
  out->trace_lo = lo;
  out->span_id = parent;
  out->buffer = nullptr;
  return true;
}

std::string FormatTraceparent(const TraceContext& context) {
  std::string out = "00-";
  out.reserve(55);
  AppendHex(&out, context.trace_hi);
  AppendHex(&out, context.trace_lo);
  out.push_back('-');
  AppendHex(&out, context.span_id != 0 ? context.span_id : 1);
  out += "-01";
  return out;
}

std::string TraceIdHex(std::uint64_t trace_hi, std::uint64_t trace_lo) {
  if ((trace_hi | trace_lo) == 0) return "";
  std::string out;
  out.reserve(32);
  AppendHex(&out, trace_hi);
  AppendHex(&out, trace_lo);
  return out;
}

std::string TraceIdHex(const TraceContext& context) {
  return TraceIdHex(context.trace_hi, context.trace_lo);
}

}  // namespace obs
}  // namespace qdcbir
