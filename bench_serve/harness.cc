#include "harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <mutex>
#include <thread>

#include "qdcbir/core/rng.h"

namespace qdcbir {
namespace bench_serve {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (index >= samples.size()) index = samples.size() - 1;
  return samples[index];
}

bool PercentileSupported(std::size_t n, double q) {
  // The epsilon keeps 1000 samples at p99 (9.999... in floating point)
  // supported.
  return static_cast<double>(n) * (1.0 - q) + 1e-9 >=
         static_cast<double>(kMinTailSamples);
}

double WindowedQuantile(const std::vector<TimedSample>& samples,
                        double duration, double q) {
  constexpr std::size_t kSamplesPerWindow = 100;
  constexpr std::size_t kMaxWindows = 10;
  const std::size_t windows = std::clamp<std::size_t>(
      samples.size() / kSamplesPerWindow, 1, kMaxWindows);
  std::vector<std::vector<double>> slices(windows);
  for (const TimedSample& sample : samples) {
    double slot = duration > 0.0 ? sample.at / duration : 0.0;
    slot = std::clamp(slot, 0.0, 1.0) * static_cast<double>(windows);
    const std::size_t index =
        std::min(static_cast<std::size_t>(slot), windows - 1);
    slices[index].push_back(sample.value);
  }
  std::vector<double> per_window;
  for (std::vector<double>& slice : slices) {
    if (!slice.empty()) per_window.push_back(Quantile(std::move(slice), q));
  }
  return Quantile(std::move(per_window), 0.5);
}

std::vector<double> PoissonSchedule(std::uint64_t seed, double rate_per_s,
                                    double duration_s) {
  std::vector<double> due;
  if (rate_per_s <= 0.0) return due;
  Rng rng(seed);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.UniformDouble()) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

OpenLoopResult RunOpenLoop(
    const std::vector<double>& due, std::size_t workers, double deadline_s,
    const std::function<void(std::size_t index, std::size_t worker)>& job) {
  using Clock = std::chrono::steady_clock;
  OpenLoopResult result;
  result.jobs.resize(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) result.jobs[i].due = due[i];

  std::atomic<std::size_t> next{0};
  std::mutex mu;
  double max_lateness = 0.0;
  std::exception_ptr failure;
  const Clock::time_point start = Clock::now();
  const auto now_s = [start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  const auto loop = [&](std::size_t worker) {
    double lateness = 0.0;
    try {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= due.size()) break;
        const double t = now_s();
        if (t > deadline_s) continue;
        const bool waited = t < due[i];
        if (waited) {
          std::this_thread::sleep_until(
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(due[i])));
        }
        JobTiming& timing = result.jobs[i];
        timing.start = now_s();
        if (waited) lateness = std::max(lateness, timing.start - due[i]);
        job(i, worker);
        timing.end = now_s();
        timing.ran = true;
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!failure) failure = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu);
    max_lateness = std::max(max_lateness, lateness);
  };

  std::vector<std::thread> threads;
  for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(loop, w);
  loop(0);
  for (std::thread& thread : threads) thread.join();
  if (failure) std::rethrow_exception(failure);
  result.max_lateness = max_lateness;
  return result;
}

namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const char x = a[i] >= 'A' && a[i] <= 'Z' ? a[i] - 'A' + 'a' : a[i];
    const char y = b[i] >= 'A' && b[i] <= 'Z' ? b[i] - 'A' + 'a' : b[i];
    if (x != y) return false;
  }
  return true;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

constexpr std::size_t kMaxHeaderBytes = 64 * 1024;

}  // namespace

FrameStatus FrameResponse(std::string_view buffer, HttpReply* out,
                          std::size_t* consumed) {
  const std::size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    return buffer.size() > kMaxHeaderBytes ? FrameStatus::kBad
                                           : FrameStatus::kIncomplete;
  }
  const std::string_view head = buffer.substr(0, header_end);
  std::size_t line_end = head.find("\r\n");
  if (line_end == std::string_view::npos) line_end = head.size();
  const std::string_view status_line = head.substr(0, line_end);
  if (status_line.size() < 12 || status_line.substr(0, 5) != "HTTP/") {
    return FrameStatus::kBad;
  }
  const std::size_t space = status_line.find(' ');
  if (space == std::string_view::npos || space + 4 > status_line.size()) {
    return FrameStatus::kBad;
  }
  int status = 0;
  for (std::size_t i = space + 1; i < space + 4; ++i) {
    const char c = status_line[i];
    if (c < '0' || c > '9') return FrameStatus::kBad;
    status = status * 10 + (c - '0');
  }

  HttpReply reply;
  reply.status = status;
  bool have_length = false;
  std::size_t length = 0;
  std::size_t pos = line_end;
  while (pos < head.size()) {
    pos += 2;  // skip "\r\n"
    std::size_t next = head.find("\r\n", pos);
    if (next == std::string_view::npos) next = head.size();
    const std::string_view line = head.substr(pos, next - pos);
    pos = next;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return FrameStatus::kBad;
    const std::string_view name = line.substr(0, colon);
    const std::string_view value = Trim(line.substr(colon + 1));
    if (EqualsIgnoreCase(name, "content-length")) {
      if (value.empty() || value.size() > 12) return FrameStatus::kBad;
      length = 0;
      for (const char c : value) {
        if (c < '0' || c > '9') return FrameStatus::kBad;
        length = length * 10 + static_cast<std::size_t>(c - '0');
      }
      have_length = true;
    } else if (EqualsIgnoreCase(name, "content-type")) {
      reply.content_type = std::string(value);
    } else if (EqualsIgnoreCase(name, "traceparent")) {
      reply.traceparent = std::string(value);
    }
  }
  if (!have_length) return FrameStatus::kBad;
  const std::size_t total = header_end + 4 + length;
  if (buffer.size() < total) return FrameStatus::kIncomplete;
  reply.body = std::string(buffer.substr(header_end + 4, length));
  reply.wire_bytes = total;
  *out = std::move(reply);
  *consumed = total;
  return FrameStatus::kComplete;
}

std::string BuildRequest(std::string_view method, std::string_view target,
                         std::string_view body, std::string_view traceparent) {
  std::string out;
  out.reserve(128 + body.size());
  out.append(method).append(" ").append(target).append(" HTTP/1.1\r\n");
  out += "Host: 127.0.0.1\r\n";
  if (!body.empty()) out += "Content-Type: application/json\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  if (!traceparent.empty()) {
    out.append("traceparent: ").append(traceparent).append("\r\n");
  }
  out += "\r\n";
  out.append(body);
  return out;
}

}  // namespace bench_serve
}  // namespace qdcbir
