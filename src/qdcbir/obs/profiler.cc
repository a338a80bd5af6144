#include "qdcbir/obs/profiler.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "qdcbir/obs/json.h"
#include "qdcbir/obs/metrics.h"
#include "qdcbir/obs/span_stack.h"
#include "qdcbir/obs/trace_context.h"

#if defined(__linux__)
#include <cxxabi.h>
#include <dlfcn.h>
#include <errno.h>
#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#endif  // __linux__

// Sanitizer builds keep the profiler functional but restrict backtraces to
// the interrupted pc: the frame-pointer walk reads raw stack words, which
// ASan may have poisoned (redzones) and TSan cannot model from a handler.
// Span attribution — the part CI gates on — is unaffected.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QDCBIR_PROFILER_PC_ONLY 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define QDCBIR_PROFILER_PC_ONLY 1
#endif
#endif

namespace qdcbir {
namespace obs {
namespace {

/// Power of two. The slots take 3.75 MiB of address space, resident only
/// where a sample has landed; the mapping is leaked.
constexpr std::size_t kRingSize = 16384;
constexpr std::size_t kSampleWords =
    (sizeof(ProfileSample) + sizeof(std::uint64_t) - 1) /
    sizeof(std::uint64_t);
static_assert(sizeof(ProfileSample) % sizeof(std::uint64_t) == 0,
              "ProfileSample must be word-copyable for the seqlock ring");
static_assert(std::atomic_ref<std::uint64_t>::is_always_lock_free,
              "the SIGPROF handler needs lock-free 64-bit atomics");

/// Seqlock slot, same protocol as QueryLog: version odd while a writer owns
/// the slot, `seq` identifies which write the words belong to. The fields
/// are plain words that every access reaches through `std::atomic_ref`
/// (relaxed for the sample words), so the cross-thread copy is race-free
/// under TSan and nothing stores to a slot before its first sample: the
/// ring's pages stay untouched zero pages until the handler writes them.
struct SampleSlot {
  std::uint64_t version;
  std::uint64_t seq;
  std::uint64_t words[kSampleWords];
};

constexpr std::size_t kRingBytes = kRingSize * sizeof(SampleSlot);

using WordRef = std::atomic_ref<std::uint64_t>;

/// Samples sequenced since process start (written or dropped), and of
/// those the dropped ones.
std::atomic<std::uint64_t> g_head{0};
std::atomic<std::uint64_t> g_dropped{0};
/// The kRingSize slots, an anonymous mapping published with release before
/// any timer is armed; the handler loads it with acquire, so a firing timer
/// always sees the mapping.
std::atomic<SampleSlot*> g_slots{nullptr};

#if defined(__linux__)

struct ThreadEntry {
  pid_t tid = 0;
  clockid_t cpu_clock = 0;
  timer_t timer{};
  bool armed = false;
  std::uintptr_t stack_lo = 0;
  std::uintptr_t stack_hi = 0;
};

/// Raw pointer TLS (constinit: readable from signal context with no guard).
/// Non-null exactly while the thread is registered.
constinit thread_local ThreadEntry* t_entry = nullptr;

struct ProfilerState {
  std::mutex mu;
  std::vector<ThreadEntry*> threads;
  std::atomic<bool> running{false};
  std::atomic<int> hz{0};
  bool handler_installed = false;
};

ProfilerState& State() {
  static ProfilerState* state = new ProfilerState();  // leaked on purpose
  return *state;
}

std::uint32_t CaptureBacktrace(void* ucontext_void, std::uintptr_t* frames,
                               std::uint32_t max_frames) {
  auto* uc = static_cast<ucontext_t*>(ucontext_void);
  std::uintptr_t pc = 0;
  std::uintptr_t fp = 0;
#if defined(__x86_64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
#else
  (void)uc;
#endif
  if (pc == 0) return 0;
  frames[0] = pc;
  std::uint32_t n = 1;
#if !defined(QDCBIR_PROFILER_PC_ONLY)
  const ThreadEntry* entry = t_entry;
  if (entry == nullptr) return n;
  const std::uintptr_t lo = entry->stack_lo;
  const std::uintptr_t hi = entry->stack_hi;
  // Every dereference is bounds-checked against the thread's stack segment
  // before it happens, so a function that repurposed the frame-pointer
  // register truncates the walk instead of faulting.
  while (n < max_frames) {
    if (fp < lo || fp + 2 * sizeof(std::uintptr_t) > hi ||
        (fp & (sizeof(std::uintptr_t) - 1)) != 0) {
      break;
    }
    const std::uintptr_t next_fp =
        reinterpret_cast<const std::uintptr_t*>(fp)[0];
    const std::uintptr_t ret = reinterpret_cast<const std::uintptr_t*>(fp)[1];
    if (ret == 0) break;
    frames[n++] = ret;
    if (next_fp <= fp) break;  // frames must move toward the stack base
    fp = next_fp;
  }
#endif
  return n;
}

/// SIGPROF handler. Constraints: own-thread constinit TLS and lock-free
/// atomics only — no locks, no allocation, no errno-clobbering calls.
void ProfilerSignalHandler(int /*signo*/, siginfo_t* /*info*/,
                           void* ucontext) {
  SampleSlot* slots = g_slots.load(std::memory_order_acquire);
  if (slots == nullptr) return;

  ProfileSample sample;
  sample.num_frames =
      CaptureBacktrace(ucontext, sample.frames, ProfileSample::kMaxFrames);
  const SpanStack& stack = CurrentSpanStack();
  sample.span = stack.Innermost();
  sample.trace_hi = stack.trace_hi;
  sample.trace_lo = stack.trace_lo;
  const ThreadEntry* entry = t_entry;
  sample.tid = entry != nullptr ? static_cast<std::uint32_t>(entry->tid) : 0;

  const std::uint64_t seq = g_head.fetch_add(1, std::memory_order_relaxed);
  SampleSlot& slot = slots[seq % kRingSize];
  const WordRef slot_version(slot.version);
  std::uint64_t version = slot_version.load(std::memory_order_relaxed);
  if ((version & 1) != 0 ||
      !slot_version.compare_exchange_strong(version, version + 1,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed)) {
    // Another thread's handler owns this slot; drop rather than spin.
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::uint64_t words[kSampleWords];
  std::memcpy(words, &sample, sizeof(sample));
  for (std::size_t i = 0; i < kSampleWords; ++i) {
    WordRef(slot.words[i]).store(words[i], std::memory_order_relaxed);
  }
  WordRef(slot.seq).store(seq, std::memory_order_relaxed);
  slot_version.store(version + 2, std::memory_order_release);
}

bool InstallHandlerLocked(ProfilerState& state, std::string* error) {
  if (state.handler_installed) return true;
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = &ProfilerSignalHandler;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) {
    if (error != nullptr) *error = "sigaction(SIGPROF) failed";
    return false;
  }
  state.handler_installed = true;
  return true;
}

bool ArmTimerLocked(ThreadEntry* entry, int hz) {
  if (entry->armed) return true;
  struct sigevent event;
  std::memset(&event, 0, sizeof(event));
  event.sigev_notify = SIGEV_THREAD_ID;
  event.sigev_signo = SIGPROF;
  event.sigev_notify_thread_id = entry->tid;
  if (timer_create(entry->cpu_clock, &event, &entry->timer) != 0) {
    return false;  // thread may be exiting; skip it
  }
  const long interval_ns = 1000000000L / hz;
  struct itimerspec spec;
  spec.it_interval.tv_sec = interval_ns / 1000000000L;
  spec.it_interval.tv_nsec = interval_ns % 1000000000L;
  spec.it_value = spec.it_interval;
  if (timer_settime(entry->timer, 0, &spec, nullptr) != 0) {
    timer_delete(entry->timer);
    return false;
  }
  entry->armed = true;
  return true;
}

void DisarmTimerLocked(ThreadEntry* entry) {
  if (!entry->armed) return;
  timer_delete(entry->timer);
  entry->armed = false;
}

void FillStackBounds(ThreadEntry* entry) {
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  void* stack_addr = nullptr;
  std::size_t stack_size = 0;
  if (pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0) {
    entry->stack_lo = reinterpret_cast<std::uintptr_t>(stack_addr);
    entry->stack_hi = entry->stack_lo + stack_size;
  }
  pthread_attr_destroy(&attr);
}

/// Maps the slots on first use (called under the state mutex). The kernel
/// hands out zero pages, so a slot no sample has reached costs no resident
/// memory; huge pages are declined so residency grows a 4 KiB page at a
/// time. Leaked: handlers may outlive any owner.
bool EnsureRingLocked(std::string* error) {
  if (g_slots.load(std::memory_order_relaxed) != nullptr) return true;
  void* mapping = mmap(nullptr, kRingBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapping == MAP_FAILED) {
    if (error != nullptr) *error = "cannot map the profiler sample ring";
    return false;
  }
  (void)madvise(mapping, kRingBytes, MADV_NOHUGEPAGE);
  g_slots.store(static_cast<SampleSlot*>(mapping), std::memory_order_release);
  return true;
}

#endif  // __linux__

struct ProfilerCounters {
  Counter& collected;
  Counter& dropped_published;
  Gauge& hz_gauge;
  static ProfilerCounters& Get() {
    static ProfilerCounters counters{
        MetricsRegistry::Global().GetCounter(
            "profiler.samples.collected",
            "CPU profile samples drained from the ring"),
        MetricsRegistry::Global().GetCounter(
            "profiler.samples.dropped",
            "CPU profile samples dropped on ring collision"),
        MetricsRegistry::Global().GetGauge(
            "profiler.hz", "Active profiler sampling rate (0 = off)")};
    return counters;
  }
};

std::string SanitizeFrameName(std::string name) {
  // Collapsed format delimits frames with ';' and the count with the last
  // space, so neither may appear inside a frame.
  const std::size_t paren = name.find('(');
  if (paren != std::string::npos && paren > 0) name.resize(paren);
  for (char& c : name) {
    if (c == ';' || c == ' ' || c == '\n' || c == '\t') c = '_';
  }
  if (name.empty()) name = "??";
  return name;
}

std::string SymbolizePc(std::uintptr_t pc, bool is_return_address,
                        std::unordered_map<std::uintptr_t, std::string>*
                            cache) {
  // Return addresses point one past the call; step back one byte so the
  // lookup lands inside the calling function.
  const std::uintptr_t lookup = is_return_address && pc > 0 ? pc - 1 : pc;
  const auto it = cache->find(lookup);
  if (it != cache->end()) return it->second;
  std::string name;
#if defined(__linux__)
  Dl_info info;
  if (dladdr(reinterpret_cast<void*>(lookup), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      name = SanitizeFrameName(demangled);
    } else {
      name = SanitizeFrameName(info.dli_sname);
    }
    std::free(demangled);
  } else if (dladdr(reinterpret_cast<void*>(lookup), &info) != 0 &&
             info.dli_fname != nullptr) {
    const char* base = std::strrchr(info.dli_fname, '/');
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer), "%s+0x%" PRIxPTR,
                  base != nullptr ? base + 1 : info.dli_fname,
                  lookup - reinterpret_cast<std::uintptr_t>(info.dli_fbase));
    name = SanitizeFrameName(buffer);
  }
#endif
  if (name.empty()) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "0x%" PRIxPTR, pc);
    name = buffer;
  }
  (*cache)[lookup] = name;
  return name;
}

}  // namespace

Profiler& Profiler::Global() {
  static Profiler* profiler = new Profiler();  // leaked on purpose
  return *profiler;
}

#if defined(__linux__)

void Profiler::RegisterCurrentThread() {
  if (t_entry != nullptr) return;  // idempotent
  auto* entry = new ThreadEntry();
  entry->tid = static_cast<pid_t>(syscall(SYS_gettid));
  if (pthread_getcpuclockid(pthread_self(), &entry->cpu_clock) != 0) {
    delete entry;
    return;
  }
  FillStackBounds(entry);
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  state.threads.push_back(entry);
  t_entry = entry;
  if (state.running.load(std::memory_order_relaxed)) {
    ArmTimerLocked(entry, state.hz.load(std::memory_order_relaxed));
  }
}

void Profiler::UnregisterCurrentThread() {
  ThreadEntry* entry = t_entry;
  if (entry == nullptr) return;
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  DisarmTimerLocked(entry);
  state.threads.erase(
      std::remove(state.threads.begin(), state.threads.end(), entry),
      state.threads.end());
  t_entry = nullptr;
  delete entry;
}

bool Profiler::Start(const ProfilerOptions& options, std::string* error) {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.running.load(std::memory_order_relaxed)) {
    if (error != nullptr) *error = "profiler already running";
    return false;
  }
  if (!InstallHandlerLocked(state, error)) return false;
  if (!EnsureRingLocked(error)) return false;
  const int hz = std::clamp(options.hz, ProfilerOptions::kMinHz,
                            ProfilerOptions::kMaxHz);
  std::size_t armed = 0;
  for (ThreadEntry* entry : state.threads) {
    if (ArmTimerLocked(entry, hz)) ++armed;
  }
  state.hz.store(hz, std::memory_order_relaxed);
  state.running.store(true, std::memory_order_relaxed);
  ProfilerCounters::Get().hz_gauge.Set(hz);
  (void)armed;
  return true;
}

void Profiler::Stop() {
  ProfilerState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (!state.running.load(std::memory_order_relaxed)) return;
  for (ThreadEntry* entry : state.threads) DisarmTimerLocked(entry);
  state.running.store(false, std::memory_order_relaxed);
  state.hz.store(0, std::memory_order_relaxed);
  ProfilerCounters::Get().hz_gauge.Set(0);
}

bool Profiler::running() const {
  return State().running.load(std::memory_order_relaxed);
}

int Profiler::hz() const { return State().hz.load(std::memory_order_relaxed); }

#else  // !__linux__

void Profiler::RegisterCurrentThread() {}
void Profiler::UnregisterCurrentThread() {}

bool Profiler::Start(const ProfilerOptions&, std::string* error) {
  if (error != nullptr) {
    *error = "sampling profiler requires Linux (timer_create + SIGPROF)";
  }
  return false;
}

void Profiler::Stop() {}
bool Profiler::running() const { return false; }
int Profiler::hz() const { return 0; }

#endif  // __linux__

std::uint64_t Profiler::SampleCursor() const {
  return g_head.load(std::memory_order_acquire);
}

std::uint64_t Profiler::dropped() const {
  return g_dropped.load(std::memory_order_relaxed);
}

Profiler::RingMapping Profiler::Ring() {
  return {g_slots.load(std::memory_order_acquire), kRingBytes,
          sizeof(SampleSlot)};
}

std::vector<ProfileSample> Profiler::CollectSince(
    std::uint64_t cursor) const {
  std::vector<ProfileSample> samples;
  SampleSlot* slots = g_slots.load(std::memory_order_acquire);
  if (slots == nullptr) return samples;
  const std::uint64_t head = g_head.load(std::memory_order_acquire);
  std::uint64_t begin = cursor;
  if (head > kRingSize && begin < head - kRingSize) {
    begin = head - kRingSize;  // older slots have been overwritten
  }
  samples.reserve(static_cast<std::size_t>(head - begin));
  for (std::uint64_t seq = begin; seq < head; ++seq) {
    SampleSlot& slot = slots[seq % kRingSize];
    const WordRef slot_version(slot.version);
    const std::uint64_t v1 = slot_version.load(std::memory_order_acquire);
    if ((v1 & 1) != 0) continue;  // writer mid-flight
    std::uint64_t words[kSampleWords];
    for (std::size_t i = 0; i < kSampleWords; ++i) {
      words[i] = WordRef(slot.words[i]).load(std::memory_order_relaxed);
    }
    const std::uint64_t slot_seq =
        WordRef(slot.seq).load(std::memory_order_relaxed);
    const std::uint64_t v2 = slot_version.load(std::memory_order_acquire);
    if (v1 != v2 || slot_seq != seq) continue;  // torn or recycled
    ProfileSample sample;
    std::memcpy(&sample, words, sizeof(sample));
    if (sample.num_frames > ProfileSample::kMaxFrames) continue;  // corrupt
    samples.push_back(sample);
  }
  ProfilerCounters::Get().collected.Add(samples.size());
  const std::uint64_t drops = g_dropped.load(std::memory_order_relaxed);
  Counter& published = ProfilerCounters::Get().dropped_published;
  const std::uint64_t already = static_cast<std::uint64_t>(published.Value());
  if (drops > already) published.Add(drops - already);
  return samples;
}

namespace {

/// Samples folded into collapsed stacks — the span root, then the frames
/// root-first — with their counts.
std::map<std::string, std::uint64_t> CollapseStacks(
    const std::vector<ProfileSample>& samples) {
  std::unordered_map<std::uintptr_t, std::string> symbol_cache;
  std::map<std::string, std::uint64_t> stacks;
  for (const ProfileSample& sample : samples) {
    std::string line =
        sample.span != nullptr ? SanitizeFrameName(sample.span) : "(no-span)";
    // Frames are captured innermost-first.
    for (std::uint32_t i = sample.num_frames; i > 0; --i) {
      line.push_back(';');
      line += SymbolizePc(sample.frames[i - 1], /*is_return_address=*/i > 1,
                          &symbol_cache);
    }
    ++stacks[line];
  }
  return stacks;
}

}  // namespace

std::string Profiler::RenderCollapsed(
    const std::vector<ProfileSample>& samples) {
  std::string out;
  for (const auto& [stack, count] : CollapseStacks(samples)) {
    out += stack;
    out.push_back(' ');
    out += std::to_string(count);
    out.push_back('\n');
  }
  return out;
}

std::string Profiler::RenderJson(const std::vector<ProfileSample>& samples,
                                 int hz, double seconds,
                                 std::uint64_t dropped) {
  std::map<std::string, std::uint64_t> span_totals;
  std::map<std::string, std::uint64_t> trace_totals;
  for (const ProfileSample& sample : samples) {
    ++span_totals[sample.span != nullptr ? sample.span : "(no-span)"];
    if ((sample.trace_hi | sample.trace_lo) != 0) {
      ++trace_totals[TraceIdHex(sample.trace_hi, sample.trace_lo)];
    }
  }
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("hz").Int(hz);
  w.Key("seconds").Double(seconds, "%.3f");
  w.Key("samples").Uint(samples.size());
  w.Key("dropped").Uint(dropped);
  w.Key("spans").BeginObject();
  for (const auto& [span, count] : span_totals) w.Key(span).Uint(count);
  w.EndObject();
  w.Key("traces").BeginObject();
  for (const auto& [trace, count] : trace_totals) w.Key(trace).Uint(count);
  w.EndObject();
  // Top stacks by weight, collapsed-rendered for readability.
  const std::map<std::string, std::uint64_t> stacks = CollapseStacks(samples);
  std::vector<std::pair<std::string, std::uint64_t>> ranked(stacks.begin(),
                                                            stacks.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  constexpr std::size_t kMaxStacks = 200;
  if (ranked.size() > kMaxStacks) ranked.resize(kMaxStacks);
  w.Key("stacks").BeginArray();
  for (const auto& [stack, count] : ranked) {
    w.BeginObject();
    w.Key("stack").String(stack);
    w.Key("count").Uint(count);
    w.EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

}  // namespace obs
}  // namespace qdcbir
