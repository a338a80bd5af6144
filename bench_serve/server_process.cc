#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "http_client.h"

extern char** environ;

namespace qdcbir {
namespace bench_serve {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

std::unique_ptr<ServerProcess> ServerProcess::Spawn(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_path, std::string* error) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<std::string> argv_storage = {binary, "serve"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  std::unique_ptr<ServerProcess> process(new ServerProcess());
  const int rc = ::posix_spawn(&process->pid_, binary.c_str(), &actions,
                               nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    process->pid_ = -1;
    *error = "cannot spawn " + binary + ": " + std::strerror(rc);
    return nullptr;
  }
  process->stdout_fd_ = fds[0];

  // The first stdout line names the bound port.
  std::string line;
  const auto start = std::chrono::steady_clock::now();
  while (line.find('\n') == std::string::npos) {
    const double left_ms = 10000.0 - SecondsSince(start) * 1000.0;
    pollfd pfd{process->stdout_fd_, POLLIN, 0};
    if (left_ms <= 0 || ::poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) {
      *error = "server printed no port line";
      return nullptr;
    }
    char chunk[256];
    const ssize_t n = ::read(process->stdout_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = "server exited before listening (see " + log_path + ")";
      return nullptr;
    }
    line.append(chunk, static_cast<std::size_t>(n));
  }
  const std::size_t colon = line.find(':');
  if (line.rfind("listening on ", 0) != 0 || colon == std::string::npos) {
    *error = "unexpected server banner: " + line;
    return nullptr;
  }
  process->port_ = std::atoi(line.c_str() + colon + 1);
  if (process->port_ <= 0) {
    *error = "bad port in banner: " + line;
    return nullptr;
  }
  return process;
}

ServerProcess::~ServerProcess() { Stop(); }

bool ServerProcess::WaitReady(double timeout_s, std::string* error) {
  const auto start = std::chrono::steady_clock::now();
  const std::string probe = BuildRequest("GET", "/readyz", "", "");
  std::string last = "no answer";
  // One keep-alive connection for all probes; it is closed on return, so
  // it holds a connection lane only while the server loads.
  HttpConnection connection;
  while (SecondsSince(start) < timeout_s) {
    HttpReply reply;
    if ((connection.connected() || connection.Connect(port_, 1000, &last)) &&
        connection.Exchange(probe, &reply, &last)) {
      if (reply.status == 200) return true;
      last = reply.body;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  *error = "server not ready: " + last;
  return false;
}

double ServerProcess::CpuSeconds() const {
  // The first schedstat field is the thread's on-CPU time in nanoseconds;
  // utime/stime in /proc/<pid>/stat count 10 ms ticks, too coarse for the
  // per-window ratios. The server's threads live from start to Stop, so the
  // sum over live threads covers the measured phase.
  std::uint64_t total_ns = 0;
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid_) + "/task", ec)) {
    std::ifstream in(task.path() / "schedstat");
    std::uint64_t ns = 0;
    if (in >> ns) total_ns += ns;
  }
  return static_cast<double>(total_ns) / 1e9;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool ServerProcess::Stop() {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto start = std::chrono::steady_clock::now();
  pid_t reaped = 0;
  while ((reaped = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         SecondsSince(start) < 20.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool clean =
      reaped > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (reaped == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  return clean;
}

}  // namespace bench_serve
}  // namespace qdcbir
