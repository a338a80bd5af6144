#ifndef QDCBIR_BENCH_SERVE_SERVER_PROCESS_H_
#define QDCBIR_BENCH_SERVE_SERVER_PROCESS_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

namespace qdcbir {
namespace bench_serve {

/// A `qdcbir_tool serve` child process. The server binds an ephemeral
/// port and announces it on stdout ("listening on 127.0.0.1:PORT ..."),
/// which the parent reads through a pipe; stderr goes to a log file.
/// Destruction stops the child (SIGTERM, then SIGKILL) and reaps it.
class ServerProcess {
 public:
  /// Spawns `binary serve <args...>` and waits for the port line. Returns
  /// null with `*error` set when the child cannot start.
  static std::unique_ptr<ServerProcess> Spawn(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_path, std::string* error);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Polls `/readyz` every 200 us until it answers 200.
  bool WaitReady(double timeout_s, std::string* error);

  int port() const { return port_; }

  /// On-CPU time of the server's live threads so far, in seconds.
  double CpuSeconds() const;
  /// Peak resident set (VmHWM) in MiB.
  double PeakRssMb() const;

  /// SIGTERM and reap; true when the server exited with status 0.
  bool Stop();

 private:
  ServerProcess() = default;

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

}  // namespace bench_serve
}  // namespace qdcbir

#endif  // QDCBIR_BENCH_SERVE_SERVER_PROCESS_H_
