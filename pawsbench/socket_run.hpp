// The untraced socket run: pawsd as a child process, driven by closed-loop
// clients over TCP. Every end-to-end metric comes from here.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "workload.hpp"

namespace pawsbench {

/// Supervises one pawsd child: spawn, wait for its `listening on` line,
/// read its peak RSS, SIGTERM it. Restartable, the way a supervisor would
/// bring a crashed daemon back.
class DaemonProcess {
 public:
  DaemonProcess(std::string path, std::vector<std::string> args)
      : path_(std::move(path)), args_(std::move(args)) {}
  ~DaemonProcess() { stop(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Spawns pawsd and blocks until it announces its address. Returns the
  /// seconds from spawn to that line, or a negative value (with *error).
  double start(std::string* error);
  /// False once the child has exited (reaps it).
  bool running();
  /// Waits up to `timeoutMs` for the child to exit on its own.
  bool waitExit(int timeoutMs);
  /// VmHWM of the running child, in kB (0 when unreadable).
  [[nodiscard]] long peakRssKb() const;
  /// SIGTERM, then wait (SIGKILL after 10 s). Safe when not running.
  void stop();
  [[nodiscard]] const std::string& address() const { return address_; }

 private:
  void closePipe();

  std::string path_;
  std::vector<std::string> args_;
  pid_t pid_ = -1;
  int out_ = -1;
  std::string address_;
};

/// One request's fate as the client saw it.
struct Answer {
  std::string id;
  std::size_t client = 0;
  /// Stream position (pass workloads) or the client's request index.
  std::size_t index = 0;
  std::size_t item = 0;
  std::string problemKey;
  /// ok | budget | deadline | anytime | infeasible | invalid | overloaded
  /// | cancelled | error, or no_response when nothing came back.
  std::string outcome;
  std::string digest;
  /// Kept only for the first (problemKey, digest) a client sees.
  std::string scheduleText;
  std::int64_t energyMwt = 0;
  std::int64_t serviceUs = 0;
  double latencyUs = 0;
};

/// Pass workloads run at least this many whole passes.
inline constexpr std::size_t kMinPasses = 3;

struct SocketConfig {
  std::string pawsd;
  double seconds = 10;
  std::size_t cacheCapacity = 0;
};

struct SocketResult {
  bool ok = false;
  std::string error;
  /// Spawn -> listening (+ warm-up) of each set-up, seconds.
  std::vector<double> setups;
  std::vector<Answer> warmup;
  std::vector<Answer> answers;
  /// Per-client sum of request latencies, seconds.
  std::vector<double> busySeconds;
  double elapsedSeconds = 0;
  std::size_t passes = 0;
  std::size_t restarts = 0;
  long peakRssKb = 0;
  /// Daemon counters scraped after warm-up and after the last response
  /// (OpenMetrics names without the `paws_` prefix / `_total` suffix).
  std::map<std::string, double> scrapeBefore;
  std::map<std::string, double> scrapeAfter;
};

SocketResult runSocket(const Workload& workload, const SocketConfig& config);

}  // namespace pawsbench
