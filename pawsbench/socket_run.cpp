#include "socket_run.hpp"

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "serve/client.hpp"

extern char** environ;

namespace pawsbench {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 11;
/// Client-side wait for one answer; nothing in the workloads comes close.
constexpr std::int64_t kReadTimeoutMs = 30000;
/// A pass workload stops at the first pass boundary after the run length,
/// but never later than this past it.
constexpr double kMaxOvershootSeconds = 60;

Answer answerFor(const Request& r, std::size_t client, std::size_t index) {
  Answer a;
  a.id = r.id;
  a.client = client;
  a.index = index;
  a.item = r.item;
  a.problemKey = r.problemKey;
  return a;
}

void fill(Answer& a, const paws::serve::Response& resp) {
  a.outcome = resp.outcome;
  a.digest = resp.scheduleDigest;
  a.scheduleText = resp.scheduleText;
  a.energyMwt = resp.energyCostMwt;
  a.serviceUs = resp.serviceUs;
}

/// OpenMetrics text -> {"cache.hits": 12, ...} for counters and gauges.
std::map<std::string, double> parseScrape(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' ||
        line.find('{') != std::string::npos) {
      continue;
    }
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    std::string name = line.substr(0, space);
    if (name.rfind("paws_", 0) != 0) continue;
    name = name.substr(5);
    if (name.size() > 6 && name.compare(name.size() - 6, 6, "_total") == 0) {
      name.resize(name.size() - 6);
    }
    out[name] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

bool scrape(const std::string& address, std::map<std::string, double>& out) {
  paws::serve::Client client;
  std::string text;
  if (!client.connect(address) || !client.sendMetricsRequest() ||
      !client.readMetrics(text, kReadTimeoutMs)) {
    return false;
  }
  out = parseScrape(text);
  return true;
}


/// Pins the calling thread, and so pawsd and the client threads started
/// after it, to the first two CPUs it may run on; restores the old mask on
/// destruction. pawsd runs two solver threads, so two CPUs carry the load,
/// and a request's thread hand-offs (client -> connection thread -> solver
/// -> connection thread -> client) stay on CPUs that are awake. On a
/// virtual machine, waking an idle vCPU is slow and its cost varies with
/// the host's load; unpinned, that cost was a large, noisy part of every
/// short request's latency.
class CpuPin {
 public:
  CpuPin() {
    CPU_ZERO(&saved_);
    if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    cpu_set_t pinned;
    CPU_ZERO(&pinned);
    int taken = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && taken < 2; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &pinned);
        ++taken;
      }
    }
    active_ = ::sched_setaffinity(0, sizeof pinned, &pinned) == 0;
  }
  ~CpuPin() {
    if (active_) ::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool active_ = false;
};

/// Shared daemon handle for the client threads: the first client to find
/// the daemon dead restarts it; the other reconnects to the new address.
class Supervisor {
 public:
  explicit Supervisor(DaemonProcess& daemon) : daemon_(daemon) {}

  std::pair<std::string, int> current() {
    std::lock_guard<std::mutex> lock(mu_);
    return {daemon_.address(), generation_};
  }

  /// Called after a request got no answer on generation `seen`. Returns
  /// the address to reconnect to, or "" if the daemon cannot come back.
  std::string recover(int seen) {
    std::lock_guard<std::mutex> lock(mu_);
    if (generation_ == seen && !daemon_.waitExit(2000)) {
      return daemon_.address();  // alive: the connection alone failed
    }
    if (generation_ == seen) {
      std::string error;
      if (daemon_.start(&error) < 0) return "";
      ++generation_;
      ++restarts_;
    }
    return daemon_.address();
  }

  [[nodiscard]] std::size_t restarts() const { return restarts_; }

 private:
  std::mutex mu_;
  DaemonProcess& daemon_;
  int generation_ = 0;
  std::size_t restarts_ = 0;
};

}  // namespace

double DaemonProcess::start(std::string* error) {
  stop();
  int pipeFds[2];
  if (::pipe(pipeFds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return -1;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipeFds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipeFds[0]);
  posix_spawn_file_actions_addclose(&actions, pipeFds[1]);
  std::vector<char*> argv;
  argv.push_back(path_.data());
  for (std::string& a : args_) argv.push_back(a.data());
  argv.push_back(nullptr);

  const Clock::time_point t0 = Clock::now();
  const int rc =
      posix_spawn(&pid_, path_.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipeFds[1]);
  out_ = pipeFds[0];
  if (rc != 0) {
    pid_ = -1;
    closePipe();
    *error = "cannot spawn " + path_ + ": " + std::strerror(rc);
    return -1;
  }

  const std::string marker = "listening on ";
  std::string buffer;
  while (secondsSince(t0) < 10) {
    pollfd pfd{out_, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char chunk[256];
    const ssize_t n = ::read(out_, chunk, sizeof chunk);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    const std::size_t at = buffer.find(marker);
    const std::size_t eol =
        at == std::string::npos ? at : buffer.find('\n', at);
    if (eol != std::string::npos) {
      const double seconds = secondsSince(t0);
      address_ = buffer.substr(at + marker.size(), eol - at - marker.size());
      return seconds;
    }
  }
  *error = "pawsd did not announce its address";
  stop();
  return -1;
}

bool DaemonProcess::running() {
  if (pid_ < 0) return false;
  int status = 0;
  if (::waitpid(pid_, &status, WNOHANG) == pid_) {
    pid_ = -1;
    closePipe();
    return false;
  }
  return true;
}

bool DaemonProcess::waitExit(int timeoutMs) {
  const Clock::time_point t0 = Clock::now();
  while (running()) {
    if (secondsSince(t0) * 1000 >= timeoutMs) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

long DaemonProcess::peakRssKb() const {
  if (pid_ < 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      long kb = 0;
      in >> kb;
      return kb;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

void DaemonProcess::stop() {
  if (running()) {
    ::kill(pid_, SIGTERM);
    if (!waitExit(10000)) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
  }
  closePipe();
}

void DaemonProcess::closePipe() {
  if (out_ >= 0) ::close(out_);
  out_ = -1;
}

SocketResult runSocket(const Workload& workload, const SocketConfig& config) {
  SocketResult result;
  const CpuPin pin;
  // pawsd's default budget equals the request timeout, which keeps its
  // latency-triggered overload rung (p99 > 2 x default budget) out of reach.
  DaemonProcess daemon(
      config.pawsd,
      {"--listen", "tcp:127.0.0.1:0", "--threads", "2", "--default-timeout-ms",
       std::to_string(kRequestTimeoutMs), "--cache-capacity",
       std::to_string(config.cacheCapacity)});

  // Set-up: spawn -> listening, plus the warm-up pass where the workload
  // has one. Repeated; the last daemon stays up for the timed phase.
  const std::vector<Request> warm = workload.warmup();
  for (int s = 0; s < kSetups; ++s) {
    daemon.stop();
    const Clock::time_point t0 = Clock::now();
    if (daemon.start(&result.error) < 0) return result;
    std::vector<Answer> answers;
    if (!warm.empty()) {
      paws::serve::Client client;
      if (!client.connect(daemon.address(), &result.error)) return result;
      for (std::size_t i = 0; i < warm.size(); ++i) {
        const Request& r = warm[i];
        Answer a = answerFor(r, 0, i);
        paws::serve::Response resp;
        if (client.sendRequest(wireRequest(r)) &&
            client.readResponse(resp, kReadTimeoutMs)) {
          fill(a, resp);
        } else {
          a.outcome = "no_response";
        }
        answers.push_back(std::move(a));
      }
    }
    result.setups.push_back(secondsSince(t0));
    result.warmup = std::move(answers);
  }
  if (!scrape(daemon.address(), result.scrapeBefore)) {
    result.error = "metrics scrape failed after set-up";
    return result;
  }

  Supervisor supervisor(daemon);
  const std::size_t pool = workload.poolSize();
  std::mutex pullMu;
  std::size_t nextPos = 0;
  std::size_t limit = std::numeric_limits<std::size_t>::max();
  const Clock::time_point start = Clock::now();

  // Pass workloads pull from one shared stream and stop at the first pass
  // boundary after the run length (and kMinPasses), so every run answers
  // whole passes.
  const auto pullShared = [&](std::size_t& pos) {
    std::lock_guard<std::mutex> lock(pullMu);
    const double elapsed = secondsSince(start);
    if (nextPos >= limit) return false;
    if ((elapsed >= config.seconds && nextPos % pool == 0 &&
         nextPos >= kMinPasses * pool) ||
        elapsed >= config.seconds + kMaxOvershootSeconds) {
      limit = nextPos;
      return false;
    }
    pos = nextPos++;
    return true;
  };

  std::vector<std::vector<Answer>> perClient(Workload::clients());
  result.busySeconds.assign(Workload::clients(), 0.0);
  const auto clientLoop = [&](std::size_t c) {
    std::vector<Answer>& out = perClient[c];
    std::set<std::string> seenTexts;
    auto [address, generation] = supervisor.current();
    paws::serve::Client client;
    bool connected = client.connect(address);
    for (std::size_t index = 0;; ++index) {
      Request r;
      std::size_t pos = index;
      if (workload.passes()) {
        if (!pullShared(pos)) break;
        r = workload.atPosition(pos);
      } else {
        if (secondsSince(start) >= config.seconds) break;
        r = workload.forClient(c, index);
      }
      Answer a = answerFor(r, c, pos);
      paws::serve::Response resp;
      const Clock::time_point t0 = Clock::now();
      const bool answered = connected &&
                            client.sendRequest(wireRequest(r)) &&
                            client.readResponse(resp, kReadTimeoutMs);
      a.latencyUs = secondsSince(t0) * 1e6;
      result.busySeconds[c] += a.latencyUs / 1e6;
      if (answered) {
        fill(a, resp);
        if (!seenTexts.insert(a.problemKey + "#" + a.digest).second) {
          a.scheduleText.clear();
        }
      } else {
        a.outcome = "no_response";
        client.close();
        address = supervisor.recover(generation);
        generation = supervisor.current().second;
        connected = !address.empty() && client.connect(address);
      }
      out.push_back(std::move(a));
      if (address.empty()) break;  // the daemon cannot be restarted
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < Workload::clients(); ++c) {
    threads.emplace_back(clientLoop, c);
  }
  for (std::thread& t : threads) t.join();
  result.elapsedSeconds = secondsSince(start);
  result.passes = workload.passes() ? std::min(limit, nextPos) / pool : 0;
  result.restarts = supervisor.restarts();
  for (std::vector<Answer>& v : perClient) {
    for (Answer& a : v) result.answers.push_back(std::move(a));
  }

  // Counters are read only after every response has arrived.
  if (!scrape(daemon.address(), result.scrapeAfter)) {
    result.error = "metrics scrape failed after the timed phase";
    return result;
  }
  result.peakRssKb = daemon.peakRssKb();
  daemon.stop();
  result.ok = true;
  return result;
}

}  // namespace pawsbench
