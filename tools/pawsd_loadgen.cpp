// pawsd_loadgen — deterministic chaos client mix for pawsd.
//
//   pawsd_loadgen --connect tcp:127.0.0.1:PORT
//     [--requests N]            requests per client (default 8)
//     [--clients N]             concurrent client threads (default 4)
//     [--seed S]                master seed (default 1)
//     [--tasks N]               max problem size sent (default 12)
//     [--slow-permille N]       trickle the request bytes (default 0)
//     [--disconnect-permille N] vanish before reading the answer (0)
//     [--malformed-permille N]  garbage frames / payloads (0)
//     [--request-timeout-ms N]  timeout_ms header sent (default 2000)
//     [--timeout-ms N]          client-side read deadline (default 10000)
//     [--burst]                 all clients fire simultaneously
//     [--dump-corpus DIR]       save every wire blob as a fuzz seed
//
// One-shot mode: `--problem file.paws [--scheduler S]` sends that single
// problem instead of the generated mix and prints
//
//   oneshot: outcome=ok cache_hit=0 digest=6b86b273ff34fce1
//
// which is how CI asserts pawsd and `pawsc schedule --digest` agree.
//
// Every byte sent is a pure function of (seed, client, request index):
// problems come from gen's witness-feasible generator, misbehaviour rolls
// from per-request SplitMix64 streams. Two runs with the same flags
// produce the same traffic, which is what makes the chaos CI gate
// assertable. The summary line is the contract consumed by tests:
//
//   loadgen: sent=32 ok=20 anytime=0 cached=12 overloaded=8 invalid=4
//            cancelled=0 degraded=0 infeasible=0 deadline=0 budget=0
//            error=0 no_response=0 connect_fail=0
//
// Every response outcome has its own tally (cached and degraded are flags
// counted on top of the outcome). `error` is the daemon's internal-failure
// outcome; an outcome outside the protocol's vocabulary counts there too.
//
// Exit 0 when every *well-formed* exchange got a structured response
// (overloaded counts as structured — shedding is correct behaviour);
// exit 1 on usage error; exit 2 when nothing could connect.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/rng.hpp"
#include "gen/random_problem.hpp"
#include "io/writer.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"

namespace {

using paws::fault::SplitMix64;
using paws::fault::mixSeed;

struct Options {
  std::string address;
  std::size_t requests = 8;
  std::size_t clients = 4;
  std::uint64_t seed = 1;
  std::size_t tasks = 12;
  std::uint32_t slowPermille = 0;
  std::uint32_t disconnectPermille = 0;
  std::uint32_t malformedPermille = 0;
  std::int64_t requestTimeoutMs = 2000;
  std::int64_t readTimeoutMs = 10000;
  bool burst = false;
  std::string corpusDir;
  /// One-shot mode: path of a .paws file to send instead of the mix.
  std::string problemPath;
  std::string scheduler = "pipeline";
};

struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t anytime = 0;
  std::uint64_t cached = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t invalid = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t degraded = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t deadline = 0;
  std::uint64_t budget = 0;
  std::uint64_t error = 0;
  std::uint64_t noResponse = 0;
  std::uint64_t connectFail = 0;

  Tally& operator+=(const Tally& rhs) {
    sent += rhs.sent;
    ok += rhs.ok;
    anytime += rhs.anytime;
    cached += rhs.cached;
    overloaded += rhs.overloaded;
    invalid += rhs.invalid;
    cancelled += rhs.cancelled;
    degraded += rhs.degraded;
    infeasible += rhs.infeasible;
    deadline += rhs.deadline;
    budget += rhs.budget;
    error += rhs.error;
    noResponse += rhs.noResponse;
    connectFail += rhs.connectFail;
    return *this;
  }
};

constexpr std::uint64_t kProblemSalt = 0x70726f626c656dULL;  // "problem"
constexpr std::uint64_t kChaosSalt = 0x6368616f73ULL;        // "chaos"

/// The scheduler mix leans on the cheap pipelines so bursts saturate the
/// queue, not the CPU, with a sprinkle of exhaustive search to exercise
/// the degraded-mode downgrade.
const char* pickScheduler(SplitMix64& rng) {
  const std::uint64_t roll = rng.next() % 1000;
  if (roll < 600) return "pipeline";
  if (roll < 800) return "list";
  if (roll < 950) return "serial";
  return "optimal";
}

std::string makeProblemText(std::uint64_t seed, std::size_t maxTasks) {
  SplitMix64 rng(seed);
  paws::GeneratorConfig config;
  // Keep seeds in 32 bits — GeneratorConfig::seed is a std::uint32_t.
  config.seed = static_cast<std::uint32_t>(rng.next() & 0xffffffffULL);
  config.numTasks = 3 + static_cast<std::size_t>(
                            rng.next() % (maxTasks > 3 ? maxTasks - 2 : 1));
  config.numResources = 2 + static_cast<std::size_t>(rng.next() % 3);
  return paws::io::problemToText(
      paws::generateRandomProblem(config).problem);
}

/// Wire garbage for the malformed mix: half of it is broken *framing*
/// (bad magic / version / oversized length / truncated header), half is a
/// valid frame whose *payload* the request parser must refuse.
std::string makeMalformedBlob(SplitMix64& rng) {
  switch (rng.next() % 6) {
    case 0: {  // bad magic
      std::string s = paws::serve::encodeFrame(
          paws::serve::FrameType::kRequest, "paws-request/1\n---\nx");
      s[0] = 'X';
      return s;
    }
    case 1: {  // bad version
      std::string s = paws::serve::encodeFrame(
          paws::serve::FrameType::kRequest, "paws-request/1\n---\nx");
      s[4] = '\x7f';
      return s;
    }
    case 2: {  // oversized declared length
      std::string s = paws::serve::encodeFrame(
          paws::serve::FrameType::kRequest, "x");
      s[8] = '\x7f';  // length becomes ~2 GiB
      return s;
    }
    case 3: {  // truncated header, then EOF
      std::string s = paws::serve::encodeFrame(
          paws::serve::FrameType::kRequest, "x");
      return s.substr(0, 1 + rng.next() % (paws::serve::kHeaderBytes - 1));
    }
    case 4: {  // well-framed, unparseable request payload
      std::string payload = "not-a-paws-request\n";
      const std::size_t n = rng.next() % 64;
      for (std::size_t i = 0; i < n; ++i) {
        payload.push_back(static_cast<char>(rng.next() & 0xff));
      }
      return paws::serve::encodeFrame(paws::serve::FrameType::kRequest,
                                      payload);
    }
    default: {  // pure noise
      std::string s;
      const std::size_t n = 1 + rng.next() % 96;
      for (std::size_t i = 0; i < n; ++i) {
        s.push_back(static_cast<char>(rng.next() & 0xff));
      }
      return s;
    }
  }
}

void dumpBlob(const Options& opt, std::size_t client, std::size_t index,
              const std::string& wire) {
  if (opt.corpusDir.empty()) return;
  char name[128];
  std::snprintf(name, sizeof name, "%s/loadgen_%llu_%zu_%zu.bin",
                opt.corpusDir.c_str(),
                static_cast<unsigned long long>(opt.seed), client, index);
  std::ofstream out(name, std::ios::binary | std::ios::trunc);
  out.write(wire.data(), static_cast<std::streamsize>(wire.size()));
}

/// Sends `wire` in small chunks with real sleeps — the slow-writer lane
/// that the daemon's frame-stall watchdog must tolerate (the trickle
/// finishes well inside the stall budget) without holding a solver slot.
bool trickleSend(paws::serve::Client& client, const std::string& wire,
                 SplitMix64& rng) {
  std::size_t off = 0;
  while (off < wire.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(wire.size() - off, 1 + rng.next() % 24);
    if (!client.rawSend(std::string_view(wire).substr(off, chunk))) {
      return false;
    }
    off += chunk;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

void classify(const paws::serve::Response& response, Tally& tally) {
  if (response.cacheHit) ++tally.cached;
  if (response.degraded) ++tally.degraded;
  if (response.outcome == "ok") {
    ++tally.ok;
  } else if (response.outcome == "anytime") {
    ++tally.anytime;
  } else if (response.outcome == "overloaded") {
    ++tally.overloaded;
  } else if (response.outcome == "invalid") {
    ++tally.invalid;
  } else if (response.outcome == "cancelled") {
    ++tally.cancelled;
  } else if (response.outcome == "infeasible") {
    ++tally.infeasible;
  } else if (response.outcome == "deadline") {
    ++tally.deadline;
  } else if (response.outcome == "budget") {
    ++tally.budget;
  } else {
    ++tally.error;
  }
}

void runClient(const Options& opt, std::size_t clientIndex, Tally& tally,
               std::atomic<std::size_t>& gate) {
  if (opt.burst) {
    // Burst barrier: every thread checks in, then all release together.
    gate.fetch_sub(1, std::memory_order_acq_rel);
    while (gate.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
  }
  for (std::size_t i = 0; i < opt.requests; ++i) {
    SplitMix64 chaos(mixSeed(opt.seed, clientIndex * 100003 + i, kChaosSalt));
    paws::serve::Client client;
    if (!client.connect(opt.address)) {
      ++tally.connectFail;
      continue;
    }
    ++tally.sent;

    if (chaos.chance(opt.malformedPermille)) {
      const std::string blob = makeMalformedBlob(chaos);
      dumpBlob(opt, clientIndex, i, blob);
      (void)client.rawSend(blob);
      // The daemon answers broken framing with one `invalid` response and
      // hangs up. A response is nice but not owed (pure-noise blobs may
      // just stall until the watchdog); don't count absence as a failure.
      paws::serve::Response response;
      if (client.readResponse(response, 500)) classify(response, tally);
      client.close();
      continue;
    }

    paws::serve::Request request;
    request.scheduler = pickScheduler(chaos);
    request.timeoutMs = opt.requestTimeoutMs;
    request.problemText = makeProblemText(
        mixSeed(opt.seed, clientIndex * 100003 + i, kProblemSalt), opt.tasks);
    const std::string wire = paws::serve::encodeFrame(
        paws::serve::FrameType::kRequest,
        paws::serve::formatRequest(request));
    dumpBlob(opt, clientIndex, i, wire);

    bool sentOk = false;
    if (chaos.chance(opt.slowPermille)) {
      sentOk = trickleSend(client, wire, chaos);
    } else {
      sentOk = client.rawSend(wire);
    }
    if (!sentOk) {
      ++tally.noResponse;
      client.close();
      continue;
    }

    if (chaos.chance(opt.disconnectPermille)) {
      // Vanish mid-request: half orderly FIN, half RST. The daemon must
      // cancel the solve and never write to the dead socket.
      if (chaos.chance(500)) {
        client.abortiveClose();
      } else {
        client.close();
      }
      continue;
    }

    paws::serve::Response response;
    if (!client.readResponse(response, opt.readTimeoutMs)) {
      ++tally.noResponse;
      client.close();
      continue;
    }
    classify(response, tally);
    client.close();
  }
}

int usage(const char* msg) {
  std::fprintf(stderr, "pawsd_loadgen: %s\nsee pawsd_loadgen.cpp header\n",
               msg);
  return 1;
}

/// One-shot lane: send one file, print a parseable verdict line. Exit 0
/// only for a successful solve — CI pipes the digest straight into a
/// comparison with `pawsc schedule --digest`.
int runOneShot(const Options& opt) {
  std::ifstream in(opt.problemPath, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "pawsd_loadgen: cannot read %s\n",
                 opt.problemPath.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  paws::serve::Request request;
  request.scheduler = opt.scheduler;
  request.timeoutMs = opt.requestTimeoutMs;
  request.problemText = text.str();
  paws::serve::Response response;
  std::string error;
  if (!paws::serve::requestOnce(opt.address, request, response,
                                opt.readTimeoutMs, &error)) {
    std::fprintf(stderr, "pawsd_loadgen: %s\n", error.c_str());
    return 2;
  }
  std::printf("oneshot: outcome=%s cache_hit=%d digest=%s\n",
              response.outcome.c_str(), response.cacheHit ? 1 : 0,
              response.scheduleDigest.c_str());
  return response.succeeded() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto needNum = [&](const char* flag) -> long long {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "pawsd_loadgen: %s needs a value\n", flag);
        std::exit(1);
      }
      char* end = nullptr;
      const long long parsed = std::strtoll(v, &end, 10);
      if (end == v || *end != '\0' || parsed < 0) {
        std::fprintf(stderr, "pawsd_loadgen: bad value for %s\n", flag);
        std::exit(1);
      }
      return parsed;
    };
    if (arg == "--connect") {
      const char* v = next();
      if (v == nullptr) return usage("--connect needs an address");
      opt.address = v;
    } else if (arg == "--requests") {
      opt.requests = static_cast<std::size_t>(needNum("--requests"));
    } else if (arg == "--clients") {
      opt.clients = static_cast<std::size_t>(needNum("--clients"));
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(needNum("--seed"));
    } else if (arg == "--tasks") {
      opt.tasks = static_cast<std::size_t>(needNum("--tasks"));
    } else if (arg == "--slow-permille") {
      opt.slowPermille = static_cast<std::uint32_t>(needNum(arg.c_str()));
    } else if (arg == "--disconnect-permille") {
      opt.disconnectPermille =
          static_cast<std::uint32_t>(needNum(arg.c_str()));
    } else if (arg == "--malformed-permille") {
      opt.malformedPermille =
          static_cast<std::uint32_t>(needNum(arg.c_str()));
    } else if (arg == "--request-timeout-ms") {
      opt.requestTimeoutMs = needNum(arg.c_str());
    } else if (arg == "--timeout-ms") {
      opt.readTimeoutMs = needNum(arg.c_str());
    } else if (arg == "--burst") {
      opt.burst = true;
    } else if (arg == "--problem") {
      const char* v = next();
      if (v == nullptr) return usage("--problem needs a file");
      opt.problemPath = v;
    } else if (arg == "--scheduler") {
      const char* v = next();
      if (v == nullptr) return usage("--scheduler needs a name");
      opt.scheduler = v;
    } else if (arg == "--dump-corpus") {
      const char* v = next();
      if (v == nullptr) return usage("--dump-corpus needs a directory");
      opt.corpusDir = v;
    } else {
      return usage(("unknown flag: " + arg).c_str());
    }
  }
  if (opt.address.empty()) return usage("--connect is required");
  if (!opt.problemPath.empty()) return runOneShot(opt);
  if (opt.clients == 0 || opt.requests == 0) {
    return usage("--clients and --requests must be >= 1");
  }

  // Without --burst the clients still run concurrently; --burst adds a
  // start barrier so the whole wave hits the intake queue at once.
  std::atomic<std::size_t> gate(opt.clients);
  std::vector<Tally> tallies(opt.clients);
  std::vector<std::thread> threads;
  threads.reserve(opt.clients);
  for (std::size_t c = 0; c < opt.clients; ++c) {
    threads.emplace_back(
        [&, c] { runClient(opt, c, tallies[c], gate); });
  }
  for (auto& t : threads) t.join();

  Tally total;
  for (const Tally& t : tallies) total += t;

  std::printf(
      "loadgen: sent=%llu ok=%llu anytime=%llu cached=%llu overloaded=%llu "
      "invalid=%llu cancelled=%llu degraded=%llu infeasible=%llu "
      "deadline=%llu budget=%llu error=%llu no_response=%llu "
      "connect_fail=%llu\n",
      static_cast<unsigned long long>(total.sent),
      static_cast<unsigned long long>(total.ok),
      static_cast<unsigned long long>(total.anytime),
      static_cast<unsigned long long>(total.cached),
      static_cast<unsigned long long>(total.overloaded),
      static_cast<unsigned long long>(total.invalid),
      static_cast<unsigned long long>(total.cancelled),
      static_cast<unsigned long long>(total.degraded),
      static_cast<unsigned long long>(total.infeasible),
      static_cast<unsigned long long>(total.deadline),
      static_cast<unsigned long long>(total.budget),
      static_cast<unsigned long long>(total.error),
      static_cast<unsigned long long>(total.noResponse),
      static_cast<unsigned long long>(total.connectFail));

  if (total.sent == 0 && total.connectFail > 0) return 2;
  return total.noResponse == 0 ? 0 : 3;
}
