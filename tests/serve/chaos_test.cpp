// Service-level chaos: a deliberately tiny daemon under a hostile client
// mix — bursts past capacity, slow writers, mid-request disconnects,
// malformed frames — all at once, on real sockets, under the sanitizer
// matrix. The invariants throughout:
//
//   * the daemon never crashes, hangs, or leaks connections;
//   * every well-formed request that stays connected gets a STRUCTURED
//     answer — a known outcome string, never a dropped connection;
//   * after the storm the daemon serves a clean request normally;
//   * a drain under load still exits 0 within its budget.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/rng.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"

namespace paws::serve {
namespace {

constexpr const char* kStormProblem =
    "problem \"storm\" {\n"
    "  pmax 12W\n"
    "  resource cpu\n"
    "  resource dsp\n"
    "  task a { resource cpu delay 3 power 5W }\n"
    "  task b { resource dsp delay 4 power 6W }\n"
    "  task c { resource cpu delay 2 power 4W }\n"
    "  task d { resource dsp delay 3 power 5W }\n"
    "  precedes a -> b\n"
    "  precedes c -> d\n"
    "  min a -> c 1\n"
    "}\n";

/// Sixteen chained tasks on four resources under a tight Pmax: the
/// exhaustive search cannot finish it within seconds, so an `optimal`
/// request on it holds its solver until its timeout_ms trips, whatever
/// the CPU speed.
std::string blockerProblem() {
  std::string text = "problem \"blocker\" {\n  pmax 14W\n  pmin 6W\n";
  for (int r = 0; r < 4; ++r) {
    text += "  resource r" + std::to_string(r) + "\n";
  }
  for (int i = 0; i < 16; ++i) {
    text += "  task t" + std::to_string(i) + " { resource r" +
            std::to_string(i % 4) + " delay " + std::to_string(2 + i % 5) +
            " power " + std::to_string(3 + i % 4) + "W }\n";
  }
  for (int i = 0; i + 4 < 16; ++i) {
    text += "  precedes t" + std::to_string(i) + " -> t" +
            std::to_string(i + 4) + "\n";
  }
  return text + "}\n";
}

bool knownOutcome(const std::string& outcome) {
  return outcome == "ok" || outcome == "anytime" || outcome == "infeasible" ||
         outcome == "invalid" || outcome == "overloaded" ||
         outcome == "cancelled" || outcome == "deadline" ||
         outcome == "budget" || outcome == "error";
}

Request stormRequest(std::uint32_t salt) {
  Request request;
  // Distinct problem names defeat the cache so bursts really queue.
  std::string text = kStormProblem;
  const std::string name = "storm" + std::to_string(salt);
  text.replace(text.find("storm"), 5, name);
  request.problemText = text;
  request.scheduler = salt % 3 == 0 ? "optimal" : "pipeline";
  request.timeoutMs = 500;
  return request;
}

struct StormStats {
  std::atomic<std::uint64_t> structured{0};
  std::atomic<std::uint64_t> succeeded{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> disconnected{0};
  std::atomic<std::uint64_t> malformedAnswered{0};
  std::atomic<std::uint64_t> unstructured{0};
};

/// One chaos client: rolls its behaviour from a private SplitMix64 stream
/// and records what came back.
void chaosClient(const std::string& address, std::uint64_t seed,
                 std::size_t requests, StormStats& stats) {
  fault::SplitMix64 rng(seed);
  for (std::size_t i = 0; i < requests; ++i) {
    Client client;
    if (!client.connect(address)) {
      // The storm may exhaust the listen backlog briefly; that is a
      // transport refusal, not a protocol violation.
      continue;
    }
    const std::uint64_t roll = rng.next() % 100;
    if (roll < 15) {
      // Malformed frame lane.
      std::string garbage;
      const std::size_t n = 1 + rng.next() % 64;
      for (std::size_t k = 0; k < n; ++k) {
        garbage.push_back(static_cast<char>(rng.next() & 0xff));
      }
      (void)client.rawSend(garbage);
      Response response;
      if (client.readResponse(response, 300)) {
        stats.malformedAnswered.fetch_add(1);
        EXPECT_TRUE(response.outcome == "invalid") << response.outcome;
      }
      continue;
    }
    const Request request =
        stormRequest(static_cast<std::uint32_t>(seed * 1000 + i));
    if (roll < 30) {
      // Slow-writer lane: trickle the frame in small chunks.
      const std::string wire =
          encodeFrame(FrameType::kRequest, formatRequest(request));
      std::size_t off = 0;
      bool alive = true;
      while (off < wire.size() && alive) {
        const std::size_t chunk =
            std::min<std::size_t>(wire.size() - off, 1 + rng.next() % 16);
        alive = client.rawSend(wire.substr(off, chunk));
        off += chunk;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (!alive) continue;
    } else {
      if (!client.sendRequest(request)) continue;
    }
    if (roll >= 30 && roll < 45) {
      // Disconnect lane: vanish without reading, half abortively.
      if (rng.chance(500)) {
        client.abortiveClose();
      } else {
        client.close();
      }
      stats.disconnected.fetch_add(1);
      continue;
    }
    Response response;
    if (!client.readResponse(response, 15000)) {
      stats.unstructured.fetch_add(1);
      continue;
    }
    stats.structured.fetch_add(1);
    EXPECT_TRUE(knownOutcome(response.outcome)) << response.outcome;
    if (response.succeeded()) stats.succeeded.fetch_add(1);
    if (response.outcome == "overloaded") {
      stats.shed.fetch_add(1);
      EXPECT_FALSE(response.reason.empty());
    }
  }
}

TEST(ServiceChaos, StormOfHostileClientsNeverBreaksTheContract) {
  DaemonConfig config;
  config.solverThreads = 2;
  config.maxQueued = 4;  // tiny on purpose: the storm is 4x+ capacity
  config.defaultTimeoutMs = 1000;
  config.frameStallMs = 3000;
  Daemon daemon(config);
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  std::thread runner([&daemon] { daemon.run(); });

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRequestsEach = 6;
  StormStats stats;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      chaosClient(daemon.boundAddress(), 0xc4a05 + c, kRequestsEach, stats);
    });
  }
  for (auto& t : clients) t.join();

  // Every answered exchange was structured; nothing timed out unanswered.
  EXPECT_EQ(stats.unstructured.load(), 0u);
  EXPECT_GT(stats.structured.load(), 0u);
  // The run must have actually exercised the interesting lanes.
  EXPECT_GT(stats.disconnected.load(), 0u);

  // After the storm: a clean request on a healthy-or-recovering daemon
  // still gets a full-fidelity answer.
  Request calm;
  calm.problemText = kStormProblem;
  Response response;
  ASSERT_TRUE(requestOnce(daemon.boundAddress(), calm, response, 15000));
  EXPECT_TRUE(knownOutcome(response.outcome));

  daemon.requestStop();
  runner.join();
}

TEST(ServiceChaos, BurstBeyondCapacityShedsStructuredAndRecovers) {
  DaemonConfig config;
  config.solverThreads = 1;
  config.maxQueued = 2;
  config.defaultTimeoutMs = 2000;
  // Instant de-escalation keeps the recovery phase deterministic.
  config.ladder.deescalateAfterClean = 1;
  Daemon daemon(config);
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  std::thread runner([&daemon] { daemon.run(); });

  // Occupy the single solver first, for a time its timeout_ms sets, so
  // the wave meets a busy solver however fast this machine drains it.
  std::atomic<std::uint64_t> broken{0};
  std::thread blocker([&] {
    Request request;
    request.problemText = blockerProblem();
    request.scheduler = "optimal";
    request.timeoutMs = 1500;
    Response response;
    if (!requestOnce(daemon.boundAddress(), request, response, 20000)) {
      broken.fetch_add(1);
      return;
    }
    EXPECT_TRUE(knownOutcome(response.outcome)) << response.outcome;
  });
  // Fire the wave only once the blocker is admitted.
  const auto admitBy =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon.metricsSnapshot().counter("serve.accepted") == 0 &&
         std::chrono::steady_clock::now() < admitBy) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(daemon.metricsSnapshot().counter("serve.accepted"), 1u);

  // A synchronized wave of expensive requests, several times capacity.
  constexpr std::size_t kWave = 12;
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> wave;
  wave.reserve(kWave);
  for (std::size_t c = 0; c < kWave; ++c) {
    wave.emplace_back([&, c] {
      Response response;
      if (!requestOnce(daemon.boundAddress(),
                       stormRequest(static_cast<std::uint32_t>(7000 + c)),
                       response, 20000)) {
        broken.fetch_add(1);
        return;
      }
      if (response.outcome == "overloaded") {
        shed.fetch_add(1);
        EXPECT_FALSE(response.reason.empty());
        EXPECT_TRUE(response.scheduleText.empty());
      } else if (response.succeeded()) {
        served.fetch_add(1);
      }
    });
  }
  for (auto& t : wave) t.join();
  blocker.join();

  // Nobody got a dropped connection, at least someone was served, and a
  // wave this far past a 2-deep queue must have shed.
  EXPECT_EQ(broken.load(), 0u);
  EXPECT_GT(served.load(), 0u);
  EXPECT_GT(shed.load(), 0u);

  // Recovery: with the storm gone the ladder walks home and a fresh
  // request is served at full fidelity.
  for (int attempt = 0; attempt < 100; ++attempt) {
    Response response;
    ASSERT_TRUE(requestOnce(daemon.boundAddress(),
                            stormRequest(9999), response, 15000));
    if (response.succeeded() && !response.degraded) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(daemon.mode(), ServiceMode::kHealthy);

  daemon.requestStop();
  runner.join();
}

TEST(ServiceChaos, DrainUnderLoadStillExitsZeroWithinBudget) {
  DaemonConfig config;
  config.solverThreads = 2;
  config.maxQueued = 8;
  config.defaultTimeoutMs = 5000;
  config.drainBudgetMs = 1500;
  Daemon daemon(config);
  std::string error;
  ASSERT_TRUE(daemon.start(&error)) << error;
  int exitCode = -1;
  std::thread runner([&daemon, &exitCode] { exitCode = daemon.run(); });

  // Load the daemon, then pull the plug while requests are in flight.
  std::vector<std::thread> load;
  for (std::size_t c = 0; c < 6; ++c) {
    load.emplace_back([&, c] {
      Response response;
      (void)requestOnce(daemon.boundAddress(),
                        stormRequest(static_cast<std::uint32_t>(5000 + c)),
                        response, 20000);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto drainStart = std::chrono::steady_clock::now();
  daemon.requestStop();
  runner.join();
  const auto drainMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - drainStart)
                           .count();
  EXPECT_EQ(exitCode, 0);
  // Budget + cancel grace + teardown slack, not unbounded.
  EXPECT_LT(drainMs, 10000);
  for (auto& t : load) t.join();

  // The drain left a trace breadcrumb.
  bool sawDrainEvent = false;
  for (const obs::TraceEvent& event : daemon.trace().events()) {
    if (event.kind == obs::TraceEventKind::kServeDrain) sawDrainEvent = true;
  }
  EXPECT_TRUE(sawDrainEvent);
}

}  // namespace
}  // namespace paws::serve
