// End-to-end daemon tests over real sockets: one process, real TCP/unix
// transports, the full admission → solve → respond path.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "cache/cached_solve.hpp"
#include "io/parser.hpp"
#include "io/schedule_io.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "support/temp_path.hpp"

namespace paws::serve {
namespace {

namespace fs = std::filesystem;

constexpr const char* kTinyProblem =
    "problem \"tiny\" {\n"
    "  pmax 10W\n"
    "  resource cpu\n"
    "  resource bus\n"
    "  task a { resource cpu delay 2 power 3W }\n"
    "  task b { resource bus delay 3 power 4W }\n"
    "  task c { resource cpu delay 1 power 2W }\n"
    "  precedes a -> b\n"
    "  precedes b -> c\n"
    "}\n";

/// Starts a daemon on an ephemeral port, runs it on a background thread,
/// drains it (exit code checked) on teardown.
class DaemonFixture : public ::testing::Test {
 protected:
  void boot() {
    daemon = std::make_unique<Daemon>(config);
    std::string error;
    ASSERT_TRUE(daemon->start(&error)) << error;
    runner = std::thread([this] { exitCode = daemon->run(); });
  }

  void shutdownAndExpectCleanExit() {
    if (!runner.joinable()) return;
    daemon->requestStop();
    runner.join();
    EXPECT_EQ(exitCode, 0);
  }

  void TearDown() override { shutdownAndExpectCleanExit(); }

  Request tinyRequest(const char* scheduler = "pipeline") {
    Request request;
    request.scheduler = scheduler;
    request.problemText = kTinyProblem;
    return request;
  }

  DaemonConfig config;
  std::unique_ptr<Daemon> daemon;
  std::thread runner;
  int exitCode = -1;
};

TEST_F(DaemonFixture, SolvesOneRequestEndToEnd) {
  boot();
  Response response;
  std::string error;
  ASSERT_TRUE(requestOnce(daemon->boundAddress(), tinyRequest(), response,
                          10000, &error))
      << error;
  EXPECT_EQ(response.outcome, "ok") << response.reason;
  EXPECT_EQ(response.mode, "healthy");
  EXPECT_FALSE(response.degraded);
  EXPECT_GT(response.finishTicks, 0);
  ASSERT_FALSE(response.scheduleText.empty());
  // The digest is derivable from the shipped text — a client can verify.
  EXPECT_EQ(response.scheduleDigest, scheduleDigest(response.scheduleText));
  EXPECT_GE(response.serviceUs, 0);
}

TEST_F(DaemonFixture, SecondIdenticalRequestIsACacheHit) {
  boot();
  Response first;
  Response second;
  ASSERT_TRUE(
      requestOnce(daemon->boundAddress(), tinyRequest(), first, 10000));
  ASSERT_TRUE(
      requestOnce(daemon->boundAddress(), tinyRequest(), second, 10000));
  EXPECT_FALSE(first.cacheHit);
  EXPECT_TRUE(second.cacheHit);
  EXPECT_EQ(first.scheduleDigest, second.scheduleDigest);
}

TEST_F(DaemonFixture, DigestMatchesALocalSingleThreadedSolve) {
  boot();
  Response response;
  ASSERT_TRUE(requestOnce(daemon->boundAddress(), tinyRequest("optimal"),
                          response, 30000));
  ASSERT_EQ(response.outcome, "ok") << response.reason;

  const io::ParseResult parsed = io::parseProblem(kTinyProblem);
  ASSERT_TRUE(parsed.ok());
  cache::SolveSpec spec;
  spec.scheduler = "optimal";
  spec.jobs = 1;
  const ScheduleResult local =
      cache::solveThroughCache(nullptr, *parsed.problem, spec);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(response.scheduleDigest,
            scheduleDigest(io::scheduleToText(*local.schedule, "optimal")));
}

TEST_F(DaemonFixture, PipelinedRequestsOnOneConnection) {
  boot();
  Client client;
  ASSERT_TRUE(client.connect(daemon->boundAddress()));
  // Two requests back-to-back before reading — exercises the daemon's
  // "data after response is pipelining, not disconnect" distinction.
  ASSERT_TRUE(client.sendRequest(tinyRequest()));
  ASSERT_TRUE(client.sendRequest(tinyRequest()));
  Response a;
  Response b;
  ASSERT_TRUE(client.readResponse(a, 10000));
  ASSERT_TRUE(client.readResponse(b, 10000));
  EXPECT_EQ(a.outcome, "ok");
  EXPECT_EQ(b.outcome, "ok");
  EXPECT_TRUE(b.cacheHit);
}

TEST_F(DaemonFixture, UnparseableProblemIsStructuredInvalid) {
  boot();
  Request request;
  request.problemText = "problem \"broken\" { pmax banana }\n";
  Response response;
  ASSERT_TRUE(requestOnce(daemon->boundAddress(), request, response, 10000));
  EXPECT_EQ(response.outcome, "invalid");
  EXPECT_FALSE(response.reason.empty());
}

TEST_F(DaemonFixture, InfeasibleProblemIsStructuredNotACrash) {
  boot();
  Request request;
  // a must precede b AND b must finish at least 100 before a starts —
  // contradiction, no valid schedule.
  request.problemText =
      "problem \"contradiction\" {\n"
      "  pmax 10W\n"
      "  resource cpu\n"
      "  task a { resource cpu delay 2 power 3W }\n"
      "  task b { resource cpu delay 2 power 3W }\n"
      "  precedes a -> b\n"
      "  min b -> a 100\n"
      "}\n";
  Response response;
  ASSERT_TRUE(requestOnce(daemon->boundAddress(), request, response, 10000));
  EXPECT_EQ(response.outcome, "infeasible");
}

TEST_F(DaemonFixture, MalformedFrameGetsInvalidThenClose) {
  boot();
  Client client;
  ASSERT_TRUE(client.connect(daemon->boundAddress()));
  ASSERT_TRUE(client.rawSend("GARBAGE-NOT-A-FRAME-HEADER!!"));
  Response response;
  ASSERT_TRUE(client.readResponse(response, 10000));
  EXPECT_EQ(response.outcome, "invalid");
  EXPECT_EQ(response.reason, "bad_magic");
}

TEST_F(DaemonFixture, BadRequestPayloadNamesTheReason) {
  boot();
  Client client;
  ASSERT_TRUE(client.connect(daemon->boundAddress()));
  const std::string wire =
      encodeFrame(FrameType::kRequest, "paws-request/9\n---\nx");
  ASSERT_TRUE(client.rawSend(wire));
  Response response;
  ASSERT_TRUE(client.readResponse(response, 10000));
  EXPECT_EQ(response.outcome, "invalid");
  EXPECT_EQ(response.reason, "bad_preamble");
}

TEST_F(DaemonFixture, MetricsScrapeIsOpenMetricsWithServeCounters) {
  boot();
  Response response;
  ASSERT_TRUE(
      requestOnce(daemon->boundAddress(), tinyRequest(), response, 10000));
  Client client;
  ASSERT_TRUE(client.connect(daemon->boundAddress()));
  ASSERT_TRUE(client.sendMetricsRequest());
  std::string body;
  ASSERT_TRUE(client.readMetrics(body, 10000));
  EXPECT_NE(body.find("serve_accepted"), std::string::npos) << body;
  EXPECT_NE(body.find("serve_completed"), std::string::npos);
  EXPECT_NE(body.find("exec_tasks_run"), std::string::npos);
  EXPECT_NE(body.find("cache_"), std::string::npos);
  EXPECT_NE(body.find("# EOF"), std::string::npos);
}

TEST_F(DaemonFixture, ServesOverUnixSocket) {
  const fs::path sock = testutil::uniqueTempPath(".sock");
  fs::remove(sock);
  config.address = "unix:" + sock.string();
  boot();
  EXPECT_EQ(daemon->boundAddress(), config.address);
  Response response;
  std::string error;
  ASSERT_TRUE(requestOnce(config.address, tinyRequest(), response, 10000,
                          &error))
      << error;
  EXPECT_EQ(response.outcome, "ok");
  shutdownAndExpectCleanExit();
  // Drain unlinks the socket path.
  EXPECT_FALSE(fs::exists(sock));
}

TEST_F(DaemonFixture, DrainFlushesCacheAndASuccessorWarmStartsFromIt) {
  const fs::path dir = testutil::uniqueTempPath("");
  fs::remove_all(dir);
  fs::create_directories(dir);
  config.cacheDir = dir.string();
  boot();
  Response cold;
  ASSERT_TRUE(
      requestOnce(daemon->boundAddress(), tinyRequest(), cold, 10000));
  EXPECT_FALSE(cold.cacheHit);
  shutdownAndExpectCleanExit();
  EXPECT_TRUE(fs::exists(dir / "paws_cache.json"));

  // A fresh daemon over the same --cache-dir serves the request from the
  // persisted entry on its very first exchange.
  DaemonConfig secondConfig;
  secondConfig.cacheDir = dir.string();
  Daemon second(secondConfig);
  std::string error;
  ASSERT_TRUE(second.start(&error)) << error;
  std::thread secondRunner([&second] { second.run(); });
  Response warm;
  ASSERT_TRUE(
      requestOnce(second.boundAddress(), tinyRequest(), warm, 10000));
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_EQ(warm.scheduleDigest, cold.scheduleDigest);
  second.requestStop();
  secondRunner.join();
  fs::remove_all(dir);
}

TEST_F(DaemonFixture, DisconnectMidSolveIsCancelledNotCrashed) {
  config.defaultTimeoutMs = 30000;
  boot();
  {
    Client client;
    ASSERT_TRUE(client.connect(daemon->boundAddress()));
    Request request = tinyRequest("optimal");
    request.trials = 1;
    ASSERT_TRUE(client.sendRequest(request));
    // Vanish immediately — the daemon must cancel and carry on.
    client.abortiveClose();
  }
  // The daemon still serves the next client normally.
  Response response;
  ASSERT_TRUE(
      requestOnce(daemon->boundAddress(), tinyRequest(), response, 10000));
  EXPECT_EQ(response.outcome, "ok");
}

TEST_F(DaemonFixture, DrainingDaemonRefusesNewWorkStructurally) {
  boot();
  daemon->requestStop();
  // Give run() a beat to raise the draining flag; requests racing the
  // stop may still be served, so accept either structured answer.
  Response response;
  const bool got =
      requestOnce(daemon->boundAddress(), tinyRequest(), response, 2000);
  if (got) {
    EXPECT_TRUE(response.outcome == "ok" ||
                (response.outcome == "overloaded" &&
                 response.reason == "draining"))
        << response.outcome << "/" << response.reason;
  }
  runner.join();
  EXPECT_EQ(exitCode, 0);
}

}  // namespace
}  // namespace paws::serve
