// RunReport round-trip and golden tests: the JSON a report writes must
// parse back to an equal report (schema v1 contract), and the normalized
// report for the bundled satellite example must match the committed golden
// byte for byte — the determinism witness for the whole obs pipeline.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "io/parser.hpp"
#include "io/schedule_io.hpp"
#include "io/writer.hpp"
#include "analysis/analysis.hpp"
#include "obs/context.hpp"
#include "obs/incumbents.hpp"
#include "obs/report.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "validate/validator.hpp"

namespace paws::obs {
namespace {

/// Strips everything that varies between two runs of the same binary on
/// the same input: creation time, host name, incumbent timestamps (costs
/// stay), and every timing histogram (names ending in "_us" or "_ns").
/// What remains is byte-stable for deterministic runs — the golden-report
/// test compares normalized JSON.
void normalizeVolatile(RunReport& r) {
  r.createdUnixMs = 0;
  r.host.clear();
  for (IncumbentPoint& p : r.incumbents) p.tsNs = 0;
  MetricsRegistry kept;
  for (const auto& [name, v] : r.metrics.counters()) kept.add(name, v);
  for (const auto& [name, v] : r.metrics.gauges()) kept.set(name, v);
  for (const auto& [name, h] : r.metrics.histograms()) {
    const bool timing = name.ends_with("_us") || name.ends_with("_ns");
    if (!timing) kept.setHistogram(name, h);
  }
  r.metrics = std::move(kept);
}

RunReport sampleReport() {
  RunReport r;
  r.kind = "schedule";
  r.problemName = "sample";
  r.problemHash = 0xdeadbeefcafef00dULL;
  r.numTasks = 8;
  r.numResources = 5;
  r.numConstraints = 12;
  r.scheduler = "pipeline";
  r.trials = 4;
  r.jobs = 2;
  r.timeoutMs = 250;
  r.status = "ok";
  r.stopReason = "none";
  r.exitClass = 0;
  r.valid = true;
  r.message = "with \"quotes\" and\nnewlines";
  r.hasSchedule = true;
  r.finishTicks = 42;
  r.energyCostMwt = 12345;
  r.peakPowerMw = 17000;
  r.scheduleBytes = 167;
  r.metrics.add("search.backtracks", 7);
  r.metrics.set("pipeline.rho", 0.734);
  r.metrics.set("exact.int", 3.0);
  r.metrics.observe("phase.timing.wall_us", 12.5);
  r.metrics.observe("phase.timing.wall_us", 800.0);
  r.metrics.observe("effort.per_trial", 3.0);
  r.incumbents.push_back({1000, 283000});
  r.incumbents.push_back({2000, 213000});
  r.createdUnixMs = 1754700000000;
  r.host = "test-host";
  return r;
}

TEST(RunReportTest, RoundTripsThroughJsonExactly) {
  const RunReport original = sampleReport();
  const std::string json = runReportToJson(original);
  const ReportParseResult parsed = parseRunReport(json);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.report, original);
  // And a second generation is byte-identical (writer is deterministic).
  EXPECT_EQ(runReportToJson(parsed.report), json);
}

TEST(RunReportTest, RoundTripsNonIntegralDoublesExactly) {
  RunReport r;
  r.metrics.set("g.pi", 3.141592653589793);
  r.metrics.set("g.tiny", 1e-17);
  r.metrics.set("g.negative", -0.125);
  r.metrics.observe("h.vals", 0.3333333333333333);
  const ReportParseResult parsed = parseRunReport(runReportToJson(r));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.report, r);
}

TEST(RunReportTest, ParserRejectsGarbageAndNewerSchema) {
  EXPECT_FALSE(parseRunReport("not json").ok);
  EXPECT_FALSE(parseRunReport("[1,2,3]").ok);
  EXPECT_FALSE(parseRunReport("{\"schema\": 999, \"kind\": \"x\"}").ok);
  // Older/minimal documents parse with defaults intact.
  const ReportParseResult minimal =
      parseRunReport("{\"schema\": 1, \"kind\": \"simulate\"}");
  ASSERT_TRUE(minimal.ok) << minimal.error;
  EXPECT_EQ(minimal.report.kind, "simulate");
  EXPECT_EQ(minimal.report.stopReason, "none");
  EXPECT_FALSE(minimal.report.hasSchedule);
}

TEST(RunReportTest, NormalizeVolatileStripsClockHostAndTimingHistograms) {
  RunReport r = sampleReport();
  normalizeVolatile(r);
  EXPECT_EQ(r.createdUnixMs, 0);
  EXPECT_TRUE(r.host.empty());
  // Incumbent costs survive; their wall-clock timestamps do not.
  ASSERT_EQ(r.incumbents.size(), 2u);
  EXPECT_EQ(r.incumbents[0].tsNs, 0);
  EXPECT_EQ(r.incumbents[0].costMwt, 283000);
  // Timing histograms (_us/_ns) are gone, non-timing ones stay.
  EXPECT_FALSE(r.metrics.has("phase.timing.wall_us"));
  EXPECT_TRUE(r.metrics.has("effort.per_trial"));
  EXPECT_EQ(r.metrics.counter("search.backtracks"), 7u);
  // Normalizing twice is a fixed point.
  RunReport again = r;
  normalizeVolatile(again);
  EXPECT_EQ(again, r);
}

TEST(RunReportTest, Fnv1a64MatchesKnownVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(fnv1a64("problem a"), fnv1a64("problem b"));
}

// ----- golden report over the bundled satellite example -----------------

std::string readRepoFile(const std::string& relative) {
  for (const char* prefix : {"../../", "", "../"}) {
    std::ifstream in(prefix + relative);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      return buffer.str();
    }
  }
  return {};
}

/// Builds the report exactly the way `pawsc schedule --report` does, minus
/// the CLI: pipeline scheduler, obs context attached, digest + validator.
RunReport satelliteReport(const Problem& p) {
  MetricsRegistry registry;
  IncumbentLog incumbents;
  ObsContext obs;
  obs.metrics = &registry;
  obs.incumbents = &incumbents;

  PowerAwareOptions options;
  options.obs = obs;
  const ScheduleResult r = PowerAwareScheduler(p, options).schedule();
  EXPECT_TRUE(r.ok()) << r.message;

  RunReport report;
  report.kind = "schedule";
  report.problemName = p.name();
  report.problemHash = fnv1a64(io::problemToText(p));
  report.numTasks = p.numTasks();
  report.numResources = p.numResources();
  report.numConstraints = p.constraints().size();
  report.scheduler = "pipeline";
  report.trials = 4;
  report.jobs = 0;
  report.timeoutMs = -1;
  report.status = toString(r.status);
  report.exitClass = 0;
  report.metrics = registry;
  report.incumbents = incumbents.points();
  if (r.schedule.has_value()) {
    const Schedule& s = *r.schedule;
    report.hasSchedule = true;
    report.finishTicks = s.finish().ticks();
    report.energyCostMwt = s.energyCost(p.minPower()).milliwattTicks();
    report.peakPowerMw = ScheduleAnalysis::minimalValidPmax(s).milliwatts();
    std::ostringstream txt;
    io::writeSchedule(txt, s, "pipeline");
    report.scheduleBytes = txt.str().size();
    report.valid = ScheduleValidator(p).validate(s).valid();
  }
  stampVolatile(report);
  return report;
}

TEST(RunReportGoldenTest, SatelliteNormalizedReportMatchesGolden) {
  const std::string source = readRepoFile("examples/data/satellite.paws");
  ASSERT_FALSE(source.empty()) << "cannot locate examples/data/satellite.paws";
  const io::ParseResult parsed = io::parseProblem(source);
  ASSERT_TRUE(parsed.ok());

  RunReport report = satelliteReport(*parsed.problem);
  // The volatile fields really were stamped before normalization...
  EXPECT_GT(report.createdUnixMs, 0);
  normalizeVolatile(report);
  const std::string normalized = runReportToJson(report);

  // ...and two runs of the same binary agree byte for byte.
  RunReport second = satelliteReport(*parsed.problem);
  normalizeVolatile(second);
  EXPECT_EQ(runReportToJson(second), normalized);

  const std::string golden =
      readRepoFile("tests/obs/golden/satellite_report.json");
  ASSERT_FALSE(golden.empty())
      << "cannot locate tests/obs/golden/satellite_report.json";
  EXPECT_EQ(normalized, golden)
      << "normalized satellite report drifted from the golden; if the "
         "change is intentional, regenerate the golden file with the "
         "actual output above";

  // The golden also round-trips (guards the schema of the committed file).
  const ReportParseResult reparsed = parseRunReport(golden);
  ASSERT_TRUE(reparsed.ok) << reparsed.error;
  EXPECT_EQ(reparsed.report, report);
}

}  // namespace
}  // namespace paws::obs
