// Second property sweep: serialization, window, and analysis invariants
// over seeded random instances.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/analysis.hpp"
#include "analysis/battery_stress.hpp"
#include "gen/random_problem.hpp"
#include "graph/longest_path.hpp"
#include "io/parser.hpp"
#include "io/schedule_io.hpp"
#include "io/writer.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/max_power_scheduler.hpp"
#include "sched/min_power_scheduler.hpp"
#include "sched/timing_scheduler.hpp"
#include "sched/windows.hpp"
#include "validate/validator.hpp"

namespace paws {
namespace {

class SeededIoAnalysis : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  GeneratedProblem generate() const {
    GeneratorConfig cfg;
    cfg.seed = GetParam();
    cfg.numTasks = 16;
    cfg.numResources = 4;
    cfg.pmaxHeadroomMw = 500;
    return generateRandomProblem(cfg);
  }
};

TEST_P(SeededIoAnalysis, ProblemTextRoundTripsExactly) {
  const GeneratedProblem gp = generate();
  const std::string text = io::problemToText(gp.problem);
  const io::ParseResult parsed = io::parseProblem(text);
  ASSERT_TRUE(parsed.ok())
      << "seed " << GetParam() << ": " << io::format(parsed.errors[0]);
  const Problem& back = *parsed.problem;
  ASSERT_EQ(back.numTasks(), gp.problem.numTasks());
  ASSERT_EQ(back.constraints().size(), gp.problem.constraints().size());
  for (TaskId v : gp.problem.taskIds()) {
    const Task& orig = gp.problem.task(v);
    const auto found = back.findTask(orig.name);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(back.task(*found).delay, orig.delay);
    EXPECT_EQ(back.task(*found).power, orig.power);
  }
  EXPECT_EQ(back.maxPower(), gp.problem.maxPower());
  EXPECT_EQ(back.minPower(), gp.problem.minPower());
  // The witness stays valid against the reparsed problem (ids preserved).
  const Schedule witness(&back, gp.witnessStarts);
  EXPECT_TRUE(ScheduleValidator(back).validate(witness).valid());
}

TEST_P(SeededIoAnalysis, ScheduleTextRoundTripsExactly) {
  const GeneratedProblem gp = generate();
  const Schedule witness(&gp.problem, gp.witnessStarts);
  const std::string text = io::scheduleToText(witness, "witness");
  const io::ScheduleParseResult parsed = io::parseSchedule(text, gp.problem);
  ASSERT_TRUE(parsed.ok()) << "seed " << GetParam();
  EXPECT_EQ(parsed.schedule->starts(), witness.starts());
}

TEST_P(SeededIoAnalysis, WindowsContainEveryScheduleWithinTheHorizon) {
  const GeneratedProblem gp = generate();
  ConstraintGraph g = gp.problem.buildGraph();
  LongestPathEngine engine(g);
  TimingScheduler ts(gp.problem);
  SchedulerStats stats;
  const auto out = ts.run(g, engine, stats);
  ASSERT_TRUE(out.ok);
  const Time finish = finishOf(gp.problem, out.starts);
  const auto windows = computeStartWindows(gp.problem, g, finish);
  for (TaskId v : gp.problem.taskIds()) {
    EXPECT_GE(out.starts[v.index()], windows[v.index()].earliest)
        << "seed " << GetParam();
    EXPECT_LE(out.starts[v.index()], windows[v.index()].latest)
        << "seed " << GetParam();
  }
  // The witness also fits within windows for ITS horizon, computed on the
  // user graph (no serialization decisions).
  const ConstraintGraph userGraph = gp.problem.buildGraph();
  const Time wfinish = finishOf(gp.problem, gp.witnessStarts);
  const auto userWindows =
      computeStartWindows(gp.problem, userGraph, wfinish);
  for (TaskId v : gp.problem.taskIds()) {
    EXPECT_GE(gp.witnessStarts[v.index()], userWindows[v.index()].earliest);
    EXPECT_LE(gp.witnessStarts[v.index()], userWindows[v.index()].latest);
  }
}

TEST_P(SeededIoAnalysis, EcCurveIsConvexDecreasingAndExact) {
  const GeneratedProblem gp = generate();
  const Schedule witness(&gp.problem, gp.witnessStarts);
  const auto curve = ScheduleAnalysis::energyCostCurve(witness);
  ASSERT_GE(curve.size(), 1u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i].cost, curve[i - 1].cost);
    // Midpoint evaluation lies on the chord or below (convexity of
    // integral of max(0, P - x)).
    const Watts mid = Watts::fromMilliwatts(
        (curve[i - 1].pmin.milliwatts() + curve[i].pmin.milliwatts()) / 2);
    const Energy at = witness.powerProfile().energyAbove(mid);
    EXPECT_LE(at, curve[i - 1].cost);
    EXPECT_GE(at, curve[i].cost);
  }
  EXPECT_EQ(curve.back().cost, Energy::zero());
}

TEST_P(SeededIoAnalysis, MinPowerStageNeverWorsensBatteryStress) {
  const GeneratedProblem gp = generate();
  MaxPowerScheduler maxOnly(gp.problem);
  const ScheduleResult before = maxOnly.schedule();
  if (!before.ok()) {
    SUCCEED();
    return;
  }
  MinPowerScheduler pipeline(gp.problem);
  const ScheduleResult after = pipeline.improve(*before.schedule);
  ASSERT_TRUE(after.ok());
  const Watts pmin = gp.problem.minPower();
  const BatteryStressReport rb =
      analyzeBatteryStress(before.schedule->powerProfile(), pmin);
  const BatteryStressReport ra =
      analyzeBatteryStress(after.schedule->powerProfile(), pmin);
  EXPECT_LE(ra.drawnEnergy, rb.drawnEnergy) << "seed " << GetParam();
}

TEST_P(SeededIoAnalysis, ListSchedulerNeverExceedsTheBudget) {
  const GeneratedProblem gp = generate();
  ListScheduler list(gp.problem);
  const ScheduleResult r = list.schedule();
  if (!r.ok()) {
    SUCCEED();
    return;
  }
  EXPECT_TRUE(
      r.schedule->powerProfile().spikes(gp.problem.maxPower()).empty())
      << "seed " << GetParam();
}

TEST_P(SeededIoAnalysis, SustainedFloorIsTightOnTheWitness) {
  const GeneratedProblem gp = generate();
  const Schedule witness(&gp.problem, gp.witnessStarts);
  const PowerProfile& profile = witness.powerProfile();
  // The lowest segment level is sustained over the whole span.
  Watts floor = profile.empty() ? Watts::zero() : Watts::max();
  for (const PowerSegment& s : profile.segments()) {
    floor = std::min(floor, s.power);
  }
  EXPECT_DOUBLE_EQ(profile.utilization(floor), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededIoAnalysis, ::testing::Range(1u, 25u));

}  // namespace
}  // namespace paws
