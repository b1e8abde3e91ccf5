#include "analysis/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "model/paper_example.hpp"
#include "rover/rover_model.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "sched/serial_scheduler.hpp"
#include "support/pipeline.hpp"

namespace paws {
namespace {

using namespace paws::literals;

/// Largest Pmin the profile sustains over its whole span (rho = 1): its
/// lowest segment level, or zero for an empty profile.
Watts lowestLevel(const PowerProfile& profile) {
  if (profile.empty()) return Watts::zero();
  Watts floor = Watts::max();
  for (const PowerSegment& s : profile.segments()) {
    floor = std::min(floor, s.power);
  }
  return floor;
}

Schedule paperFinalSchedule(const Problem& p) {
  const ScheduleResult r = testutil::runPipelineOnce(p);
  EXPECT_TRUE(r.ok());
  return *r.schedule;
}

TEST(ScheduleAnalysisTest, MinimalValidPmaxIsPeak) {
  const Problem p = makePaperExampleProblem();
  const Schedule s = paperFinalSchedule(p);
  const Watts minimal = ScheduleAnalysis::minimalValidPmax(s);
  EXPECT_EQ(minimal, s.powerProfile().peak());
  // The paper's claim for Fig. 7: valid for all Pmax >= 16. Our final
  // schedule peaks at 15 W, so the claim holds with room to spare.
  EXPECT_LE(minimal, 16_W);
  EXPECT_TRUE(s.powerProfile().spikes(minimal).empty());
  EXPECT_FALSE(
      s.powerProfile().spikes(minimal - Watts::fromMilliwatts(1)).empty());
}

TEST(ScheduleAnalysisTest, EnergyCostCurveIsExactAtBreakpoints) {
  const Problem p = makePaperExampleProblem();
  const Schedule s = paperFinalSchedule(p);
  const auto curve = ScheduleAnalysis::energyCostCurve(s);
  ASSERT_GE(curve.size(), 2u);
  // Ascending pmin, descending cost.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].pmin, curve[i - 1].pmin);
    EXPECT_LE(curve[i].cost, curve[i - 1].cost);
  }
  // First breakpoint: pmin = 0 -> total energy; last: peak -> zero cost.
  EXPECT_EQ(curve.front().pmin, Watts::zero());
  EXPECT_EQ(curve.front().cost, s.powerProfile().totalEnergy());
  EXPECT_EQ(curve.back().cost, Energy::zero());
  // Every breakpoint agrees with direct evaluation.
  for (const EcBreakpoint& bp : curve) {
    EXPECT_EQ(bp.cost, s.powerProfile().energyAbove(bp.pmin));
  }
}

TEST(ScheduleAnalysisTest, SustainedFloor) {
  const Problem p = makePaperExampleProblem();
  const Schedule s = paperFinalSchedule(p);
  const PowerProfile& profile = s.powerProfile();
  const Watts floor = lowestLevel(profile);
  EXPECT_DOUBLE_EQ(profile.utilization(floor), 1.0);
  if (floor > Watts::zero()) {
    EXPECT_LT(profile.utilization(floor + Watts::fromMilliwatts(1)), 1.0);
  }
}

TEST(ScheduleAnalysisTest, WorstCaseRoverSustains9W) {
  // Table 3's worst-case row has rho = 100%: the serial schedule sustains
  // the full 9 W solar level throughout.
  const Problem p = rover::makeRoverProblem(rover::RoverCase::kWorst);
  const ScheduleResult r = SerialScheduler(p).schedule();
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.schedule->powerProfile().utilization(9_W), 1.0);
}

}  // namespace
}  // namespace paws
