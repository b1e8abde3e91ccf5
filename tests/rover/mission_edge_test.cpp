// Phase-boundary and degenerate-input behavior of the mission simulator.
#include <gtest/gtest.h>

#include "rover/mission.hpp"

namespace paws::rover {
namespace {

using namespace paws::literals;

SchedulePolicy flatPolicy(Duration span, Energy cost) {
  SchedulePolicy policy;
  for (CasePlan* plan : {&policy.best, &policy.typical, &policy.worst}) {
    plan->firstSpan = plan->steadySpan = span;
    plan->firstCost = plan->steadyCost = cost;
    plan->stepsPerIteration = 2;
  }
  policy.best.environment = RoverCase::kBest;
  policy.typical.environment = RoverCase::kTypical;
  policy.worst.environment = RoverCase::kWorst;
  return policy;
}

TEST(MissionEdgeTest, IterationStartingExactlyAtPhaseSwitchUsesNewPhase) {
  // 60 s iterations against a 600 s phase boundary: iteration 10 starts at
  // exactly 600 and must be attributed to the 12 W phase.
  const SolarSource solar({{Time(0), Watts::fromWatts(14.9)},
                           {Time(600), 12_W}});
  MissionSimulator sim(solar, missionBattery());
  const MissionResult r = sim.run(flatPolicy(Duration(60), 10_J), 24);
  ASSERT_EQ(r.phases.size(), 2u);
  EXPECT_EQ(r.phases[0].iterations, 10);
  EXPECT_EQ(r.phases[0].solar, Watts::fromWatts(14.9));
  EXPECT_EQ(r.phases[1].iterations, 2);
  EXPECT_EQ(r.phases[1].solar, 12_W);
}

TEST(MissionEdgeTest, IterationStraddlingASwitchKeepsItsStartPhasePlan) {
  // 75 s iterations over a 100 s first phase: iteration 2 starts at 75
  // (still phase 1) and runs into phase 2; it must be billed to phase 1.
  const SolarSource solar({{Time(0), Watts::fromWatts(14.9)},
                           {Time(100), 9_W}});
  MissionSimulator sim(solar, missionBattery());
  const MissionResult r = sim.run(flatPolicy(Duration(75), 10_J), 6);
  ASSERT_EQ(r.phases.size(), 2u);
  EXPECT_EQ(r.phases[0].iterations, 2) << "t=0 and t=75 both see 14.9W";
  EXPECT_EQ(r.phases[1].iterations, 1);
}

TEST(MissionEdgeTest, OddTargetRoundsUpToWholeIterations) {
  MissionSimulator sim(SolarSource({{Time(0), 9_W}}), missionBattery());
  const MissionResult r = sim.run(flatPolicy(Duration(75), 10_J), 5);
  EXPECT_EQ(r.steps, 6) << "three 2-step iterations cover a 5-step target";
}

TEST(MissionEdgeTest, ZeroCostPlansNeverDepleteTheBattery) {
  MissionSimulator sim(SolarSource({{Time(0), Watts::fromWatts(14.9)}}),
                       Battery(10_W, 1_J));
  const MissionResult r =
      sim.run(flatPolicy(Duration(50), Energy::zero()), 48);
  EXPECT_FALSE(r.batteryDepleted);
  EXPECT_EQ(r.steps, 48);
  EXPECT_EQ(r.cost, Energy::zero());
}

}  // namespace
}  // namespace paws::rover
