#include "analysis/battery_stress.hpp"

#include <gtest/gtest.h>

#include "model/paper_example.hpp"
#include "sched/max_power_scheduler.hpp"
#include "support/pipeline.hpp"

namespace paws {
namespace {

using namespace paws::literals;

PowerProfile stairProfile() {
  // 6W on [0,5), 14W on [5,10), 8W on [10,20).
  PowerProfileBuilder b;
  b.add(Interval(Time(0), Time(20)), 6_W);
  b.add(Interval(Time(5), Time(10)), 8_W);
  b.add(Interval(Time(10), Time(20)), 2_W);
  return b.build();
}

TEST(BatteryStressTest, DrawCurveMeasures) {
  // Free level 6W: draw = 0, 8, 2 over the three segments.
  const BatteryStressReport r = analyzeBatteryStress(stairProfile(), 6_W);
  EXPECT_EQ(r.peakDraw, 8_W);
  EXPECT_EQ(r.drawnEnergy, 8_W * Duration(5) + 2_W * Duration(10));
  // Steps of the draw curve: 0->8 (8), 8->2 (6), 2->0 (2): jitter 8W.
  EXPECT_EQ(r.jitter, 8_W);
  // Mean over the 20s span: 60 J / 20 s = 3 W.
  EXPECT_EQ(r.meanDraw, 3_W);
  // Ohmic proxy: 8000^2*5 + 2000^2*10.
  EXPECT_EQ(r.squaredDrawIntegral, 8000ull * 8000 * 5 + 2000ull * 2000 * 10);
}

TEST(BatteryStressTest, NoDrawBelowFreeLevel) {
  const BatteryStressReport r = analyzeBatteryStress(stairProfile(), 20_W);
  EXPECT_EQ(r.peakDraw, Watts::zero());
  EXPECT_EQ(r.drawnEnergy, Energy::zero());
  EXPECT_EQ(r.jitter, Watts::zero());
  EXPECT_EQ(r.squaredDrawIntegral, 0u);
}

TEST(BatteryStressTest, EmptyProfile) {
  const PowerProfile empty;
  const BatteryStressReport r = analyzeBatteryStress(empty, 5_W);
  EXPECT_EQ(r.meanDraw, Watts::zero());
  EXPECT_EQ(r.drawnEnergy, Energy::zero());
}

TEST(BatteryStressTest, MinPowerSchedulingNeverWorsensTheDrawCurve) {
  // The paper's jitter claim on the running example: gap filling flattens
  // the battery draw. Compare max-power-only vs the full pipeline.
  const Problem p = makePaperExampleProblem();
  MaxPowerScheduler maxOnly(p);
  const ScheduleResult before = maxOnly.schedule();
  const ScheduleResult after = testutil::runPipelineOnce(p);
  ASSERT_TRUE(before.ok() && after.ok());

  const BatteryStressReport rb =
      analyzeBatteryStress(before.schedule->powerProfile(), p.minPower());
  const BatteryStressReport ra =
      analyzeBatteryStress(after.schedule->powerProfile(), p.minPower());
  EXPECT_LE(ra.drawnEnergy, rb.drawnEnergy);
  EXPECT_LE(ra.peakDraw, rb.peakDraw);
  EXPECT_LE(ra.squaredDrawIntegral, rb.squaredDrawIntegral);
  // On this instance the improvement is strict.
  EXPECT_LT(ra.drawnEnergy, rb.drawnEnergy);
}

}  // namespace
}  // namespace paws
