#include "power/profile.hpp"

#include <gtest/gtest.h>

namespace paws {
namespace {

using namespace paws::literals;

PowerProfile rectangles() {
  // 5W on [0,10), plus 5W on [5,15): staircase 5,10,5.
  PowerProfileBuilder b;
  b.add(Interval(Time(0), Time(10)), 5_W);
  b.add(Interval(Time(5), Time(15)), 5_W);
  return b.build();
}

TEST(PowerProfileTest, EmptyProfile) {
  PowerProfileBuilder b;
  const PowerProfile p = b.build();
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.finish(), Time(0));
  EXPECT_EQ(p.totalEnergy(), Energy::zero());
  EXPECT_EQ(p.peak(), Watts::zero());
  EXPECT_DOUBLE_EQ(p.utilization(5_W), 1.0);
}

TEST(PowerProfileTest, StaircaseSegments) {
  const PowerProfile p = rectangles();
  ASSERT_EQ(p.segments().size(), 3u);
  EXPECT_EQ(p.segments()[0].interval, Interval(Time(0), Time(5)));
  EXPECT_EQ(p.segments()[0].power, 5_W);
  EXPECT_EQ(p.segments()[1].interval, Interval(Time(5), Time(10)));
  EXPECT_EQ(p.segments()[1].power, 10_W);
  EXPECT_EQ(p.segments()[2].interval, Interval(Time(10), Time(15)));
  EXPECT_EQ(p.segments()[2].power, 5_W);
  EXPECT_EQ(p.finish(), Time(15));
}

TEST(PowerProfileTest, ValueAt) {
  const PowerProfile p = rectangles();
  EXPECT_EQ(p.valueAt(Time(0)), 5_W);
  EXPECT_EQ(p.valueAt(Time(5)), 10_W);
  EXPECT_EQ(p.valueAt(Time(9)), 10_W);
  EXPECT_EQ(p.valueAt(Time(10)), 5_W);
  EXPECT_EQ(p.valueAt(Time(14)), 5_W);
  EXPECT_EQ(p.valueAt(Time(15)), Watts::zero()) << "half-open end";
  EXPECT_EQ(p.valueAt(Time(-1)), Watts::zero());
}

TEST(PowerProfileTest, BackgroundCoversWholeSpan) {
  PowerProfileBuilder b;
  b.add(Interval(Time(5), Time(10)), 4_W);
  const PowerProfile p = b.build(2_W);
  EXPECT_EQ(p.valueAt(Time(0)), 2_W);
  EXPECT_EQ(p.valueAt(Time(7)), 6_W);
  EXPECT_EQ(p.totalEnergy(), 2_W * Duration(10) + 4_W * Duration(5));
}

TEST(PowerProfileTest, MergesEqualPowerNeighbours) {
  PowerProfileBuilder b;
  b.add(Interval(Time(0), Time(5)), 3_W);
  b.add(Interval(Time(5), Time(10)), 3_W);
  const PowerProfile p = b.build();
  ASSERT_EQ(p.segments().size(), 1u);
  EXPECT_EQ(p.segments()[0].interval, Interval(Time(0), Time(10)));
}

TEST(PowerProfileTest, PeakAndTotalEnergy) {
  const PowerProfile p = rectangles();
  EXPECT_EQ(p.peak(), 10_W);
  EXPECT_EQ(p.totalEnergy(), 5_W * Duration(10) + 5_W * Duration(10));
}

TEST(PowerProfileTest, EnergyAboveFloor) {
  const PowerProfile p = rectangles();
  // Above 6W: only the [5,10) segment at 10W exceeds -> 4W * 5s = 20J.
  EXPECT_EQ(p.energyAbove(6_W), Energy::fromMilliwattTicks(20000));
  EXPECT_EQ(p.energyAbove(10_W), Energy::zero());
  EXPECT_EQ(p.energyAbove(Watts::zero()), p.totalEnergy());
}

TEST(PowerProfileTest, EnergyCappedIsComplementOfAbove) {
  const PowerProfile p = rectangles();
  for (const Watts cap : {2_W, 5_W, 7_W, 10_W, 20_W}) {
    EXPECT_EQ(p.energyCappedAt(cap) + p.energyAbove(cap), p.totalEnergy());
  }
}

TEST(PowerProfileTest, Utilization) {
  const PowerProfile p = rectangles();
  // Floor 5W over 15s: min(P,5) = 5 everywhere -> rho = 1.
  EXPECT_DOUBLE_EQ(p.utilization(5_W), 1.0);
  // Floor 10W: capped integral = 5*5 + 10*5 + 5*5 = 100, avail = 150.
  EXPECT_DOUBLE_EQ(p.utilization(10_W), 100.0 / 150.0);
  // Pmin = 0 is the conventional special case.
  EXPECT_DOUBLE_EQ(p.utilization(Watts::zero()), 1.0);
}

TEST(PowerProfileTest, SpikesAndGaps) {
  const PowerProfile p = rectangles();
  const auto spikes = p.spikes(8_W);
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_EQ(spikes[0], Interval(Time(5), Time(10)));
  const auto gaps = p.gaps(8_W);
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_EQ(gaps[0], Interval(Time(0), Time(5)));
  EXPECT_EQ(gaps[1], Interval(Time(10), Time(15)));
  EXPECT_TRUE(p.spikes(10_W).empty());
  EXPECT_TRUE(p.gaps(5_W).empty());
}

TEST(PowerProfileTest, AdjacentViolationSegmentsCoalesce) {
  PowerProfileBuilder b;
  b.add(Interval(Time(0), Time(5)), 9_W);
  b.add(Interval(Time(5), Time(10)), 11_W);
  const PowerProfile p = b.build();
  const auto spikes = p.spikes(8_W);
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_EQ(spikes[0], Interval(Time(0), Time(10)));
}

TEST(PowerProfileTest, FirstSpikeAndFirstGap) {
  const PowerProfile p = rectangles();
  ASSERT_TRUE(p.firstSpike(8_W).has_value());
  EXPECT_EQ(*p.firstSpike(8_W), Time(5));
  EXPECT_FALSE(p.firstSpike(12_W).has_value());
  // The first gap opens where the gap list starts.
  ASSERT_FALSE(p.gaps(8_W).empty());
  EXPECT_EQ(p.gaps(8_W).front().begin(), Time(0));
}

TEST(PowerProfileTest, ZeroPowerContributionOnlyExtendsSpan) {
  PowerProfileBuilder b;
  b.add(Interval(Time(0), Time(5)), 2_W);
  b.add(Interval(Time(5), Time(20)), Watts::zero());
  const PowerProfile p = b.build();
  EXPECT_EQ(p.finish(), Time(20));
  EXPECT_EQ(p.valueAt(Time(10)), Watts::zero());
}

TEST(PowerProfileTest, OverlappingManyTasksSumExactly) {
  PowerProfileBuilder b;
  for (int i = 0; i < 100; ++i) {
    b.add(Interval(Time(0), Time(10)), Watts::fromWatts(0.1));
  }
  const PowerProfile p = b.build();
  ASSERT_EQ(p.segments().size(), 1u);
  EXPECT_EQ(p.segments()[0].power, 10_W) << "fixed point: no rounding drift";
}

}  // namespace
}  // namespace paws
