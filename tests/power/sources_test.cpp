#include "power/sources.hpp"

#include <gtest/gtest.h>

#include "base/check.hpp"

namespace paws {
namespace {

using namespace paws::literals;

SolarSource missionSolar() {
  // Table 4's scenario: 14.9W, then 12W at 600s, then 9W at 1200s.
  return SolarSource({{Time(0), Watts::fromWatts(14.9)},
                      {Time(600), 12_W},
                      {Time(1200), 9_W}});
}

TEST(SolarSourceTest, ConstantLevel) {
  const SolarSource s({{Time(0), 12_W}});
  EXPECT_EQ(s.levelAt(Time(0)), 12_W);
  EXPECT_EQ(s.levelAt(Time(100000)), 12_W);
  EXPECT_FALSE(s.nextChangeAfter(Time(0)).has_value());
}

TEST(SolarSourceTest, PhasedLevels) {
  const SolarSource s = missionSolar();
  EXPECT_EQ(s.levelAt(Time(0)), Watts::fromWatts(14.9));
  EXPECT_EQ(s.levelAt(Time(599)), Watts::fromWatts(14.9));
  EXPECT_EQ(s.levelAt(Time(600)), 12_W);
  EXPECT_EQ(s.levelAt(Time(1199)), 12_W);
  EXPECT_EQ(s.levelAt(Time(1200)), 9_W);
  EXPECT_EQ(s.levelAt(Time(99999)), 9_W);
}

TEST(SolarSourceTest, NextChange) {
  const SolarSource s = missionSolar();
  ASSERT_TRUE(s.nextChangeAfter(Time(0)).has_value());
  EXPECT_EQ(*s.nextChangeAfter(Time(0)), Time(600));
  EXPECT_EQ(*s.nextChangeAfter(Time(599)), Time(600));
  EXPECT_EQ(*s.nextChangeAfter(Time(600)), Time(1200));
  EXPECT_FALSE(s.nextChangeAfter(Time(1200)).has_value());
}

TEST(SolarSourceTest, RejectsBadPhaseLists) {
  EXPECT_THROW(SolarSource(std::vector<SolarSource::Phase>{}), CheckError);
  EXPECT_THROW(SolarSource({{Time(5), 9_W}}), CheckError);
  EXPECT_THROW(SolarSource({{Time(0), 9_W}, {Time(0), 8_W}}), CheckError);
}

TEST(SolarSourceTest, RejectsNegativeTime) {
  const SolarSource s({{Time(0), 10_W}});
  EXPECT_THROW((void)s.levelAt(Time(-1)), CheckError);
}

TEST(BatteryTest, Accounting) {
  Battery b(10_W, 100_J);
  EXPECT_EQ(b.remaining(), 100_J);
  EXPECT_TRUE(b.draw(30_J));
  EXPECT_EQ(b.drawn(), 30_J);
  EXPECT_EQ(b.remaining(), 70_J);
  EXPECT_FALSE(b.depleted());
  EXPECT_TRUE(b.draw(70_J));
  EXPECT_TRUE(b.depleted());
}

TEST(BatteryTest, OverdrawClampsAndReportsFalse) {
  Battery b(10_W, 50_J);
  EXPECT_FALSE(b.draw(80_J));
  EXPECT_EQ(b.drawn(), 50_J);
  EXPECT_TRUE(b.depleted());
}

TEST(BatteryTest, Reset) {
  Battery b(10_W, 50_J);
  b.draw(20_J);
  b.reset();
  EXPECT_EQ(b.drawn(), Energy::zero());
}

TEST(BatteryTest, RejectsNegativeDraw) {
  Battery b(10_W, 50_J);
  EXPECT_THROW(b.draw(Energy::fromMilliwattTicks(-1)), CheckError);
}

TEST(BatteryTest, DepletedAtLatchedByFirstClampingDraw) {
  Battery b(10_W, 50_J);
  EXPECT_FALSE(b.depletedAt().has_value());
  EXPECT_TRUE(b.draw(20_J, Time(5)));
  EXPECT_FALSE(b.depletedAt().has_value());
  EXPECT_FALSE(b.draw(80_J, Time(12)));
  ASSERT_TRUE(b.depletedAt().has_value());
  EXPECT_EQ(*b.depletedAt(), Time(12));
  // The latch keeps the FIRST depletion instant.
  EXPECT_FALSE(b.draw(1_J, Time(99)));
  EXPECT_EQ(*b.depletedAt(), Time(12));
  b.reset();
  EXPECT_FALSE(b.depletedAt().has_value());
}

TEST(BatteryTest, MarkDepletedLatchesWithoutDrawing) {
  Battery b(10_W, 50_J);
  b.markDepleted(Time(7));
  ASSERT_TRUE(b.depletedAt().has_value());
  EXPECT_EQ(*b.depletedAt(), Time(7));
  EXPECT_EQ(b.drawn(), Energy::zero());
  b.markDepleted(Time(9));  // no-op: already latched
  EXPECT_EQ(*b.depletedAt(), Time(7));
}

BatteryTraits twoBandTraits() {
  BatteryTraits traits;
  traits.bands.push_back(RateBand{2_W, 1250});
  traits.bands.push_back(RateBand{6_W, 1600});
  traits.recoverablePermille = 300;
  traits.recoveryRate = Watts::fromMilliwatts(500);
  return traits;
}

TEST(BatteryTraitsTest, EffectiveRateLookup) {
  const BatteryTraits traits = twoBandTraits();
  // Bands rule draws STRICTLY above their threshold.
  EXPECT_EQ(traits.effectiveRate(1_W), 1_W);
  EXPECT_EQ(traits.effectiveRate(2_W), 2_W);
  EXPECT_EQ(traits.effectiveRate(3_W), Watts::fromMilliwatts(3750));
  EXPECT_EQ(traits.effectiveRate(6_W), Watts::fromMilliwatts(7500));
  EXPECT_EQ(traits.effectiveRate(7_W), Watts::fromMilliwatts(11200));
  EXPECT_EQ(traits.effectiveRate(Watts::zero()), Watts::zero());
  EXPECT_TRUE(BatteryTraits{}.linear());
  EXPECT_FALSE(traits.linear());
}

TEST(BatteryTest, DrawAtBanksRecoverableExcess) {
  Battery b(10_W, 1000_J, twoBandTraits());
  // 4 W for 10 ticks: effective 5 W, 10 J excess, 3 J banked (300 pm).
  EXPECT_TRUE(b.drawAt(4_W, Duration(10), Time(10)));
  EXPECT_EQ(b.drawn(), 50_J);
  EXPECT_EQ(b.rateExcess(), 10_J);
  EXPECT_EQ(b.recoverable(), 3_J);
  // Recovery refunds at 0.5 W, capped by the bank.
  b.recover(Duration(2));
  EXPECT_EQ(b.drawn(), 49_J);
  EXPECT_EQ(b.recovered(), 1_J);
  EXPECT_EQ(b.recoverable(), 2_J);
  b.recover(Duration(1000));
  EXPECT_EQ(b.drawn(), 47_J);
  EXPECT_EQ(b.recovered(), 3_J);
  EXPECT_EQ(b.recoverable(), Energy::zero());
  b.recover(Duration(1000));  // empty bank: no-op
  EXPECT_EQ(b.drawn(), 47_J);
}

TEST(BatteryTest, LinearModelIsExactIdentity) {
  Battery linear(10_W, 100_J);
  EXPECT_TRUE(linear.model().linear());
  EXPECT_EQ(linear.effectiveRate(7_W), 7_W);
  EXPECT_TRUE(linear.drawAt(7_W, Duration(10), Time(10)));
  EXPECT_EQ(linear.drawn(), 70_J);
  EXPECT_EQ(linear.rateExcess(), Energy::zero());
  EXPECT_EQ(linear.recoverable(), Energy::zero());
  linear.recover(Duration(1000));
  EXPECT_EQ(linear.drawn(), 70_J);  // nothing banked, nothing refunded

  Battery plain(10_W, 100_J);
  EXPECT_TRUE(plain.draw(7_W * Duration(10), Time(10)));
  EXPECT_EQ(plain.drawn(), linear.drawn());
}

TEST(BatteryTest, InheritAccountingCarriesStateAcrossDerate) {
  Battery b(10_W, 1000_J, twoBandTraits());
  EXPECT_TRUE(b.drawAt(4_W, Duration(10), Time(10)));
  b.markDepleted(Time(42));
  Battery derated(5_W, 500_J, b.model());
  derated.inheritAccounting(b);
  EXPECT_EQ(derated.recoverable(), b.recoverable());
  EXPECT_EQ(derated.rateExcess(), b.rateExcess());
  EXPECT_EQ(derated.recovered(), b.recovered());
  ASSERT_TRUE(derated.depletedAt().has_value());
  EXPECT_EQ(*derated.depletedAt(), Time(42));
}

TEST(BatteryTest, RejectsMalformedTraits) {
  BatteryTraits bad = twoBandTraits();
  bad.bands[0].factorPermille = 900;  // would make draws cheaper
  EXPECT_THROW(Battery(10_W, 100_J, bad), CheckError);
  BatteryTraits unordered = twoBandTraits();
  std::swap(unordered.bands[0], unordered.bands[1]);
  EXPECT_THROW(Battery(10_W, 100_J, unordered), CheckError);
  BatteryTraits fraction = twoBandTraits();
  fraction.recoverablePermille = 1001;
  EXPECT_THROW(Battery(10_W, 100_J, fraction), CheckError);
}

}  // namespace
}  // namespace paws
