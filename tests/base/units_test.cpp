#include "base/units.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "base/check.hpp"
#include "base/time.hpp"

namespace paws {
namespace {

using namespace paws::literals;

TEST(WattsTest, FixedPointConstruction) {
  EXPECT_EQ(Watts::fromWatts(14.9).milliwatts(), 14900);
  EXPECT_EQ(Watts::fromWatts(0.0).milliwatts(), 0);
  EXPECT_EQ(Watts::fromWatts(3.7).milliwatts(), 3700);
  EXPECT_EQ(Watts::fromMilliwatts(250).milliwatts(), 250);
}

TEST(WattsTest, LiteralsMatchFactories) {
  EXPECT_EQ(12.5_W, Watts::fromWatts(12.5));
  EXPECT_EQ(7_W, Watts::fromWatts(7.0));
  EXPECT_EQ(300_mW, Watts::fromMilliwatts(300));
}

TEST(WattsTest, ArithmeticIsExact) {
  // Classic floating-point trap: 0.1 + 0.2 != 0.3. Fixed point is exact.
  EXPECT_EQ(Watts::fromWatts(0.1) + Watts::fromWatts(0.2),
            Watts::fromWatts(0.3));
  Watts sum;
  for (int i = 0; i < 1000; ++i) sum += Watts::fromWatts(0.1);
  EXPECT_EQ(sum, Watts::fromWatts(100.0));
}

TEST(WattsTest, Comparisons) {
  EXPECT_LT(Watts::fromWatts(9.0), Watts::fromWatts(9.001));
  EXPECT_GT(Watts::fromWatts(-1.0), Watts::fromWatts(-2.0));
  EXPECT_LE(Watts::zero(), Watts::zero());
}

TEST(WattsTest, Negation) {
  EXPECT_EQ((-Watts::fromWatts(5.5)).milliwatts(), -5500);
  EXPECT_EQ(Watts::fromWatts(3.0) - Watts::fromWatts(5.0),
            -Watts::fromWatts(2.0));
}

TEST(WattsTest, Printing) {
  auto str = [](Watts w) {
    std::ostringstream os;
    os << w;
    return os.str();
  };
  EXPECT_EQ(str(Watts::fromWatts(14.9)), "14.9W");
  EXPECT_EQ(str(Watts::fromWatts(10.0)), "10W");
  EXPECT_EQ(str(Watts::fromMilliwatts(25)), "0.025W");
  EXPECT_EQ(str(Watts::fromMilliwatts(-500)), "-0.5W");
  EXPECT_EQ(str(Watts::zero()), "0W");
}

TEST(EnergyTest, PowerTimesDuration) {
  const Energy e = Watts::fromWatts(10.0) * Duration(75);
  EXPECT_EQ(e.joules(), 750.0);
  EXPECT_EQ(e.milliwattTicks(), 750000);
  EXPECT_EQ(Duration(75) * Watts::fromWatts(10.0), e);
}

TEST(EnergyTest, TableTwoWorstCaseEnergyCheck) {
  // Driving draws 13.8 W for 10 s in the worst case: 138 J.
  EXPECT_EQ(Watts::fromWatts(13.8) * Duration(10),
            Energy::fromMilliwattTicks(138000));
}

TEST(EnergyTest, Ratio) {
  const Energy half = Watts::fromWatts(5.0) * Duration(10);
  const Energy full = Watts::fromWatts(10.0) * Duration(10);
  EXPECT_DOUBLE_EQ(half.ratioOf(full), 0.5);
  EXPECT_DOUBLE_EQ(full.ratioOf(full), 1.0);
}

TEST(EnergyTest, RatioRejectsNonPositiveDenominator) {
  EXPECT_THROW((void)Energy::zero().ratioOf(Energy::zero()), CheckError);
}

TEST(EnergyTest, Printing) {
  std::ostringstream os;
  os << Watts::fromWatts(1.5) * Duration(3);
  EXPECT_EQ(os.str(), "4.5J");
}

TEST(TimeTest, Arithmetic) {
  const Time t(10);
  EXPECT_EQ((t + Duration(5)).ticks(), 15);
  EXPECT_EQ((t - Duration(3)).ticks(), 7);
  EXPECT_EQ((Time(25) - Time(10)).ticks(), 15);
}

TEST(TimeTest, Sentinels) {
  EXPECT_LT(Time::minusInfinity(), Time(-1000000));
  EXPECT_GT(Time::max(), Time(1000000));
}

TEST(DurationTest, Literals) {
  EXPECT_EQ((5_s).ticks(), 5);
  EXPECT_EQ((50_ticks).ticks(), 50);
}

TEST(DurationTest, Arithmetic) {
  EXPECT_EQ((Duration(10) + Duration(-3)).ticks(), 7);
  EXPECT_EQ((Duration(10) * 3).ticks(), 30);
  EXPECT_TRUE(Duration(-1).isNegative());
  EXPECT_TRUE(Duration::zero().isZero());
}

TEST(CheckTest, ThrowsWithExpressionText) {
  try {
    PAWS_CHECK_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace paws
