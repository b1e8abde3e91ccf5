#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include "fault/model.hpp"
#include "fault/rng.hpp"

namespace paws::fault {
namespace {

using namespace paws::literals;

// ---------------------------------------------------------------- SplitMix64

TEST(SplitMix64Test, IsDeterministicAndSeedSensitive) {
  SplitMix64 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    EXPECT_NE(va, c.next());  // astronomically unlikely to collide 100x
  }
}

TEST(SplitMix64Test, RangeStaysInBounds) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.range(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
  // Degenerate range is the constant.
  EXPECT_EQ(rng.range(9, 9), 9);
}

TEST(SplitMix64Test, ChanceExtremes) {
  SplitMix64 rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0));
    EXPECT_TRUE(rng.chance(1000));
  }
}

TEST(MixSeedTest, StreamsAreIndependent) {
  // Different (mission, salt) pairs must give different streams; the same
  // pair must give the same stream.
  EXPECT_EQ(mixSeed(1, 5, 2), mixSeed(1, 5, 2));
  EXPECT_NE(mixSeed(1, 5, 2), mixSeed(1, 5, 3));
  EXPECT_NE(mixSeed(1, 5, 2), mixSeed(1, 6, 2));
  EXPECT_NE(mixSeed(1, 5, 2), mixSeed(2, 5, 2));
}

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlanTest, NamedConstructorsFillTheirKind) {
  const Fault o = FaultPlan::overrun("drive1", 3, 150, Duration(2));
  EXPECT_EQ(o.kind, FaultKind::kTaskOverrun);
  EXPECT_EQ(o.task, "drive1");
  EXPECT_EQ(o.iteration, 3u);
  EXPECT_EQ(o.scalePct, 150u);
  EXPECT_EQ(o.extra, Duration(2));

  const Fault f = FaultPlan::failure("hazard1", 1, 2);
  EXPECT_EQ(f.kind, FaultKind::kTaskFailure);
  EXPECT_EQ(f.failures, 2u);

  const Fault s = FaultPlan::solarTransient(Interval(Time(10), Time(20)), 50);
  EXPECT_EQ(s.kind, FaultKind::kSolarTransient);
  EXPECT_EQ(s.solarPct, 50u);

  const Fault d = FaultPlan::batteryDerate(Time(100), 80, 90);
  EXPECT_EQ(d.kind, FaultKind::kBatteryDerate);
  EXPECT_EQ(d.capacityPct, 80u);
  EXPECT_EQ(d.outputPct, 90u);
}

TEST(FaultPlanTest, ConstructorsRejectNonsense) {
  EXPECT_THROW((void)FaultPlan::overrun("", 0, 120), CheckError);
  EXPECT_THROW((void)FaultPlan::overrun("t", 0, 99), CheckError);
  EXPECT_THROW((void)FaultPlan::failure("t", 0, 0), CheckError);
  EXPECT_THROW(
      (void)FaultPlan::solarTransient(Interval(Time(5), Time(5)), 50),
      CheckError);
  EXPECT_THROW((void)FaultPlan::batteryDerate(Time(0), 120, 100), CheckError);
}

TEST(FaultPlanTest, DescribeMentionsTheTarget) {
  const std::string s =
      describe(FaultPlan::overrun("drive1", 3, 150, Duration(2)));
  EXPECT_NE(s.find("drive1"), std::string::npos);
  EXPECT_NE(s.find("150"), std::string::npos);
  EXPECT_NE(describe(FaultPlan::failure("hazard1", 1, 2)).find("hazard1"),
            std::string::npos);
}

// --------------------------------------------------------- applySolarFaults

TEST(SolarFaultTest, EmptyPlanIsIdentity) {
  const SolarSource base(
      {{Time(0), Watts::fromWatts(14.9)}, {Time(600), 12_W}});
  const SolarSource out = applySolarFaults(base, FaultPlan{});
  for (const std::int64_t t : {0, 100, 599, 600, 1000}) {
    EXPECT_EQ(out.levelAt(Time(t)), base.levelAt(Time(t))) << t;
  }
}

TEST(SolarFaultTest, TransientScalesOnlyItsWindow) {
  const SolarSource base({{Time(0), 10_W}});
  FaultPlan plan;
  plan.faults.push_back(
      FaultPlan::solarTransient(Interval(Time(100), Time(200)), 50));
  const SolarSource out = applySolarFaults(base, plan);
  EXPECT_EQ(out.levelAt(Time(99)), 10_W);
  EXPECT_EQ(out.levelAt(Time(100)), 5_W);
  EXPECT_EQ(out.levelAt(Time(199)), 5_W);
  EXPECT_EQ(out.levelAt(Time(200)), 10_W);
}

TEST(SolarFaultTest, OverlappingTransientsComposeMultiplicatively) {
  const SolarSource base({{Time(0), 10_W}});
  FaultPlan plan;
  plan.faults.push_back(
      FaultPlan::solarTransient(Interval(Time(0), Time(100)), 50));
  plan.faults.push_back(
      FaultPlan::solarTransient(Interval(Time(50), Time(150)), 50));
  const SolarSource out = applySolarFaults(base, plan);
  EXPECT_EQ(out.levelAt(Time(10)), 5_W);
  EXPECT_EQ(out.levelAt(Time(75)), Watts::fromWatts(2.5));
  EXPECT_EQ(out.levelAt(Time(120)), 5_W);
  EXPECT_EQ(out.levelAt(Time(150)), 10_W);
}

TEST(SolarFaultTest, TransientStraddlingAPhaseBoundaryScalesBothSides) {
  const SolarSource base({{Time(0), 10_W}, {Time(100), 4_W}});
  FaultPlan plan;
  plan.faults.push_back(
      FaultPlan::solarTransient(Interval(Time(50), Time(150)), 50));
  const SolarSource out = applySolarFaults(base, plan);
  EXPECT_EQ(out.levelAt(Time(60)), 5_W);
  EXPECT_EQ(out.levelAt(Time(100)), 2_W);
  EXPECT_EQ(out.levelAt(Time(150)), 4_W);
}

// ------------------------------------------------------------------- derate

TEST(DerateTest, ScalesOutputAndCapacityPreservingDrawn) {
  Battery b(10_W, 100_J);
  b.draw(30_J);
  const Battery d = derate(b, FaultPlan::batteryDerate(Time(0), 80, 70));
  EXPECT_EQ(d.maxOutput(), 7_W);
  EXPECT_EQ(d.capacity(), 80_J);
  EXPECT_EQ(d.drawn(), 30_J);
  EXPECT_EQ(d.remaining(), 50_J);
}

TEST(DerateTest, DrawnBeyondTheNewCapacityClampsToDepleted) {
  Battery b(10_W, 100_J);
  b.draw(90_J);
  const Battery d = derate(b, FaultPlan::batteryDerate(Time(0), 55, 100));
  EXPECT_TRUE(d.depleted());
  EXPECT_EQ(d.remaining(), Energy::zero());
}

// --------------------------------------------------------------- FaultModel

std::vector<std::string> roverNames() {
  return {"heat_steer1", "heat_wheel1", "hazard1", "steer1", "drive1"};
}

TEST(FaultModelTest, SameSeedSamePlan) {
  const FaultModel model(FaultModelConfig{}, roverNames());
  const FaultPlan a = model.instantiate(1234);
  const FaultPlan b = model.instantiate(1234);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(describe(a.faults[i]), describe(b.faults[i])) << i;
  }
}

TEST(FaultModelTest, DifferentSeedsDifferentPlans) {
  const FaultModel model(FaultModelConfig{}, roverNames());
  const FaultPlan a = model.instantiate(1);
  const FaultPlan b = model.instantiate(2);
  std::string da, db;
  for (const Fault& f : a.faults) da += describe(f) + "\n";
  for (const Fault& f : b.faults) db += describe(f) + "\n";
  EXPECT_NE(da, db);
}

TEST(FaultModelTest, CategoriesDrawFromIndependentStreams) {
  // Turning the failure category off must not perturb the overrun draws:
  // each category samples its own salted stream.
  FaultModelConfig with;
  with.failurePermille = 500;
  FaultModelConfig without = with;
  without.failurePermille = 0;
  const FaultModel a(with, roverNames());
  const FaultModel b(without, roverNames());
  const auto overrunsOf = [](const FaultPlan& p) {
    std::string s;
    for (const Fault& f : p.faults) {
      if (f.kind == FaultKind::kTaskOverrun) s += describe(f) + "\n";
    }
    return s;
  };
  EXPECT_EQ(overrunsOf(a.instantiate(99)), overrunsOf(b.instantiate(99)));
}

TEST(FaultModelTest, EventsStayInsideTheConfiguredBounds) {
  FaultModelConfig cfg;
  cfg.overrunPermille = 1000;  // every (task, iteration) overruns
  cfg.iterations = 4;
  cfg.clouds = 3;
  cfg.storms = 1;
  cfg.deratePermille = 1000;
  const FaultModel model(cfg, roverNames());
  const FaultPlan plan = model.instantiate(5);
  int overruns = 0, windows = 0, derates = 0;
  for (const Fault& f : plan.faults) {
    switch (f.kind) {
      case FaultKind::kTaskOverrun:
        ++overruns;
        EXPECT_GE(f.scalePct, cfg.overrunMinPct);
        EXPECT_LE(f.scalePct, cfg.overrunMaxPct);
        EXPECT_LT(f.iteration, cfg.iterations);
        break;
      case FaultKind::kSolarTransient:
        ++windows;
        EXPECT_GE(f.window.begin(), Time::zero());
        EXPECT_LE(f.window.end(), cfg.horizon);
        break;
      case FaultKind::kBatteryDerate:
        ++derates;
        EXPECT_GE(f.capacityPct, cfg.derateCapacityMinPct);
        EXPECT_GE(f.outputPct, cfg.derateOutputMinPct);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(overruns, 4 * 5);  // permille 1000: every cell fires
  EXPECT_EQ(windows, 4);       // 3 clouds + 1 storm
  EXPECT_EQ(derates, 1);
}

}  // namespace
}  // namespace paws::fault
