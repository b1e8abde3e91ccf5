// End-to-end integration: the full user journey across modules —
// text -> model -> schedulers -> analysis -> renderers -> persistence —
// exercised exactly the way the examples and the CLI drive it.
#include <gtest/gtest.h>

#include "analysis/analysis.hpp"
#include "analysis/breakdown.hpp"
#include "gantt/ascii_gantt.hpp"
#include "gantt/html_report.hpp"
#include "gantt/svg_gantt.hpp"
#include "io/parser.hpp"
#include "io/schedule_io.hpp"
#include "io/writer.hpp"
#include "sched/max_power_scheduler.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "sched/repair.hpp"
#include "sched/serial_scheduler.hpp"
#include "sched/slack.hpp"
#include "validate/validator.hpp"

namespace paws {
namespace {

constexpr const char* kSensorNode = R"(
problem "sensor_node" {
  pmax 10W
  pmin 6W
  background 1W
  resource heater
  resource sensor
  resource cpu
  resource radio
  task warmup   { resource heater delay 4 power 5W }
  task sample   { resource sensor delay 6 power 3W }
  task compress { resource cpu    delay 4 power 4.5W }
  task uplink   { resource radio  delay 5 power 6W }
  task beacon   { resource radio  delay 3 power 2W }
  min warmup -> sample 2
  max warmup -> sample 20
  precedes sample -> compress
  precedes compress -> uplink
  max compress -> uplink 15
  release beacon 5
}
)";

class SensorNodeFlow : public ::testing::Test {
 protected:
  void SetUp() override {
    io::ParseResult parsed = io::parseProblem(kSensorNode);
    ASSERT_TRUE(parsed.ok())
        << (parsed.errors.empty() ? "" : io::format(parsed.errors[0]));
    problem_ = std::move(*parsed.problem);
    ASSERT_TRUE(problem_.validate().empty());
  }

  Problem problem_;
};

TEST_F(SensorNodeFlow, TextToValidScheduleToReports) {
  PowerAwareScheduler scheduler(problem_);
  const ScheduleResult r = scheduler.schedule();
  ASSERT_TRUE(r.ok()) << r.message;
  const Schedule& s = *r.schedule;

  // Hard constraints independently verified.
  const ValidationReport report = ScheduleValidator(problem_).validate(s);
  EXPECT_TRUE(report.valid());

  // All renderers consume the same schedule without blowing up and agree
  // on the basic facts.
  const std::string ascii = renderGantt(s);
  EXPECT_NE(ascii.find("heater"), std::string::npos);
  const std::string svg = renderSvgGantt(s);
  EXPECT_NE(svg.find("warmup"), std::string::npos);
  const std::string html = renderHtmlReport(s);
  EXPECT_NE(html.find("VALID"), std::string::npos);

  // Analysis is consistent with the schedule's own metrics.
  EXPECT_EQ(ScheduleAnalysis::minimalValidPmax(s), s.powerProfile().peak());
  const EnergyBreakdown bd = computeEnergyBreakdown(s);
  EXPECT_EQ(bd.total, s.powerProfile().totalEnergy());

  // Persistence round-trips both documents.
  const io::ParseResult reparsed =
      io::parseProblem(io::problemToText(problem_));
  ASSERT_TRUE(reparsed.ok());
  const io::ScheduleParseResult reloaded =
      io::parseSchedule(io::scheduleToText(s, "flight"), problem_);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.schedule->starts(), s.starts());
}

TEST_F(SensorNodeFlow, WhatIfThenRepairComposes) {
  // A designer pins the beacon late on a copy of the problem, accepts the
  // result, then the budget drops mid-flight and the plan is repaired.
  const TaskId beacon = *problem_.findTask("beacon");
  Problem pinned(problem_);
  pinned.pin(beacon, Time(20));
  const ScheduleResult solved = PowerAwareScheduler(pinned).schedule();
  ASSERT_TRUE(solved.ok()) << solved.message;
  // The pin only constrained the solver; bind the plan to the original.
  const Schedule locked(&problem_, solved.schedule->starts());
  EXPECT_EQ(locked.start(beacon), Time(20));

  Problem degraded(problem_);
  degraded.setMaxPower(Watts::fromWatts(8.5));
  const RepairInput input{&degraded, &locked, Time(10)};
  const ScheduleResult repaired = repairSchedule(input);
  ASSERT_TRUE(repaired.ok()) << repaired.message;
  for (TaskId v : problem_.taskIds()) {
    if (locked.start(v) < Time(10)) {
      EXPECT_EQ(repaired.schedule->start(v), locked.start(v));
    }
  }
  for (const Interval& spike :
       repaired.schedule->powerProfile().spikes(Watts::fromWatts(8.5))) {
    EXPECT_LT(spike.begin(), Time(10));
  }
}

TEST_F(SensorNodeFlow, SerialBaselineIsSlowerButCooler) {
  PowerAwareScheduler scheduler(problem_);
  const ScheduleResult pipeline = scheduler.schedule();
  const ScheduleResult serial = SerialScheduler(problem_).schedule();
  ASSERT_TRUE(pipeline.ok() && serial.ok());
  EXPECT_LE(pipeline.schedule->finish(), serial.schedule->finish());
  EXPECT_LE(serial.schedule->powerProfile().peak(),
            pipeline.schedule->powerProfile().peak() + Watts::zero());
}

TEST_F(SensorNodeFlow, SlackAnnotatedGanttRenders) {
  // Slack annotation needs the graph the schedule implies; wire it the way
  // the satellite example does.
  MaxPowerScheduler maxPower(problem_);
  const ScheduleResult valid = maxPower.schedule();
  ASSERT_TRUE(valid.ok());
  const Schedule& s = *valid.schedule;
  AsciiGanttOptions opt;
  opt.slacks = computeSlacks(scheduleGraph(s), s.starts());
  const std::string view = renderTimeView(s, opt);
  EXPECT_NE(view.find('~'), std::string::npos)
      << "some task must have visible slack";
}

TEST_F(SensorNodeFlow, TighterBudgetNeverSpeedsThingsUp) {
  Time previousFinish = Time::zero();
  for (const double pmax : {14.0, 11.0, 9.0}) {
    Problem variant(problem_);
    variant.setMaxPower(Watts::fromWatts(pmax));
    PowerAwareScheduler scheduler(variant);
    const ScheduleResult r = scheduler.schedule();
    ASSERT_TRUE(r.ok()) << "pmax " << pmax << ": " << r.message;
    EXPECT_GE(r.schedule->finish(), previousFinish)
        << "pmax " << pmax << " cannot beat a looser budget";
    previousFinish = r.schedule->finish();
  }
}

}  // namespace
}  // namespace paws
