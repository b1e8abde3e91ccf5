#include "analysis/resource_usage.hpp"

#include <gtest/gtest.h>

#include "rover/rover_model.hpp"
#include "sched/serial_scheduler.hpp"

namespace paws {
namespace {

using namespace paws::literals;

Problem makeProblem() {
  Problem p("ru");
  const ResourceId cpu = p.addResource("cpu");
  const ResourceId rf = p.addResource("rf");
  p.addTask("a", 4_s, 1_W, cpu);
  p.addTask("b", 4_s, 1_W, cpu);
  p.addTask("tx", 2_s, 1_W, rf);
  return p;
}

TEST(ResourceUsageTest, BusyIdleAndBottleneck) {
  const Problem p = makeProblem();
  // cpu: a[0,4), b[6,10); rf: tx[1,3). Span 10.
  const Schedule s(&p, {Time(0), Time(0), Time(6), Time(1)});
  const ResourceUsageReport report = analyzeResourceUsage(s);
  EXPECT_EQ(report.span, Duration(10));

  ASSERT_EQ(report.usages.size(), 2u);
  const ResourceUsage& cpu = report.usages[0];  // 8/10 beats 2/10
  EXPECT_EQ(cpu.name, "cpu");
  EXPECT_EQ(cpu.busy, Duration(8));
  EXPECT_DOUBLE_EQ(cpu.utilization, 0.8);
  ASSERT_EQ(cpu.idle.size(), 1u);
  EXPECT_EQ(cpu.idle[0], Interval(Time(4), Time(6)));
  EXPECT_EQ(cpu.lastCompletion, Time(10));

  const ResourceUsage& rf = report.usages[1];
  EXPECT_EQ(rf.busy, Duration(2));
  ASSERT_EQ(rf.idle.size(), 2u);
  EXPECT_EQ(rf.idle[0], Interval(Time(0), Time(1)));
  EXPECT_EQ(rf.idle[1], Interval(Time(3), Time(10)));

  EXPECT_EQ(report.bottleneck, *p.findResource("cpu"));
}

TEST(ResourceUsageTest, FullyPackedResourceHasNoIdle) {
  const Problem p = makeProblem();
  const Schedule s(&p, {Time(0), Time(0), Time(4), Time(0)});
  const ResourceUsageReport report = analyzeResourceUsage(s);
  const ResourceUsage& cpu = report.usages[0];
  EXPECT_EQ(cpu.name, "cpu");
  EXPECT_TRUE(cpu.idle.empty());
  EXPECT_DOUBLE_EQ(cpu.utilization, 1.0);
}

TEST(ResourceUsageTest, EmptyScheduleIsWellDefined) {
  Problem p("empty");
  p.addResource("r");
  const Schedule s(&p, {Time(0)});
  const ResourceUsageReport report = analyzeResourceUsage(s);
  EXPECT_EQ(report.span, Duration::zero());
  EXPECT_FALSE(report.bottleneck.isValid());
  ASSERT_EQ(report.usages.size(), 1u);
  EXPECT_DOUBLE_EQ(report.usages[0].utilization, 0.0);
}

TEST(ResourceUsageTest, SerialRoverBottleneckAndUtilizations) {
  // Fully serialized worst case: total busy across all resources equals
  // the 75 s makespan exactly (no overlap, no forced idle between tasks).
  const Problem p = rover::makeRoverProblem(rover::RoverCase::kWorst);
  const ScheduleResult r = SerialScheduler(p).schedule();
  ASSERT_TRUE(r.ok());
  const ResourceUsageReport report = analyzeResourceUsage(*r.schedule);
  Duration totalBusy;
  for (const ResourceUsage& u : report.usages) totalBusy += u.busy;
  EXPECT_EQ(totalBusy, Duration(75));
  EXPECT_TRUE(report.bottleneck.isValid());
  // Driving is the paper's biggest single consumer of time among
  // mechanical ops: 2 x 10 s busy.
  const auto driving = *p.findResource("driving");
  for (const ResourceUsage& u : report.usages) {
    if (u.resource == driving) {
      EXPECT_EQ(u.busy, Duration(20));
    }
  }
}

}  // namespace
}  // namespace paws
