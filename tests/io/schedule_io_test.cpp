#include "io/schedule_io.hpp"

#include <gtest/gtest.h>

#include "model/paper_example.hpp"
#include "support/pipeline.hpp"

namespace paws::io {
namespace {

using namespace paws::literals;

Problem smallProblem() {
  Problem p("small");
  const ResourceId r1 = p.addResource("r1");
  p.addTask("a", 5_s, 2_W, r1);
  p.addTask("b", 3_s, 1_W, r1);
  return p;
}

TEST(ScheduleIoTest, ParsesMinimalDocument) {
  const Problem p = smallProblem();
  const ScheduleParseResult r = parseSchedule(
      "schedule \"v1\" of \"small\" { at a 0 at b 5 }", p);
  ASSERT_TRUE(r.ok()) << (r.errors.empty() ? "" : format(r.errors[0]));
  EXPECT_EQ(r.label, "v1");
  EXPECT_EQ(r.schedule->start(*p.findTask("a")), Time(0));
  EXPECT_EQ(r.schedule->start(*p.findTask("b")), Time(5));
}

TEST(ScheduleIoTest, RoundTripsPipelineOutput) {
  const Problem p = makePaperExampleProblem();
  const ScheduleResult r = testutil::runPipelineOnce(p);
  ASSERT_TRUE(r.ok());
  const std::string text = scheduleToText(*r.schedule, "improved");
  const ScheduleParseResult parsed = parseSchedule(text, p);
  ASSERT_TRUE(parsed.ok()) << format(parsed.errors[0]);
  EXPECT_EQ(parsed.label, "improved");
  EXPECT_EQ(parsed.schedule->starts(), r.schedule->starts());
}

TEST(ScheduleIoTest, RejectsWrongProblemName) {
  const Problem p = smallProblem();
  const ScheduleParseResult r = parseSchedule(
      "schedule \"v1\" of \"other\" { at a 0 at b 5 }", p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("not 'small'"), std::string::npos);
}

TEST(ScheduleIoTest, RejectsUnknownTask) {
  const Problem p = smallProblem();
  const ScheduleParseResult r = parseSchedule(
      "schedule \"v\" of \"small\" { at nope 0 at a 0 at b 5 }", p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("unknown task"), std::string::npos);
}

TEST(ScheduleIoTest, RejectsMissingAssignment) {
  const Problem p = smallProblem();
  const ScheduleParseResult r =
      parseSchedule("schedule \"v\" of \"small\" { at a 0 }", p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("'b' has no start"), std::string::npos);
}

TEST(ScheduleIoTest, RejectsDuplicateAssignment) {
  const Problem p = smallProblem();
  const ScheduleParseResult r = parseSchedule(
      "schedule \"v\" of \"small\" { at a 0 at a 3 at b 5 }", p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors[0].message.find("assigned twice"), std::string::npos);
}

TEST(ScheduleIoTest, RejectsFractionalTime) {
  const Problem p = smallProblem();
  const ScheduleParseResult r = parseSchedule(
      "schedule \"v\" of \"small\" { at a 0.5 at b 5 }", p);
  ASSERT_FALSE(r.ok());
}

TEST(ScheduleIoTest, AcceptsSecondSuffixAndComments) {
  const Problem p = smallProblem();
  const ScheduleParseResult r = parseSchedule(
      "# saved by pawsc\nschedule \"v\" of \"small\" {\n"
      "  at a 0s  # first\n  at b 5s\n}\n",
      p);
  ASSERT_TRUE(r.ok()) << format(r.errors[0]);
}

}  // namespace
}  // namespace paws::io
