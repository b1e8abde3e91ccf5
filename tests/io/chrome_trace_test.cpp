#include <gtest/gtest.h>

#include <sstream>

#include "io/writer.hpp"
#include "model/paper_example.hpp"
#include "sched/min_power_scheduler.hpp"

namespace paws::io {
namespace {

using namespace paws::literals;

std::string chromeTrace(const Schedule& schedule) {
  std::ostringstream os;
  writeChromeTrace(os, schedule);
  return os.str();
}

TEST(ChromeTraceTest, OneEventPerTaskPlusResourceMetadata) {
  const Problem p = makePaperExampleProblem();
  MinPowerScheduler pipeline(p);
  const ScheduleResult r = pipeline.schedule();
  ASSERT_TRUE(r.ok());
  const std::string json = chromeTrace(*r.schedule);

  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  std::size_t complete = 0, metadata = 0;
  for (std::size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++complete;
  }
  for (std::size_t at = json.find("\"ph\":\"M\""); at != std::string::npos;
       at = json.find("\"ph\":\"M\"", at + 1)) {
    ++metadata;
  }
  EXPECT_EQ(complete, p.numTasks());
  EXPECT_EQ(metadata, p.numResources());
  // Spot-check one event's payload.
  EXPECT_NE(json.find("\"name\":\"h\""), std::string::npos);
  EXPECT_NE(json.find("\"power_mw\":4000"), std::string::npos);
}

TEST(ChromeTraceTest, StartAndDurationMatchTheSchedule) {
  Problem p("t");
  const ResourceId r1 = p.addResource("r1");
  p.addTask("solo", 7_s, 2_W, r1);
  const Schedule s(&p, {Time(0), Time(3)});
  const std::string json = chromeTrace(s);
  EXPECT_NE(json.find("\"ts\":3,\"dur\":7"), std::string::npos);
  EXPECT_NE(json.find("\"energy_mwticks\":14000"), std::string::npos);
}

TEST(ChromeTraceTest, GoldenTwoTaskSchedule) {
  // A fully pinned-down schedule makes the whole JSON byte-comparable:
  // pid/tid/ts/dur placement, resource rows, and metadata records.
  Problem p("golden");
  const ResourceId cpu = p.addResource("cpu");
  const ResourceId radio = p.addResource("radio");
  p.addTask("compute", 5_s, 3_W, cpu);
  p.addTask("transmit", 2_s, 8_W, radio);
  const Schedule s(&p, {Time(0), Time(1), Time(6)});

  EXPECT_EQ(
      chromeTrace(s),
      "{\"traceEvents\":["
      "{\"name\":\"compute\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
      "\"ts\":1,\"dur\":5,\"args\":{\"power_mw\":3000,"
      "\"energy_mwticks\":15000}},"
      "{\"name\":\"transmit\",\"ph\":\"X\",\"pid\":1,\"tid\":2,"
      "\"ts\":6,\"dur\":2,\"args\":{\"power_mw\":8000,"
      "\"energy_mwticks\":16000}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"cpu\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,"
      "\"args\":{\"name\":\"radio\"}}"
      "]}");
}

TEST(ChromeTraceTest, EmptyProblemYieldsEmptyEventArray) {
  Problem p("none");
  const Schedule s(&p, {Time(0)});
  EXPECT_EQ(chromeTrace(s), "{\"traceEvents\":[]}");
}

}  // namespace
}  // namespace paws::io
