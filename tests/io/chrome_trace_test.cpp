#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "io/parser.hpp"
#include "io/writer.hpp"
#include "model/paper_example.hpp"
#include "obs/json.hpp"
#include "support/pipeline.hpp"

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
  const ScheduleResult r = testutil::runPipelineOnce(p);
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

/// Splits one CSV record into its fields, RFC 4180 quoting undone.
std::vector<std::string> csvFields(const std::string& row) {
  std::vector<std::string> fields(1);
  bool quoted = false;
  for (std::size_t i = 0; i < row.size(); ++i) {
    const char c = row[i];
    if (quoted && c == '"' && i + 1 < row.size() && row[i + 1] == '"') {
      fields.back() += '"';
      ++i;
    } else if (c == '"') {
      quoted = !quoted;
    } else if (c == ',' && !quoted) {
      fields.emplace_back();
    } else {
      fields.back() += c;
    }
  }
  return fields;
}

TEST(ChromeTraceTest, QuotedNamesRoundTripThroughTraceAndCsv) {
  // Inside a quoted name the lexer accepts everything but '"' and a line
  // break, so a backslash, a comma and a tab all reach the exporters.
  const std::string taskName = "a\\b,c\td";
  const std::string resourceName = "r,1\\";
  const ParseResult parsed = parseProblem(
      "problem \"odd\" {\n  pmax 10W\n  resource \"" + resourceName +
      "\"\n  task \"" + taskName + "\" { resource \"" + resourceName +
      "\" delay 2 power 1W }\n  task plain { resource \"" + resourceName +
      "\" delay 3 power 1W }\n}\n");
  ASSERT_TRUE(parsed.ok()) << format(parsed.errors.front());
  const Problem& p = *parsed.problem;
  const Schedule s(&p, {Time(0), Time(0), Time(2)});

  const obs::json::ParseResult trace = obs::json::parse(chromeTrace(s));
  ASSERT_TRUE(trace.ok) << trace.error;
  const obs::json::Value* events = trace.value.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 3u);
  EXPECT_EQ(events->items[0].find("name")->asString(), taskName);
  EXPECT_EQ(events->items[2].find("args")->find("name")->asString(),
            resourceName);

  std::ostringstream csv;
  writeScheduleCsv(csv, s);
  std::istringstream lines(csv.str());
  std::vector<std::vector<std::string>> rows;
  for (std::string line; std::getline(lines, line);) {
    rows.push_back(csvFields(line));
    EXPECT_EQ(rows.back().size(), 6u) << line;
  }
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1][0], taskName);
  EXPECT_EQ(rows[1][1], resourceName);
  EXPECT_EQ(rows[2][0], "plain");
}

TEST(ChromeTraceTest, EmptyProblemYieldsEmptyEventArray) {
  Problem p("none");
  const Schedule s(&p, {Time(0)});
  EXPECT_EQ(chromeTrace(s), "{\"traceEvents\":[]}");
}

}  // namespace
}  // namespace paws::io
