#include "gantt/html_report.hpp"

#include <gtest/gtest.h>

#include "model/paper_example.hpp"
#include "support/pipeline.hpp"

namespace paws {
namespace {

using namespace paws::literals;

TEST(HtmlReportTest, ValidScheduleReport) {
  const Problem p = makePaperExampleProblem();
  const ScheduleResult r = testutil::runPipelineOnce(p);
  ASSERT_TRUE(r.ok());
  const std::string html = renderHtmlReport(*r.schedule);
  EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u);
  EXPECT_NE(html.find("</html>"), std::string::npos);
  EXPECT_NE(html.find("VALID"), std::string::npos);
  EXPECT_EQ(html.find("INVALID"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos) << "embedded gantt";
  EXPECT_NE(html.find("Energy breakdown"), std::string::npos);
  EXPECT_NE(html.find("paper_example"), std::string::npos);
  EXPECT_NE(html.find("polyline"), std::string::npos) << "Ec curve";
}

TEST(HtmlReportTest, InvalidScheduleListsViolations) {
  Problem p("viol");
  const ResourceId r1 = p.addResource("r1");
  p.addTask("x", 5_s, 9_W, r1);
  p.addTask("y", 5_s, 9_W, r1);
  p.setMaxPower(10_W);
  // Overlapping same-resource tasks: resource overlap + power spike.
  const Schedule s(&p, {Time(0), Time(0), Time(0)});
  const std::string html = renderHtmlReport(s);
  EXPECT_NE(html.find("INVALID"), std::string::npos);
  EXPECT_NE(html.find("resource-overlap"), std::string::npos);
  EXPECT_NE(html.find("power-spike"), std::string::npos);
}

TEST(HtmlReportTest, EscapesNames) {
  Problem p("<script>");
  const ResourceId r1 = p.addResource("res&1");
  p.addTask("a<b", 2_s, 1_W, r1);
  const Schedule s(&p, {Time(0), Time(0)});
  HtmlReportOptions opt;
  const std::string html = renderHtmlReport(s, opt);
  EXPECT_EQ(html.find("<script>"), std::string::npos);
  EXPECT_NE(html.find("&lt;script&gt;"), std::string::npos);
  EXPECT_NE(html.find("res&amp;1"), std::string::npos);
}

TEST(HtmlReportTest, CustomTitle) {
  const Problem p = makePaperExampleProblem();
  const ScheduleResult r = testutil::runPipelineOnce(p);
  ASSERT_TRUE(r.ok());
  HtmlReportOptions opt;
  opt.title = "Flight Review 7";
  const std::string html = renderHtmlReport(*r.schedule, opt);
  EXPECT_NE(html.find("<h1>Flight Review 7</h1>"), std::string::npos);
}

}  // namespace
}  // namespace paws
