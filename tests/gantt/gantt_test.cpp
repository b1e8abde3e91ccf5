#include <gtest/gtest.h>

#include "gantt/ascii_gantt.hpp"
#include "gantt/svg_gantt.hpp"
#include "graph/dot.hpp"
#include "model/paper_example.hpp"
#include "support/pipeline.hpp"

namespace paws {
namespace {

using namespace paws::literals;

Problem smallProblem() {
  Problem p("g");
  const ResourceId cpu = p.addResource("cpu");
  const ResourceId dsp = p.addResource("dsp");
  p.addTask("alpha", 5_s, 6_W, cpu);
  p.addTask("beta", 5_s, 4_W, dsp);
  p.setMaxPower(9_W);
  p.setMinPower(5_W);
  return p;
}

TEST(AsciiGanttTest, TimeViewHasOneRowPerResource) {
  const Problem p = smallProblem();
  const Schedule s(&p, {Time(0), Time(0), Time(5)});
  const std::string view = renderTimeView(s);
  EXPECT_NE(view.find("cpu"), std::string::npos);
  EXPECT_NE(view.find("dsp"), std::string::npos);
  EXPECT_NE(view.find("alp"), std::string::npos)
      << "name truncated into the [alp] bin interior";
  // alpha occupies columns 0-4 on the cpu row.
  const auto cpuPos = view.find("cpu");
  const auto lineEnd = view.find('\n', cpuPos);
  const std::string row = view.substr(cpuPos, lineEnd - cpuPos);
  EXPECT_NE(row.find('['), std::string::npos);
}

TEST(AsciiGanttTest, PowerViewMarksSpikes) {
  const Problem p = smallProblem();
  // Overlap alpha and beta: 10W > Pmax 9W -> spike marked with '!'.
  const Schedule s(&p, {Time(0), Time(0), Time(0)});
  const std::string view = renderPowerView(s);
  EXPECT_NE(view.find('!'), std::string::npos);
  EXPECT_NE(view.find("Pmax"), std::string::npos);
  EXPECT_NE(view.find("Pmin"), std::string::npos);
}

TEST(AsciiGanttTest, PowerViewNoSpikeMarksWhenValid) {
  const Problem p = smallProblem();
  const Schedule s(&p, {Time(0), Time(0), Time(5)});
  const std::string view = renderPowerView(s);
  EXPECT_EQ(view.find('!'), std::string::npos);
  EXPECT_NE(view.find('#'), std::string::npos);
}

TEST(AsciiGanttTest, ScalingReducesColumns) {
  const Problem p = smallProblem();
  const Schedule s(&p, {Time(0), Time(0), Time(5)});
  AsciiGanttOptions opt;
  opt.ticksPerColumn = 5;
  const std::string scaled = renderTimeView(s, opt);
  const std::string full = renderTimeView(s);
  EXPECT_LT(scaled.size(), full.size());
}

TEST(AsciiGanttTest, FullChartCombinesBothViews) {
  const Problem p = smallProblem();
  const Schedule s(&p, {Time(0), Time(0), Time(5)});
  const std::string chart = renderGantt(s);
  EXPECT_NE(chart.find("time view"), std::string::npos);
  EXPECT_NE(chart.find("power view"), std::string::npos);
}

TEST(AsciiGanttTest, RejectsBadOptions) {
  const Problem p = smallProblem();
  const Schedule s(&p, {Time(0), Time(0), Time(5)});
  AsciiGanttOptions opt;
  opt.ticksPerColumn = 0;
  EXPECT_THROW((void)renderTimeView(s, opt), CheckError);
  AsciiGanttOptions opt2;
  opt2.wattsPerRow = Watts::zero();
  EXPECT_THROW((void)renderPowerView(s, opt2), CheckError);
}

TEST(SvgGanttTest, ProducesWellFormedDocument) {
  const Problem p = makePaperExampleProblem();
  const ScheduleResult r = testutil::runPipelineOnce(p);
  ASSERT_TRUE(r.ok());
  const std::string svg = renderSvgGantt(*r.schedule);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One rect per task (plus the background rect).
  std::size_t rects = 0;
  for (std::size_t at = svg.find("<rect"); at != std::string::npos;
       at = svg.find("<rect", at + 1)) {
    ++rects;
  }
  EXPECT_EQ(rects, p.numTasks() + 1);
  EXPECT_NE(svg.find("Pmax"), std::string::npos);
  EXPECT_NE(svg.find("polygon"), std::string::npos) << "stepped profile";
}

TEST(SvgGanttTest, EscapesMarkupInNames) {
  Problem p("esc");
  const ResourceId r1 = p.addResource("res");
  p.addTask("a<b>&c", 2_s, 1_W, r1);
  const Schedule s(&p, {Time(0), Time(0)});
  const std::string svg = renderSvgGantt(s);
  EXPECT_EQ(svg.find("a<b>"), std::string::npos);
  EXPECT_NE(svg.find("a&lt;b&gt;&amp;c"), std::string::npos);
}

TEST(DotExportTest, ContainsVerticesAndStyledEdges) {
  const Problem p = makePaperExampleProblem();
  const ConstraintGraph g = p.buildGraph();
  DotOptions opt;
  opt.vertexLabels.resize(p.numVertices());
  for (TaskId v : p.taskIds()) opt.vertexLabels[v.index()] = p.task(v).name;
  const std::string dot = toDot(g, opt);
  EXPECT_EQ(dot.rfind("digraph", 0), 0u);
  EXPECT_NE(dot.find("label=\"h\""), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos) << "max edges";
  EXPECT_NE(dot.find("style=solid"), std::string::npos) << "min edges";
}

TEST(DotExportTest, DecisionEdgesToggle) {
  const Problem p = makePaperExampleProblem();
  ConstraintGraph g = p.buildGraph();
  g.addEdge(kAnchorTask, TaskId(1), Duration(5), EdgeKind::kDelay);
  DotOptions with;
  with.includeDecisionEdges = true;
  DotOptions without;
  without.includeDecisionEdges = false;
  EXPECT_NE(toDot(g, with).find("darkorange"), std::string::npos);
  EXPECT_EQ(toDot(g, without).find("darkorange"), std::string::npos);
}

}  // namespace
}  // namespace paws
