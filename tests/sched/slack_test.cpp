#include "sched/slack.hpp"

#include <gtest/gtest.h>

#include "graph/longest_path.hpp"
#include "model/paper_example.hpp"
#include "sched/max_power_scheduler.hpp"

namespace paws {
namespace {

TEST(SlackTest, NoOutgoingEdgesMeansUnboundedSlack) {
  ConstraintGraph g(2);
  g.addEdge(TaskId(0), TaskId(1), Duration(0), EdgeKind::kRelease);
  const std::vector<Time> sigma{Time(0), Time(3)};
  EXPECT_EQ(slackOf(g, sigma, TaskId(1)), Duration::max());
}

TEST(SlackTest, MinSeparationBoundsSlack) {
  // 0 -> 1 (w=5): sigma(1) >= sigma(0)+5. Out-edge OF 0 bounds 0's slack.
  ConstraintGraph g(2);
  g.addEdge(TaskId(0), TaskId(1), Duration(5), EdgeKind::kUserMin);
  // sigma(0)=0, sigma(1)=9: vertex 0 can slip to 9-5=4 -> slack 4.
  const std::vector<Time> sigma{Time(0), Time(9)};
  EXPECT_EQ(slackOf(g, sigma, TaskId(0)), Duration(4));
  EXPECT_EQ(slackOf(g, sigma, TaskId(1)), Duration::max());
}

TEST(SlackTest, TightEdgeMeansZeroSlack) {
  ConstraintGraph g(2);
  g.addEdge(TaskId(0), TaskId(1), Duration(5), EdgeKind::kUserMin);
  const std::vector<Time> sigma{Time(0), Time(5)};
  EXPECT_EQ(slackOf(g, sigma, TaskId(0)), Duration::zero());
}

TEST(SlackTest, MaxSeparationBackEdgeBoundsSuccessor) {
  // "1 at most 12 after 0": edge 1 -> 0 with weight -12.
  ConstraintGraph g(2);
  g.addEdge(TaskId(0), TaskId(1), Duration(5), EdgeKind::kUserMin);
  g.addEdge(TaskId(1), TaskId(0), Duration(-12), EdgeKind::kUserMax);
  const std::vector<Time> sigma{Time(0), Time(5)};
  // Vertex 1's out-edge: (sigma(0) - (-12)) - sigma(1) = 12 - 5 = 7.
  EXPECT_EQ(slackOf(g, sigma, TaskId(1)), Duration(7));
}

TEST(SlackTest, MinimumOverAllOutEdges) {
  ConstraintGraph g(4);
  g.addEdge(TaskId(1), TaskId(2), Duration(3), EdgeKind::kUserMin);
  g.addEdge(TaskId(1), TaskId(3), Duration(1), EdgeKind::kSerialization);
  const std::vector<Time> sigma{Time(0), Time(2), Time(10), Time(4)};
  // Via 2: (10-3)-2 = 5. Via 3: (4-1)-2 = 1. Slack = 1.
  EXPECT_EQ(slackOf(g, sigma, TaskId(1)), Duration(1));
}

TEST(SlackTest, ComputeAllMatchesIndividual) {
  ConstraintGraph g(3);
  g.addEdge(TaskId(0), TaskId(1), Duration(2), EdgeKind::kUserMin);
  g.addEdge(TaskId(1), TaskId(2), Duration(2), EdgeKind::kUserMin);
  const std::vector<Time> sigma{Time(0), Time(4), Time(8)};
  const auto all = computeSlacks(g, sigma);
  ASSERT_EQ(all.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(all[i], slackOf(g, sigma, TaskId(i)));
  }
  EXPECT_EQ(all[0], Duration(2));
  EXPECT_EQ(all[1], Duration(2));
}

TEST(SlackTest, DelayWithinSlackStaysValidProperty) {
  // The defining property of slack (Section 4.1): delaying one task within
  // its slack preserves all constraints encoded by its out-edges, given
  // in-edges are lower bounds.
  ConstraintGraph g(4);
  g.addEdge(TaskId(0), TaskId(1), Duration(5), EdgeKind::kUserMin);
  g.addEdge(TaskId(1), TaskId(2), Duration(4), EdgeKind::kUserMin);
  g.addEdge(TaskId(2), TaskId(1), Duration(-9), EdgeKind::kUserMax);
  g.addEdge(TaskId(1), TaskId(3), Duration(2), EdgeKind::kSerialization);
  std::vector<Time> sigma{Time(0), Time(5), Time(12), Time(20)};
  const Duration slack = slackOf(g, sigma, TaskId(1));
  ASSERT_GT(slack, Duration::zero());
  sigma[1] += slack;  // maximal legal delay
  for (const ConstraintEdge& e : g.edges()) {
    EXPECT_GE(sigma[e.to.index()] - sigma[e.from.index()], e.weight)
        << "edge " << e.from << "->" << e.to;
  }
}

TEST(SlackTest, ScheduleGraphSolvesToItsValidSchedule) {
  const Problem p = makePaperExampleProblem();
  const ScheduleResult r = MaxPowerScheduler(p).schedule();
  ASSERT_TRUE(r.ok()) << r.message;
  const Schedule& s = *r.schedule;
  const ConstraintGraph g = scheduleGraph(s);
  LongestPathEngine engine(g);
  const LongestPathResult& lp = engine.compute(kAnchorTask);
  ASSERT_TRUE(lp.feasible);
  EXPECT_EQ(lp.dist, s.starts());
  // Serialization edges join same-resource tasks in start order.
  int serialization = 0;
  for (const ConstraintEdge& e : g.edges()) {
    if (e.kind != EdgeKind::kSerialization) continue;
    ++serialization;
    EXPECT_EQ(p.task(e.from).resource, p.task(e.to).resource);
    EXPECT_LE(s.end(e.from), s.start(e.to));
  }
  EXPECT_GT(serialization, 0);
}

TEST(SlackTest, ScheduleGraphExposesAResourceOverlap) {
  using namespace paws::literals;
  Problem p;
  const ResourceId cpu = p.addResource("cpu");
  const TaskId a = p.addTask("a", Duration(4), 1_W, cpu);
  const TaskId b = p.addTask("b", Duration(4), 1_W, cpu);
  std::vector<Time> starts(p.numVertices(), Time::zero());
  starts[b.index()] = Time(2);  // b starts while a still runs
  const ConstraintGraph g = scheduleGraph(Schedule(&p, starts));
  LongestPathEngine engine(g);
  const LongestPathResult& lp = engine.compute(kAnchorTask);
  ASSERT_TRUE(lp.feasible);
  EXPECT_EQ(lp.dist[a.index()], Time(0));
  EXPECT_EQ(lp.dist[b.index()], Time(4)) << "a -> b serialization pushes b";
}

}  // namespace
}  // namespace paws
