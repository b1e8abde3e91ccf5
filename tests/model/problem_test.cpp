#include "model/problem.hpp"

#include <gtest/gtest.h>

#include "base/check.hpp"
#include "model/paper_example.hpp"

namespace paws {
namespace {

using namespace paws::literals;

Problem twoTaskProblem() {
  Problem p("two");
  const ResourceId r = p.addResource("cpu");
  p.addTask("t1", 5_s, 2_W, r);
  p.addTask("t2", 3_s, 4_W, r);
  return p;
}

TEST(ProblemTest, AnchorIsVertexZero) {
  Problem p;
  EXPECT_EQ(p.numVertices(), 1u);
  EXPECT_EQ(p.numTasks(), 0u);
  EXPECT_EQ(p.task(kAnchorTask).delay, Duration::zero());
  EXPECT_EQ(p.task(kAnchorTask).power, Watts::zero());
}

TEST(ProblemTest, AddTaskAssignsSequentialIds) {
  Problem p = twoTaskProblem();
  EXPECT_EQ(p.numTasks(), 2u);
  ASSERT_EQ(p.taskIds().size(), 2u);
  EXPECT_EQ(p.taskIds()[0], TaskId(1));
  EXPECT_EQ(p.taskIds()[1], TaskId(2));
  EXPECT_EQ(p.task(TaskId(1)).name, "t1");
}

TEST(ProblemTest, FindByName) {
  Problem p = twoTaskProblem();
  ASSERT_TRUE(p.findTask("t2").has_value());
  EXPECT_EQ(*p.findTask("t2"), TaskId(2));
  EXPECT_FALSE(p.findTask("nope").has_value());
  ASSERT_TRUE(p.findResource("cpu").has_value());
  EXPECT_FALSE(p.findResource("gpu").has_value());
}

TEST(ProblemTest, RejectsDuplicateNames) {
  Problem p;
  const ResourceId r = p.addResource("cpu");
  p.addTask("t", 1_s, 1_W, r);
  EXPECT_THROW(p.addTask("t", 1_s, 1_W, r), CheckError);
  EXPECT_THROW(p.addResource("cpu"), CheckError);
}

TEST(ProblemTest, RejectsNonPositiveDelay) {
  Problem p;
  const ResourceId r = p.addResource("cpu");
  EXPECT_THROW(p.addTask("bad", Duration(0), 1_W, r), CheckError);
  EXPECT_THROW(p.addTask("bad2", Duration(-5), 1_W, r), CheckError);
}

TEST(ProblemTest, RejectsUnknownResource) {
  Problem p;
  EXPECT_THROW(p.addTask("t", 1_s, 1_W, ResourceId(3)), CheckError);
  EXPECT_THROW(p.addTask("t", 1_s, 1_W, ResourceId::invalid()), CheckError);
}

TEST(ProblemTest, TaskEnergy) {
  Problem p = twoTaskProblem();
  EXPECT_EQ(p.task(TaskId(1)).energy(), 2_W * 5_s);
  EXPECT_EQ(p.task(TaskId(2)).energy(), 4_W * 3_s);
}

TEST(ProblemTest, ConstraintSugarExpandsToSeparations) {
  Problem p = twoTaskProblem();
  const TaskId t1(1), t2(2);
  p.precedes(t1, t2);            // min sep = d(t1) = 5
  p.release(t2, Time(7));        // min sep anchor->t2 = 7
  p.deadline(t2, Time(30));      // max sep anchor->t2 = 30 - 3 = 27
  const auto& cs = p.constraints();
  ASSERT_EQ(cs.size(), 3u);
  EXPECT_EQ(cs[0].kind, TimingConstraint::Kind::kMinSeparation);
  EXPECT_EQ(cs[0].separation, Duration(5));
  EXPECT_EQ(cs[1].from, kAnchorTask);
  EXPECT_EQ(cs[1].separation, Duration(7));
  EXPECT_EQ(cs[2].kind, TimingConstraint::Kind::kMaxSeparation);
  EXPECT_EQ(cs[2].separation, Duration(27));
}

TEST(ProblemTest, PinCreatesEqualityWindow) {
  Problem p = twoTaskProblem();
  p.pin(TaskId(1), Time(12));
  const auto& cs = p.constraints();
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0].kind, TimingConstraint::Kind::kMinSeparation);
  EXPECT_EQ(cs[0].separation, Duration(12));
  EXPECT_EQ(cs[1].kind, TimingConstraint::Kind::kMaxSeparation);
  EXPECT_EQ(cs[1].separation, Duration(12));
}

TEST(ProblemTest, ConstraintEndpointsMustDiffer) {
  Problem p = twoTaskProblem();
  EXPECT_THROW(p.minSeparation(TaskId(1), TaskId(1), 1_s), CheckError);
}

TEST(ProblemTest, BuildGraphAddsReleaseAndConstraintEdges) {
  Problem p = twoTaskProblem();
  p.minSeparation(TaskId(1), TaskId(2), 5_s);
  p.maxSeparation(TaskId(1), TaskId(2), 20_s);
  const ConstraintGraph g = p.buildGraph();
  EXPECT_EQ(g.numVertices(), 3u);
  // 2 release edges + 1 min + 1 max.
  ASSERT_EQ(g.numEdges(), 4u);
  const ConstraintEdge& minE = g.edge(2);
  EXPECT_EQ(minE.from, TaskId(1));
  EXPECT_EQ(minE.to, TaskId(2));
  EXPECT_EQ(minE.weight, Duration(5));
  const ConstraintEdge& maxE = g.edge(3);
  EXPECT_EQ(maxE.from, TaskId(2)) << "max separation is a back edge";
  EXPECT_EQ(maxE.to, TaskId(1));
  EXPECT_EQ(maxE.weight, Duration(-20));
  EXPECT_EQ(maxE.kind, EdgeKind::kUserMax);
}

TEST(ProblemTest, ValidateFlagsImpossiblePower) {
  Problem p;
  const ResourceId r = p.addResource("cpu");
  p.addTask("heavy", 1_s, 30_W, r);
  p.setMaxPower(10_W);
  const auto issues = p.validate();
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].find("heavy"), std::string::npos);
}

TEST(ProblemTest, ValidateFlagsContradictoryWindow) {
  Problem p = twoTaskProblem();
  p.minSeparation(TaskId(1), TaskId(2), 10_s);
  p.maxSeparation(TaskId(1), TaskId(2), 4_s);
  EXPECT_FALSE(p.validate().empty());
}

TEST(ProblemTest, ValidateFlagsMinAboveMax) {
  Problem p;
  p.setMaxPower(10_W);
  p.setMinPower(12_W);
  EXPECT_FALSE(p.validate().empty());
}

TEST(ProblemTest, CleanProblemValidates) {
  EXPECT_TRUE(makePaperExampleProblem().validate().empty());
}

TEST(PaperExampleTest, HasNineTasksOnThreeResources) {
  const Problem p = makePaperExampleProblem();
  EXPECT_EQ(p.numTasks(), 9u);
  EXPECT_EQ(p.numResources(), 3u);
  EXPECT_EQ(p.maxPower(), Watts::fromWatts(16.0));
  EXPECT_EQ(p.minPower(), Watts::fromWatts(14.0));
}

}  // namespace
}  // namespace paws
