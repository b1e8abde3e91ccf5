#include "graph/constraint_graph.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "base/check.hpp"

namespace paws {
namespace {

TEST(ConstraintGraphTest, EmptyGraph) {
  ConstraintGraph g(4);
  EXPECT_EQ(g.numVertices(), 4u);
  EXPECT_EQ(g.numEdges(), 0u);
  EXPECT_TRUE(g.outEdges(TaskId(2)).empty());
}

TEST(ConstraintGraphTest, AddEdgeAndAdjacency) {
  ConstraintGraph g(3);
  const EdgeId e0 = g.addEdge(TaskId(0), TaskId(1), Duration(5),
                              EdgeKind::kUserMin);
  const EdgeId e1 = g.addEdge(TaskId(1), TaskId(2), Duration(-3),
                              EdgeKind::kUserMax);
  EXPECT_EQ(g.numEdges(), 2u);
  ASSERT_EQ(g.outEdges(TaskId(0)).size(), 1u);
  const AdjEntry& out0 = *g.outEdges(TaskId(0)).begin();
  EXPECT_EQ(out0.id, e0);
  EXPECT_EQ(out0.other, TaskId(1));
  EXPECT_EQ(out0.weight, Duration(5));
  ASSERT_EQ(g.inEdges(TaskId(2)).size(), 1u);
  const AdjEntry& in2 = *g.inEdges(TaskId(2)).begin();
  EXPECT_EQ(in2.id, e1);
  EXPECT_EQ(in2.other, TaskId(1));
  EXPECT_EQ(in2.weight, Duration(-3));
  EXPECT_EQ(g.edge(e1).weight.ticks(), -3);
  EXPECT_EQ(g.edge(e1).kind, EdgeKind::kUserMax);
}

TEST(ConstraintGraphTest, RejectsOutOfRangeEndpoints) {
  ConstraintGraph g(2);
  EXPECT_THROW(
      g.addEdge(TaskId(0), TaskId(5), Duration(1), EdgeKind::kUserMin),
      CheckError);
}

TEST(ConstraintGraphTest, RollbackRemovesEdgesInLifoOrder) {
  ConstraintGraph g(4);
  g.addEdge(TaskId(0), TaskId(1), Duration(1), EdgeKind::kUserMin);
  const auto cp = g.checkpoint();
  g.addEdge(TaskId(1), TaskId(2), Duration(2), EdgeKind::kSerialization);
  g.addEdge(TaskId(1), TaskId(3), Duration(3), EdgeKind::kSerialization);
  EXPECT_EQ(g.numEdges(), 3u);
  EXPECT_EQ(g.outEdges(TaskId(1)).size(), 2u);

  g.rollbackTo(cp);
  EXPECT_EQ(g.numEdges(), 1u);
  EXPECT_TRUE(g.outEdges(TaskId(1)).empty());
  EXPECT_TRUE(g.inEdges(TaskId(2)).empty());
  EXPECT_EQ(g.outEdges(TaskId(0)).size(), 1u);
}

TEST(ConstraintGraphTest, NestedCheckpoints) {
  ConstraintGraph g(5);
  const auto cp0 = g.checkpoint();
  g.addEdge(TaskId(0), TaskId(1), Duration(1), EdgeKind::kDelay);
  const auto cp1 = g.checkpoint();
  g.addEdge(TaskId(0), TaskId(2), Duration(1), EdgeKind::kDelay);
  g.addEdge(TaskId(0), TaskId(3), Duration(1), EdgeKind::kDelay);
  g.rollbackTo(cp1);
  EXPECT_EQ(g.numEdges(), 1u);
  g.addEdge(TaskId(0), TaskId(4), Duration(9), EdgeKind::kLock);
  g.rollbackTo(cp0);
  EXPECT_EQ(g.numEdges(), 0u);
}

TEST(ConstraintGraphTest, RollbackToCurrentIsNoopAndKeepsGeneration) {
  ConstraintGraph g(2);
  g.addEdge(TaskId(0), TaskId(1), Duration(1), EdgeKind::kUserMin);
  const auto gen = g.generation();
  g.rollbackTo(g.checkpoint());
  EXPECT_EQ(g.generation(), gen);
  g.rollbackTo(0);
  EXPECT_GT(g.generation(), gen);
}

TEST(ConstraintGraphTest, GenerationStableAcrossAdds) {
  ConstraintGraph g(3);
  const auto gen = g.generation();
  g.addEdge(TaskId(0), TaskId(1), Duration(1), EdgeKind::kUserMin);
  g.addEdge(TaskId(1), TaskId(2), Duration(1), EdgeKind::kUserMin);
  EXPECT_EQ(g.generation(), gen) << "adds must not invalidate distances";
}

TEST(ConstraintGraphTest, RollbackBeyondTrailThrows) {
  ConstraintGraph g(2);
  EXPECT_THROW(g.rollbackTo(7), CheckError);
}

// Reference model for the chunked-arena adjacency: the old nested-vector
// layout, updated with the same textbook push_back/pop_back trail logic.
struct NestedVectorModel {
  std::vector<ConstraintEdge> edges;
  std::vector<std::vector<EdgeId>> out;
  std::vector<std::vector<EdgeId>> in;

  explicit NestedVectorModel(std::size_t n) : out(n), in(n) {}

  void addEdge(TaskId from, TaskId to, Duration weight) {
    const EdgeId id = static_cast<EdgeId>(edges.size());
    edges.push_back(ConstraintEdge{from, to, weight, EdgeKind::kUserMin});
    out[from.index()].push_back(id);
    in[to.index()].push_back(id);
  }

  void rollbackTo(std::size_t cp) {
    while (edges.size() > cp) {
      const ConstraintEdge& e = edges.back();
      out[e.from.index()].pop_back();
      in[e.to.index()].pop_back();
      edges.pop_back();
    }
  }
};

void expectSameAdjacency(const ConstraintGraph& g,
                         const NestedVectorModel& model) {
  ASSERT_EQ(g.numEdges(), model.edges.size());
  for (std::uint32_t v = 0; v < g.numVertices(); ++v) {
    const TaskId id(v);
    std::vector<EdgeId> outIds;
    for (const AdjEntry& ae : g.outEdges(id)) {
      EXPECT_EQ(ae.other, g.edge(ae.id).to);
      EXPECT_EQ(ae.weight, g.edge(ae.id).weight);
      outIds.push_back(ae.id);
    }
    EXPECT_EQ(outIds, model.out[v]) << "out-adjacency of vertex " << v;
    std::vector<EdgeId> inIds;
    for (const AdjEntry& ae : g.inEdges(id)) {
      EXPECT_EQ(ae.other, g.edge(ae.id).from);
      EXPECT_EQ(ae.weight, g.edge(ae.id).weight);
      inIds.push_back(ae.id);
    }
    EXPECT_EQ(inIds, model.in[v]) << "in-adjacency of vertex " << v;
  }
}

// Property: random add/checkpoint/rollback sequences leave the chunked
// arena byte-equivalent (same edge ids, same order, same endpoints) to the
// nested-vector reference model at every step.
TEST(ConstraintGraphTest, ArenaMatchesNestedVectorModelUnderRandomTrails) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    std::mt19937 rng(seed);
    const std::uint32_t n = 2 + rng() % 12;
    ConstraintGraph g(n);
    NestedVectorModel model(n);
    std::vector<ConstraintGraph::Checkpoint> checkpoints;

    for (int step = 0; step < 400; ++step) {
      const std::uint32_t op = rng() % 10;
      if (op < 6) {  // add an edge (biased so lists grow past chunk size)
        const TaskId from(rng() % n);
        const TaskId to(rng() % n);
        const Duration w(static_cast<std::int64_t>(rng() % 21) - 10);
        g.addEdge(from, to, w, EdgeKind::kUserMin);
        model.addEdge(from, to, w);
      } else if (op < 8 || checkpoints.empty()) {
        checkpoints.push_back(g.checkpoint());
      } else {  // rollback to a random open checkpoint
        const std::size_t pick = rng() % checkpoints.size();
        g.rollbackTo(checkpoints[pick]);
        model.rollbackTo(checkpoints[pick]);
        checkpoints.resize(pick + 1);
      }
      expectSameAdjacency(g, model);
    }
    g.rollbackTo(0);
    model.rollbackTo(0);
    expectSameAdjacency(g, model);
  }
}

TEST(EdgeKindTest, Names) {
  EXPECT_STREQ(toString(EdgeKind::kUserMin), "min");
  EXPECT_STREQ(toString(EdgeKind::kSerialization), "serialize");
  EXPECT_STREQ(toString(EdgeKind::kLock), "lock");
}

}  // namespace
}  // namespace paws
