// Cross-checks LongestPathEngine against a naive textbook Bellman-Ford on
// randomized graphs (including negative edges and infeasible instances),
// and its incremental mode against from-scratch recomputation under random
// add/rollback workloads — the exact access pattern the schedulers produce,
// including their batch shapes under checkpoint/restore/release.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "graph/longest_path.hpp"
#include "obs/metrics.hpp"

namespace paws {
namespace {

/// Reference: |V|-1 rounds of full relaxation; one more improving round
/// means a positive cycle.
struct NaiveResult {
  bool feasible = true;
  std::vector<Time> dist;
};

NaiveResult naiveLongestPath(const ConstraintGraph& g, TaskId source) {
  NaiveResult r;
  const std::size_t n = g.numVertices();
  r.dist.assign(n, Time::minusInfinity());
  r.dist[source.index()] = Time::zero();
  for (std::size_t round = 0; round + 1 < n; ++round) {
    for (const ConstraintEdge& e : g.edges()) {
      if (r.dist[e.from.index()] == Time::minusInfinity()) continue;
      const Time cand = r.dist[e.from.index()] + e.weight;
      if (cand > r.dist[e.to.index()]) r.dist[e.to.index()] = cand;
    }
  }
  for (const ConstraintEdge& e : g.edges()) {
    if (r.dist[e.from.index()] == Time::minusInfinity()) continue;
    if (r.dist[e.from.index()] + e.weight > r.dist[e.to.index()]) {
      r.feasible = false;
      return r;
    }
  }
  return r;
}

class LongestPathOracle : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LongestPathOracle, MatchesNaiveBellmanFord) {
  std::mt19937 rng(GetParam());
  const std::size_t n = 2 + rng() % 14;
  ConstraintGraph g(n);
  // Release edges so everything is reachable, then random weighted edges
  // (sometimes negative: max-separation style back edges).
  for (std::size_t i = 1; i < n; ++i) {
    g.addEdge(TaskId(0), TaskId(static_cast<std::uint32_t>(i)), Duration(0),
              EdgeKind::kRelease);
  }
  const std::size_t extra = rng() % (3 * n);
  for (std::size_t k = 0; k < extra; ++k) {
    const TaskId u(static_cast<std::uint32_t>(rng() % n));
    const TaskId v(static_cast<std::uint32_t>(rng() % n));
    if (u == v) continue;
    const std::int64_t w = static_cast<std::int64_t>(rng() % 21) - 8;
    g.addEdge(u, v, Duration(w), EdgeKind::kUserMin);
  }

  LongestPathEngine engine(g);
  const LongestPathResult& fast = engine.compute(TaskId(0));
  const NaiveResult slow = naiveLongestPath(g, TaskId(0));
  ASSERT_EQ(fast.feasible, slow.feasible) << "seed " << GetParam();
  if (fast.feasible) {
    EXPECT_EQ(fast.dist, slow.dist) << "seed " << GetParam();
  } else {
    // The witness cycle must be genuinely positive.
    ASSERT_FALSE(fast.cycleEdges.empty());
    Duration total;
    for (EdgeId e : fast.cycleEdges) total += g.edge(e).weight;
    EXPECT_GT(total, Duration::zero());
  }
}

TEST_P(LongestPathOracle, IncrementalTracksAddRollbackWorkload) {
  std::mt19937 rng(GetParam() * 7919 + 13);
  const std::size_t n = 3 + rng() % 10;
  ConstraintGraph g(n);
  for (std::size_t i = 1; i < n; ++i) {
    g.addEdge(TaskId(0), TaskId(static_cast<std::uint32_t>(i)), Duration(0),
              EdgeKind::kRelease);
  }
  LongestPathEngine engine(g);
  ASSERT_TRUE(engine.compute(TaskId(0)).feasible);

  std::vector<ConstraintGraph::Checkpoint> checkpoints;
  for (int step = 0; step < 60; ++step) {
    const int action = static_cast<int>(rng() % 3);
    if (action == 0 || checkpoints.empty()) {
      checkpoints.push_back(g.checkpoint());
      const TaskId u(static_cast<std::uint32_t>(rng() % n));
      const TaskId v(static_cast<std::uint32_t>(rng() % n));
      if (u != v) {
        const std::int64_t w = static_cast<std::int64_t>(rng() % 15) - 4;
        g.addEdge(u, v, Duration(w), EdgeKind::kDelay);
      }
    } else if (action == 1) {
      g.rollbackTo(checkpoints.back());
      checkpoints.pop_back();
    }
    const LongestPathResult& fast = engine.compute(TaskId(0));
    const NaiveResult slow = naiveLongestPath(g, TaskId(0));
    ASSERT_EQ(fast.feasible, slow.feasible)
        << "seed " << GetParam() << " step " << step;
    if (fast.feasible) {
      ASSERT_EQ(fast.dist, slow.dist)
          << "seed " << GetParam() << " step " << step;
    } else {
      // Engine state after infeasibility is rebuilt from scratch on the
      // next call; keep the workload going by undoing the breakage.
      if (!checkpoints.empty()) {
        g.rollbackTo(checkpoints.front());
        checkpoints.clear();
      }
    }
  }
}

/// True when `edges` form one closed walk of positive total weight that
/// leaves `tail` at least once.
bool isPositiveCycleThrough(const ConstraintGraph& g,
                            const std::vector<EdgeId>& edges, TaskId tail) {
  if (edges.empty()) return false;
  Duration total;
  bool throughTail = false;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const ConstraintEdge& e = g.edge(edges[i]);
    if (e.to != g.edge(edges[(i + 1) % edges.size()]).from) return false;
    total += e.weight;
    throughTail = throughTail || e.from == tail;
  }
  return total > Duration::zero() && throughTail;
}

// The two batch shapes the schedulers add between checkpoint() and
// restore()/release(): the timing search serializes one candidate c before
// several tasks (c -> u, weight d(c): every new edge shares its tail), and
// max-power adds delay/lock pairs (anchor -> v, v -> anchor: mixed tails).
// Every compute must agree with the naive Bellman-Ford, and every
// single-tail infeasible verdict must carry a positive witness through c.
TEST_P(LongestPathOracle, BatchShapesUnderCheckpointRestoreRelease) {
  std::mt19937 rng(GetParam() * 104729 + 5);
  const std::size_t n = 4 + rng() % 12;
  ConstraintGraph g(n);
  std::vector<Duration> delay(n);
  for (std::size_t i = 1; i < n; ++i) {
    g.addEdge(TaskId(0), TaskId(static_cast<std::uint32_t>(i)), Duration(0),
              EdgeKind::kRelease);
    delay[i] = Duration(1 + static_cast<std::int64_t>(rng() % 6));
  }
  // Feasible base with max-separation style back edges.
  for (std::size_t k = 0; k < 2 * n; ++k) {
    const TaskId u(static_cast<std::uint32_t>(1 + rng() % (n - 1)));
    const TaskId v(static_cast<std::uint32_t>(1 + rng() % (n - 1)));
    if (u == v) continue;
    const ConstraintGraph::Checkpoint cp = g.checkpoint();
    g.addEdge(u, v, Duration(static_cast<std::int64_t>(rng() % 17) - 8),
              EdgeKind::kUserMin);
    if (!naiveLongestPath(g, TaskId(0)).feasible) g.rollbackTo(cp);
  }

  obs::MetricsRegistry metrics;
  LongestPathEngine engine(g);
  engine.setObs(obs::ObsContext{nullptr, &metrics, nullptr});
  ASSERT_TRUE(engine.compute(TaskId(0)).feasible);

  struct Open {
    ConstraintGraph::Checkpoint graph;
    LongestPathEngine::Checkpoint engine;
  };
  std::vector<Open> open;
  int singleTailInfeasible = 0;
  int mixedTailInfeasible = 0;
  for (int step = 0; step < 120; ++step) {
    const std::string where =
        "seed " + std::to_string(GetParam()) + " step " + std::to_string(step);
    const int action = static_cast<int>(rng() % 4);
    if (action <= 1 || open.empty()) {
      open.push_back({g.checkpoint(), engine.checkpoint()});
      TaskId tail = TaskId::invalid();
      if (action == 0) {
        tail = TaskId(static_cast<std::uint32_t>(1 + rng() % (n - 1)));
        const std::size_t fanOut = 1 + rng() % 4;
        for (std::size_t k = 0; k < fanOut; ++k) {
          const TaskId u(static_cast<std::uint32_t>(1 + rng() % (n - 1)));
          if (u != tail) {
            g.addEdge(tail, u, delay[tail.index()], EdgeKind::kSerialization);
          }
        }
      } else {
        const std::size_t pairs = 1 + rng() % 2;
        for (std::size_t k = 0; k < pairs; ++k) {
          const TaskId v(static_cast<std::uint32_t>(1 + rng() % (n - 1)));
          const std::int64_t at = static_cast<std::int64_t>(rng() % 30);
          const std::int64_t slack = static_cast<std::int64_t>(rng() % 10) - 1;
          g.addEdge(TaskId(0), v, Duration(at), EdgeKind::kDelay);
          g.addEdge(v, TaskId(0), Duration(-(at + slack)), EdgeKind::kLock);
        }
      }
      const LongestPathResult& fast = engine.compute(TaskId(0));
      const NaiveResult slow = naiveLongestPath(g, TaskId(0));
      ASSERT_EQ(fast.feasible, slow.feasible) << where;
      if (fast.feasible) {
        ASSERT_EQ(fast.dist, slow.dist) << where;
        continue;
      }
      if (tail.isValid()) {
        ++singleTailInfeasible;
        EXPECT_TRUE(isPositiveCycleThrough(g, fast.cycleEdges, tail))
            << where;
      } else {
        ++mixedTailInfeasible;
      }
      // Back out of the infeasible batch the way the schedulers do.
      g.rollbackTo(open.back().graph);
      engine.restore(open.back().engine);
      open.pop_back();
    } else if (action == 2) {
      g.rollbackTo(open.back().graph);
      engine.restore(open.back().engine);
      open.pop_back();
    } else {
      engine.release(open.back().engine);
      open.pop_back();
    }
    const LongestPathResult& fast = engine.compute(TaskId(0));
    const NaiveResult slow = naiveLongestPath(g, TaskId(0));
    ASSERT_TRUE(fast.feasible) << where;
    ASSERT_TRUE(slow.feasible) << where;
    ASSERT_EQ(fast.dist, slow.dist) << where;
  }
  // Every restore revived its solution: an early-stopped infeasible run
  // leaves nothing the overwrite log cannot undo.
  EXPECT_EQ(metrics.counter("longest_path.restore_fallbacks"), 0u);
  EXPECT_EQ(metrics.counter("longest_path.full_runs"), 1u);
  EXPECT_EQ(metrics.counter("longest_path.infeasible_runs"),
            static_cast<std::uint64_t>(singleTailInfeasible +
                                       mixedTailInfeasible));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LongestPathOracle,
                         ::testing::Range(1u, 25u));

}  // namespace
}  // namespace paws
